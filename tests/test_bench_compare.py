"""``scripts/bench_compare.py`` on two synthetic checkouts."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_compare.py"
BENCHMARK = {
    "end_to_end": [
        {"name": "trials_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "trial_ms_p50", "unit": "ms", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [
        {"name": "trials_per_s", "unit": "1/s", "better": "higher"},
        {"name": "learners.mbgd.self_ms", "unit": "ms/trial", "better": "lower"},
    ],
}


@pytest.fixture(scope="module")
def bench_compare():
    spec = importlib.util.spec_from_file_location("bench_compare", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_run(checkout, workload, seed, trials_per_s, digest, trace=0, passed=True, cells=(),
              peak_rss_mb=None, commit="unknown", units=None, raw_trial_ms=None, calib_ms=None):
    """One run's report; ``cells`` holds (label, trials, has a mean-excess check) per cell.

    ``commit`` is the run's ``meta.git_commit``: "unknown", as ``bench/run.py``
    records it, for a checkout without a .git directory.  ``units``,
    ``raw_trial_ms`` and ``calib_ms`` are written to the extras when given.
    """
    out = checkout / "bench" / "out"
    out.mkdir(parents=True, exist_ok=True)
    checks = [{"name": "output", "passed": passed, "detail": ""}]
    for label, trials, mean_excess in cells:
        checks.append({"name": f"{label}: finite excess", "passed": True,
                       "detail": f"{trials} trials"})
        if mean_excess:
            checks.append({"name": f"{label}: mean excess", "passed": True,
                           "detail": f"0.0000 with 0 misses of {trials} trials"})
    report = {
        "meta": {"workload": workload, "seed": seed, "seconds": 25.0, "nproc": 2, "numpy": "2.x",
                 "git_commit": commit},
        "extras": {"trials": int(trials_per_s * 25), "digest": digest},
        "checks": checks,
        "failed_trials": [],
        "metrics": {
            "trials_per_s": {"value": trials_per_s, "unit": "1/s"},
            "trial_ms_p50": {"value": 1000.0 / trials_per_s, "unit": "ms"},
        },
    }
    if units is not None:
        report["extras"].update(units=units, raw_trial_ms=raw_trial_ms)
    if calib_ms is not None:
        report["extras"]["calib_ms"] = calib_ms
    if peak_rss_mb is not None:
        report["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    if trace:
        del report["metrics"]["trial_ms_p50"]
        report["metrics"]["learners.mbgd.self_ms"] = {"value": 0.0, "unit": "ms/trial"}
    (out / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(report))


def test_pairs_runs_by_seed_and_reports_spread(tmp_path, bench_compare, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    for seed, old, new in ((101, 10.0, 28.0), (102, 11.0, 29.0), (103, 9.0, 8.0)):
        write_run(parent, "mbeg-d16", seed, old, f"d{seed}")
        write_run(change, "mbeg-d16", seed, new, f"d{seed}")
    write_run(parent, "mbeg-d16", 101, 1.0, "d101", trace=1)  # traced: the per-layer view
    write_run(change, "mbeg-d16", 101, 2.0, "d101", trace=1)
    out = tmp_path / "BENCH.json"

    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    res = report["end_to_end"]["mbeg-d16"]
    assert res["seeds"] == [101, 102, 103]
    tps = res["metrics"]["trials_per_s"]
    assert tps["parent"]["median"] == 10.0 and tps["change"]["median"] == 28.0
    assert tps["change"]["q25"] == 18.0 and tps["change"]["q75"] == 28.5
    assert tps["change_better_pairs"] == "2/3"
    assert tps["ratio_of_medians"] == pytest.approx(2.8)
    assert res["metrics"]["trial_ms_p50"]["change_better_pairs"] == "2/3"
    assert res["trials"]["change"] == [700, 725, 200]
    assert res["digests_equal"] is True
    assert res["checks_passed"] == {"parent": True, "change": True}
    assert report["machine"]["nproc"] == 2
    assert report["unpaired"] == []
    # a metric the traced runs do not report is left out; a zero base has no ratio
    layers = report["per_layer"]["mbeg-d16"]["metrics"]
    assert list(layers) == ["trials_per_s", "learners.mbgd.self_ms"]
    assert layers["learners.mbgd.self_ms"]["ratio_of_medians"] is None
    assert report["per_layer"]["mbeg-d16"]["metrics"]["trials_per_s"]["change"]["median"] == 2.0
    assert "mbeg-d16" in capsys.readouterr().out


def test_flags_digest_change_and_failed_checks(tmp_path, bench_compare):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    write_run(parent, "split-half", 1, 5.0, "aaaa")
    write_run(change, "split-half", 1, 5.0, "bbbb", passed=False)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == 1
    res = json.loads(out.read_text())["end_to_end"]["split-half"]
    assert res["digests_equal"] is False
    assert res["checks_passed"] == {"parent": True, "change": False}


@pytest.mark.parametrize("parent_run,change_run", [
    ({"digest": "aaaa"}, {"digest": "bbbb"}),
    ({"digest": "aaaa", "passed": False}, {"digest": "aaaa"}),
], ids=["digest-only", "parent-check-only"])
def test_each_fault_alone_fails_the_comparison(tmp_path, bench_compare, parent_run, change_run):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    write_run(parent, "mbeg-d16", 1, 5.0, **parent_run)
    write_run(change, "mbeg-d16", 1, 5.0, **change_run)
    write_run(parent, "split-half", 1, 5.0, "cccc")  # a clean workload does not mask it
    write_run(change, "split-half", 1, 5.0, "cccc")
    assert bench_compare.main([str(parent), str(change)]) == 1


def test_records_calibration_times_and_attached_measurements(tmp_path, bench_compare, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    write_run(parent, "mbeg-d16", 1, 5.0, "aaaa", calib_ms=0.61)
    write_run(change, "mbeg-d16", 1, 6.0, "aaaa", calib_ms=0.58)
    write_run(parent, "mbeg-d16", 2, 5.0, "bbbb")  # a run that recorded none reads n/a
    write_run(change, "mbeg-d16", 2, 6.0, "bbbb")
    raw = {"raw_trial_s": {"d=64": {"parent": [4.4], "change": [1.6]}}}
    (tmp_path / "raw.json").write_text(json.dumps(raw))
    out = tmp_path / "BENCH.json"

    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == 0
    assert "attached" not in json.loads(out.read_text())
    argv = [str(parent), str(change), "--out", str(out), "--attach", str(tmp_path / "raw.json")]
    assert bench_compare.main(argv) == 0
    report = json.loads(out.read_text())
    assert report["end_to_end"]["mbeg-d16"]["calib_ms"] == {
        "parent": [0.61, None], "change": [0.58, None]
    }
    assert report["attached"] == raw
    assert "calib_ms  parent ['0.61', 'n/a']  change ['0.58', 'n/a']" in capsys.readouterr().out


def test_no_common_workload_is_an_error(tmp_path, bench_compare):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    write_run(change, "split-half", 1, 5.0, "aaaa")
    assert bench_compare.main([str(tmp_path / "parent"), str(change)]) == 1


def test_reports_cell_trials_and_the_trial_counts_beside_peak_rss(tmp_path, bench_compare, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    benchmark = dict(BENCHMARK, end_to_end=BENCHMARK["end_to_end"] + [
        {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}])
    (change / "BENCHMARK.json").write_text(json.dumps(benchmark))

    def cells(n):
        return [("mbgd r=2", n, True), ("starved", 2 * n, False)]

    for seed, (old, new) in {1: (300, 950), 2: (310, 880)}.items():
        write_run(parent, "split-half", seed, 5.0, "a", cells=cells(old), peak_rss_mb=40.0)
        write_run(change, "split-half", seed, 9.0, "a", cells=cells(new), peak_rss_mb=41.0)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["end_to_end"]["split-half"]
    assert res["cell_trials"]["parent"] == [
        {"mbgd r=2": 300, "starved": 600}, {"mbgd r=2": 310, "starved": 620}]
    assert res["cell_trials"]["change"][0] == {"mbgd r=2": 950, "starved": 1900}
    printed = capsys.readouterr().out
    assert "cell trials  change  mbgd r=2: [950, 880]" in printed
    rss = next(line for line in printed.splitlines() if line.strip().startswith("peak_rss_mb"))
    assert rss.endswith("trials (median) parent 125  change 225")


def test_reports_the_calibration_time_at_which_each_mean_excess_cell_overflows(
    tmp_path, bench_compare, capsys
):
    # trials scale as 1 / calib_ms, so the run reaches 1,030 trials at calib_ms * trials / 1030
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    cells = [("mbeg d=16", 515, True), ("starved", 2060, False)]  # no mean-excess check: skipped
    write_run(parent, "mbeg-d16", 1, 5.0, "a", cells=cells, calib_ms=0.9)
    write_run(change, "mbeg-d16", 1, 5.0, "a", cells=[("mbeg d=16", 1030, True)], calib_ms=0.6)
    write_run(parent, "mbeg-d16", 2, 5.0, "b", cells=cells)  # no calib_ms recorded
    write_run(change, "mbeg-d16", 2, 5.0, "b", cells=cells, calib_ms=0.5)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["end_to_end"]["mbeg-d16"]
    assert res["overflow_calib_ms"] == {
        "parent": [{"mbeg d=16": 0.45}, {"mbeg d=16": None}],
        "change": [{"mbeg d=16": 0.6}, {"mbeg d=16": 0.25}],
    }
    printed = capsys.readouterr().out
    assert "1030 trials at calib_ms  parent  mbeg d=16: ['0.45', 'n/a']" in printed
    assert "1030 trials at calib_ms  change  mbeg d=16: ['0.6', '0.25']" in printed
    assert "FLAG" not in printed  # the overflow calib_ms is the one predictor of the crash


def test_one_sided_runs_fail_the_comparison_and_are_named(tmp_path, bench_compare, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    for seed in (101, 102):
        write_run(parent, "mbeg-d16", seed, 10.0, f"d{seed}")
        write_run(change, "mbeg-d16", seed, 10.0 + seed - 100, f"d{seed}")
    # the parent's run crashed in the tail overflow: its partner is kept, not lost
    write_run(change, "mbeg-d16", 103, 10.0, "d103", cells=[("mbeg d=16", 1000, True)],
              calib_ms=0.618)
    write_run(parent, "split-half", 1, 5.0, "a", trace=1)  # a whole workload on one side
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: split-half seed 1 trace 1: a run in the parent checkout only",
        "error: mbeg-d16 seed 103 trace 0: a run in the change checkout only"]
    report = json.loads(out.read_text())
    res = report["end_to_end"]["mbeg-d16"]  # the paired seeds are compared as before
    assert res["seeds"] == [101, 102]
    assert res["metrics"]["trials_per_s"]["change"]["values"] == [11.0, 12.0]
    assert res["digests_equal"] is True
    assert report["per_layer"] == {}
    assert report["unpaired"] == [
        {"side": "parent", "workload": "split-half", "seed": 1, "trace": 1, "trials": 125,
         "calib_ms": None, "overflow_calib_ms": {}, "digest": "a"},
        {"side": "change", "workload": "mbeg-d16", "seed": 103, "trace": 0, "trials": 250,
         "calib_ms": 0.618, "overflow_calib_ms": {"mbeg d=16": pytest.approx(0.6)},
         "digest": "d103"},
    ]
    assert ("[unpaired] mbeg-d16 seed 103 trace 0: a run in the change checkout only  "
            "trials 250  calib_ms 0.618  1030 trials at calib_ms {'mbeg d=16': '0.6'}  "
            "digest d103") in captured.out


def _git_checkout(path, head, ref_file=None, packed=None):
    """A checkout whose .git holds only what HEAD resolution reads."""
    git = path / ".git"
    git.mkdir(parents=True)
    (git / "HEAD").write_text(head + "\n")
    if ref_file is not None:
        (git / "refs" / "heads").mkdir(parents=True)
        (git / "refs" / "heads" / "main").write_text(ref_file + "\n")
    if packed is not None:
        (git / "packed-refs").write_text(f"# pack-refs with: peeled\n{packed} refs/heads/main\n")


@pytest.mark.parametrize("layout", [
    {"head": "c" * 40},
    {"head": "ref: refs/heads/main", "ref_file": "c" * 40},
    {"head": "ref: refs/heads/main", "packed": "c" * 40},
], ids=["detached", "loose-ref", "packed-ref"])
def test_checkout_head_reads_what_bench_run_records(tmp_path, bench_compare, layout):
    _git_checkout(tmp_path, **layout)
    assert bench_compare.checkout_head(tmp_path) == "c" * 40
    assert bench_compare.checkout_head(tmp_path / "no-git") == "unknown"


def test_a_run_from_another_commit_fails_and_is_named(tmp_path, bench_compare, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    _git_checkout(parent, "a" * 40)
    _git_checkout(change, "ref: refs/heads/main", ref_file="b" * 40)
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    write_run(parent, "mbeg-d16", 1, 5.0, "d", commit="a" * 40)
    write_run(change, "mbeg-d16", 1, 5.0, "d", commit="b" * 40)
    assert bench_compare.main([str(parent), str(change)]) == 0
    capsys.readouterr()
    # a later run of seed 2 crashed on the change side, leaving an older commit's file
    write_run(parent, "mbeg-d16", 2, 5.0, "d", commit="a" * 40)
    write_run(change, "mbeg-d16", 2, 5.0, "d", commit="9" * 40)
    assert bench_compare.main([str(parent), str(change)]) == 1
    err = capsys.readouterr().err
    stale = change / "bench" / "out" / "mbeg-d16-seed2-trace0.json"
    assert err == f"error: {stale}: run of commit {'9' * 40}, but the checkout is at {'b' * 40}\n"


RSS_BENCHMARK = dict(BENCHMARK, end_to_end=BENCHMARK["end_to_end"] + [
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05}])


@pytest.mark.parametrize("new_tps,new_rss,regressed", [
    (8.0, 40.0, []),  # 20% fewer trials/s and 25% longer trials: within the 25% bounds
    (7.0, 40.0, ["trials_per_s", "trial_ms_p50"]),  # 30% fewer trials/s, 43% longer trials
    (10.0, 42.5, ["peak_rss_mb"]),  # 6.25% more RSS against a 5% bound
    (12.0, 38.0, []),  # better everywhere
], ids=["within-bounds", "slower", "larger", "better"])
def test_an_end_to_end_metric_worse_than_its_bound_fails(tmp_path, bench_compare, capsys,
                                                        new_tps, new_rss, regressed):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(RSS_BENCHMARK))
    for seed in (1, 2, 3):
        write_run(parent, "short-trials", seed, 10.0, "a", peak_rss_mb=40.0)
        write_run(change, "short-trials", seed, new_tps, "a", peak_rss_mb=new_rss)
        # traced runs carry no bound: a slower traced run is not a regression
        write_run(parent, "short-trials", seed, 10.0, "a", trace=1)
        write_run(change, "short-trials", seed, 1.0, "a", trace=1)
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == (1 if regressed else 0)
    found = json.loads(out.read_text())["end_to_end"]["short-trials"]["regressions"]
    assert [line.split(":")[0] for line in found] == regressed
    printed = [line.strip() for line in capsys.readouterr().out.splitlines()
               if "REGRESSION" in line]
    assert printed == [f"REGRESSION {line}" for line in found]
    if regressed == ["peak_rss_mb"]:
        assert found == ["peak_rss_mb: change median 42.5 is 6.2% worse than the parent's 40 "
                         "(bound 5%)"]


def test_reports_each_cells_median_trial_time(tmp_path, bench_compare, capsys):
    # Two units of two cells, two trials per cell per unit: the whole run's
    # median falls between the cells, each cell's median is its own.
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    cells = [("mbgd r=2", 4, True), ("bandit-pca r=2", 4, True)]
    write_run(parent, "split-half", 1, 5.0, "a", cells=cells, units=2,
              raw_trial_ms=[100.0, 110.0, 1.0, 2.0, 120.0, 130.0, 3.0, 4.0])
    write_run(change, "split-half", 1, 5.0, "a", cells=cells, units=2,
              raw_trial_ms=[80.0, 70.0, 1.0, 2.0, 90.0, 60.0, 3.0, 4.0])
    write_run(parent, "split-half", 2, 5.0, "a", cells=cells, units=2,
              raw_trial_ms=[200.0, 210.0, 5.0, 6.0, 220.0, 230.0, 7.0, 8.0])
    write_run(change, "split-half", 2, 5.0, "a", cells=cells, units=2,
              raw_trial_ms=[150.0, 160.0, 5.0, 6.0, 170.0, 180.0, 7.0, 8.0])
    out = tmp_path / "BENCH.json"
    assert bench_compare.main([str(parent), str(change), "--out", str(out)]) == 0
    res = json.loads(out.read_text())["end_to_end"]["split-half"]
    assert res["cell_trial_ms"]["parent"] == [
        {"mbgd r=2": 115.0, "bandit-pca r=2": 2.5}, {"mbgd r=2": 215.0, "bandit-pca r=2": 6.5}]
    assert res["cell_trial_ms"]["change"][0] == {"mbgd r=2": 75.0, "bandit-pca r=2": 2.5}
    printed = capsys.readouterr().out
    assert "cell trial ms (raw median)  mbgd r=2: parent 165  change 120  ratio 0.727" in printed
    assert "cell trial ms (raw median)  bandit-pca r=2: parent 4.5  change 4.5  ratio 1.000" \
        in printed


@pytest.mark.parametrize("cells,units,raw", [
    ([("mbgd r=2", 3, True)], 2, [1.0, 2.0, 3.0]),  # a failed trial left 3 of 4 in the count
    ([("mbgd r=2", 4, True)], 2, [1.0, 2.0, 3.0]),  # times of fewer trials than counted
    ([("mbgd r=2", 4, True)], None, None),  # a run made before raw_trial_ms was written
], ids=["uneven-cell", "short-times", "no-times"])
def test_a_run_whose_trials_do_not_split_into_cells_has_no_cell_times(tmp_path, bench_compare,
                                                                      cells, units, raw):
    write_run(tmp_path, "split-half", 1, 5.0, "a", cells=cells, units=units, raw_trial_ms=raw)
    report = json.loads((tmp_path / "bench" / "out" / "split-half-seed1-trace0.json").read_text())
    assert bench_compare.cell_trial_ms(report) is None
