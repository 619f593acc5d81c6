"""Tests of the benchmark's tracer, workloads and command line.

Run from the repository root: ``python -m pytest bench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import subspace_bandits  # noqa: F401  (imports every library module)
import tracer as tr
import workloads
from subspace_bandits import decomposition, estimators, harness, learners, oracles, spectral

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
# Nested spans share one clock; integer-ns sums agree exactly, so 1 us is slack.
SELF_TIME_TOL_NS = 1e3


def _all_bindings():
    return {(mod.__name__, attr): value for mod, attr, _ in tr.bindings(tr.originals())
            for value in [getattr(mod, attr)]}


def test_tracing_off_leaves_library_functions_untouched():
    assert learners.observe is oracles.observe
    assert harness.observe is oracles.observe
    assert learners.sym_eig is spectral.sym_eig
    assert decomposition.sym_eig is spectral.sym_eig
    assert learners.split_halves is estimators.split_halves
    for (mod, fn, _), original in zip(tr.LAYERS, tr.originals()):
        assert original.__module__ == f"subspace_bandits.{mod}"
        assert not hasattr(original, "__wrapped__"), f"{mod}.{fn} is still wrapped"
    # every calling module is found: observe is bound in oracles, learners, harness, package
    observe_sites = {name for name, value in _all_bindings().items() if value is oracles.observe}
    assert {("subspace_bandits.learners", "observe"),
            ("subspace_bandits.harness", "observe")} <= observe_sites


def test_wrappers_are_installed_and_then_removed():
    before = _all_bindings()
    with tr.Tracer():
        original = before[("subspace_bandits.oracles", "observe")]
        assert learners.observe is not original
        assert learners.observe.__wrapped__ is original
        assert all(hasattr(getattr(sys.modules[mod], attr), "__wrapped__") for mod, attr in before)
    assert _all_bindings() == before
    assert all(getattr(sys.modules[mod], attr) is value for (mod, attr), value in before.items())


def test_wrappers_are_removed_when_the_run_raises():
    before = _all_bindings()
    with pytest.raises(RuntimeError):
        with tr.Tracer():
            raise RuntimeError("boom")
    assert all(getattr(sys.modules[mod], attr) is value for (mod, attr), value in before.items())


def test_self_times_and_uncovered_time_sum_to_traced_wall(tmp_path):
    wl = workloads.build("split-half", seed=3, tiny=True)
    with tr.Tracer() as tracer:
        loop = workloads.run_loop(wl, 0.0, 1, str(tmp_path), tracer=tracer)
    table = tracer.table()
    times = tr.analyse(table)
    wall_ns = loop.wall * 1e9
    uncovered = wall_ns - times.top_ns
    assert abs(times.self_ns.sum() + uncovered - wall_ns) <= SELF_TIME_TOL_NS
    assert abs(sum(times.group_ns.values()) - times.self_ns.sum()) <= SELF_TIME_TOL_NS
    # outside every span: the calibration samples and the loop's own bookkeeping
    calibration_ns = loop.sampler.total * 1e9
    assert calibration_ns <= uncovered < calibration_ns + 0.05 * wall_ns
    assert (times.self_ns >= 0).all()
    # every span nests inside its parent and carries its trial's id
    nested = table[:, 3] >= 0
    parents = table[table[nested, 3]]
    assert (parents[:, 1] <= table[nested, 1]).all() and (table[nested, 2] <= parents[:, 2]).all()
    assert (parents[:, 4] == table[nested, 4]).all()
    assert times.calls[tr.LAYER_NAMES.index("harness.run_trial")] == len(loop.trials)
    assert times.calls[tr.LAYER_NAMES.index("oracles.observe")] == sum(
        t.record.m for t in loop.trials)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_workload_passes_its_output_checks(name, tmp_path):
    wl = workloads.build(name, seed=11, tiny=True)
    loop = workloads.run_loop(wl, 0.0, wl.digest_units, str(tmp_path))
    assert loop.units == wl.digest_units
    assert [t.record.error for t in loop.trials if t.record.error is not None] == []
    checks = workloads.check_outputs(wl, loop)
    assert checks and all(ok for _, ok, _ in checks), checks


def test_checks_catch_a_learner_that_misses_the_planted_coordinate(tmp_path, monkeypatch):
    from subspace_bandits.domain import projector_from_basis

    def wrong_coordinate(dist, cfg, return_trace=False):
        return projector_from_basis(np.eye(cfg.spec.d)[:, :1])  # planted coordinate is 3

    monkeypatch.setattr(harness, "mbgd", wrong_coordinate)
    wl = workloads.build("split-half", seed=1, tiny=True)
    loop = workloads.run_loop(wl, 0.0, 4, str(tmp_path))  # 4 of 4 misses: tail 0.0039
    failed = {name for name, ok, _ in workloads.check_outputs(wl, loop) if not ok}
    assert failed == {"mbgd r=2: mean excess", "mbgd r=4: mean excess"}


@pytest.mark.parametrize("misses,trials,passes", [(0, 8, True), (2, 7, True), (5, 8, True),
                                                  (6, 8, False), (5, 6, False)])
def test_mean_excess_check_allows_chance_misses_only(misses, trials, passes):
    cell = workloads.build("mbeg-d16", seed=1, tiny=True).cells[0]
    records = [harness.TrialRecord("mbeg", 4, 1, 2, 1.0, 89, t, t, float(t < misses), 1.0, 1.0)
               for t in range(trials)]
    result = workloads._check_mean_excess(cell, [workloads.Trial(0, 0, r, 1.0, 0) for r in records])
    assert result[1] is passes, result


def test_tracing_does_not_change_results(tmp_path):
    wl = workloads.build("short-trials", seed=5, tiny=True)
    plain = workloads.run_loop(wl, 0.0, 1, str(tmp_path))
    with tr.Tracer() as tracer:
        traced = workloads.run_loop(wl, 0.0, 1, str(tmp_path), tracer=tracer)
    assert workloads.digest(plain.trials, 1) == workloads.digest(traced.trials, 1)
    assert tracer.decompositions > 0 and tracer.estimates > 0


def test_cli_offers_every_workload():
    import run

    assert run.NAMES == workloads.NAMES


def _run_cli(cwd, *args):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_cli_prints_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run_cli(ROOT, "--workload", "split-half", "--seed", "2", "--seconds", "0.1",
                    "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {(k, v["unit"]) for k, v in result["metrics"].items()} == {
        (m["name"], m["unit"]) for m in spec[section]}
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())


def test_cli_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run_cli(tmp_path, "--workload", "split-half", "--seed", "1", "--seconds", "1")
    assert done.returncode == 2
    assert done.stdout == ""
