#!/usr/bin/env python3
"""Compare benchmark runs of two checkouts, workload by workload.

Reads every ``bench/out/<workload>-seed<S>-trace<T>.json`` written by
``bench/run.py`` in a parent checkout and a change checkout and pairs the
runs by trace setting, workload and seed.  Untraced runs (``--trace 0``) are
compared on the end-to-end metrics of ``BENCHMARK.json``, traced runs
(``--trace 1``) on its per-layer metrics.  For each workload it reports:

* the median and quartiles of each metric, for both checkouts, the ratio of
  the medians and the number of seed pairs in which the change is better;
* a ``REGRESSION`` for each end-to-end metric whose change median is worse
  than the parent median by more than the metric's ``bound``;
* the trial count of every run, and of every cell of it (parsed from the
  cell's ``finite excess`` check);
* for every ``mean excess`` cell of every run, the calibration time at which
  that run would have reached 1,030 trials of the cell,
  ``calib_ms * trials / 1030``: a run's trial count scales as 1 / calib_ms,
  and ``bench/workloads.py::_binomial_tail`` overflows above 1,029 trials in
  one cell, so a vCPU that calibrates below that time would crash the check;
* each cell's median raw trial time, from the run's ``raw_trial_ms``: a
  workload's median can fall between two cells of very different cost;
* whether the two runs of each seed have the same digest, and whether every
  output check passed;
* each run's mean calibration time ``calib_ms``, the vCPU speed it was
  scaled by;

and once, the machine the runs came from (the metadata of the change's runs),
and an ``unpaired`` list: every (trace, workload, seed) with a run in one
checkout only, usually because the other run crashed, with that run's
trials, ``calib_ms``, overflow ``calib_ms`` and digest.  The paired runs are
compared as if the unpaired ones were absent.

Usage:

    python scripts/bench_compare.py PARENT_CHECKOUT CHANGE_CHECKOUT \\
        [--out BENCH_n.json] [--parent-label REV] [--change-label REV] \\
        [--attach MEASUREMENTS.json]

The table goes to stdout; ``--out`` also writes it as JSON, with the JSON
object of ``--attach`` (measurements made outside ``bench/run.py``, such as
raw trial times) under the key ``attached``.  The exit code
is 1 when a run's ``meta.git_commit`` is not its checkout's HEAD (a stale
file left by an earlier commit), when a (trace, workload, seed) has a run in
one checkout only (after ``--out`` is written), when the seeds of a pair have
different digests, when a check or a trial failed in either checkout, when
an end-to-end metric regressed beyond its bound, or when no workload has
runs in both.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

RUN_NAME = re.compile(r"^(?P<workload>.+)-seed(?P<seed>\d+)-trace(?P<trace>\d)\.json$")
VIEWS = (("end_to_end", 0), ("per_layer", 1))  # BENCHMARK.json metric list, --trace setting
MACHINE_KEYS = ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads")
FINITE_CHECK, MEAN_EXCESS_CHECK = ": finite excess", ": mean excess"  # check name suffixes
OVERFLOW_TRIALS = 1030  # the fewest trials whose mean-excess tail overflows


class UnusableRuns(Exception):
    """Runs that cannot be compared: made at another commit, or with no partner run."""


def checkout_head(checkout: Path) -> str:
    """HEAD of a checkout read from its .git as ``bench/run.py`` records it; "unknown" if none.

    Like ``bench/run.py``, it never searches parent directories, so a copy
    of a commit without .git reads "unknown" on both sides.
    """
    git = checkout / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_runs(checkout: Path) -> dict:
    """{trace: {workload: {seed: report}}} for the runs of one checkout.

    Raises ``UnusableRuns`` naming a run whose ``meta.git_commit`` is not the
    checkout's HEAD: a leftover of an earlier commit, not a run of this one.
    """
    head = checkout_head(checkout)
    runs: dict = {}
    for path in sorted((checkout / "bench" / "out").glob("*.json")):
        match = RUN_NAME.match(path.name)
        if match:
            report = json.loads(path.read_text())
            commit = report["meta"].get("git_commit")
            if commit != head:
                raise UnusableRuns(f"{path}: run of commit {commit}, but the checkout is at {head}")
            by_workload = runs.setdefault(int(match["trace"]), {})
            by_workload.setdefault(match["workload"], {})[int(match["seed"])] = report
    return runs


def unpaired(parent: dict, change: dict) -> list[dict]:
    """An entry for every (trace, workload, seed) that has a run in one checkout only."""
    def keys(runs):
        return {(t, w, s) for t, by_workload in runs.items()
                for w, by_seed in by_workload.items() for s in by_seed}

    entries = []
    for side, runs, other in (("parent", parent, change), ("change", change, parent)):
        for t, w, s in sorted(keys(runs) - keys(other)):
            report = runs[t][w][s]
            entries.append({
                "side": side, "workload": w, "seed": s, "trace": t,
                "trials": report["extras"]["trials"],
                "calib_ms": report["extras"].get("calib_ms"),
                "overflow_calib_ms": overflow_calib_ms(report),
                "digest": report["extras"]["digest"],
            })
    return entries


def _unpaired_line(entry: dict) -> str:
    return (f"{entry['workload']} seed {entry['seed']} trace {entry['trace']}: "
            f"a run in the {entry['side']} checkout only")


def spread(values: list[float]) -> dict:
    q25, median, q75 = (
        statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    )
    return {"median": median, "q25": q25, "q75": q75, "values": values}


def cell_trials(report: dict) -> dict:
    """{cell label: trials} of one run, from each cell's finite-excess check ("<n> trials")."""
    return {
        check["name"][: -len(FINITE_CHECK)]: int(check["detail"].split()[0])
        for check in report["checks"]
        if check["name"].endswith(FINITE_CHECK)
    }


def cell_trial_ms(report: dict) -> dict | None:
    """{cell label: median raw trial ms} of one run; None if its trials do not split into cells.

    Every unit runs the cells in order, each cell its own number of trials:
    its finite-excess count divided by the run's units.  A run with failed
    trials (left out of those counts) or without ``raw_trial_ms`` does not split.
    """
    raw, units = report["extras"].get("raw_trial_ms"), report["extras"].get("units")
    cells = cell_trials(report)
    if raw is None or not units or any(n % units for n in cells.values()):
        return None
    sizes = {cell: n // units for cell, n in cells.items()}
    if len(raw) != units * sum(sizes.values()):
        return None
    times: dict = {cell: [] for cell in sizes}
    at = 0
    for _ in range(units):
        for cell, size in sizes.items():
            times[cell].extend(raw[at : at + size])
            at += size
    return {cell: statistics.median(ms) for cell, ms in times.items()}


def regressions(name: str, metric: dict, bound) -> list[str]:
    """A line if the change median is worse than the parent median by more than ``bound``."""
    base, new = metric["parent"]["median"], metric["change"]["median"]
    if bound is None or not base:
        return []
    worse = (base - new if metric["better"] == "higher" else new - base) / abs(base)
    if worse <= bound:
        return []
    return [f"{name}: change median {new:.4g} is {worse:.1%} worse than the parent's "
            f"{base:.4g} (bound {bound:.0%})"]


def mean_excess_trials(report: dict) -> dict:
    """{cell label: trials} of the run's cells that have a mean-excess check."""
    checked = {
        check["name"][: -len(MEAN_EXCESS_CHECK)]
        for check in report["checks"]
        if check["name"].endswith(MEAN_EXCESS_CHECK)
    }
    return {cell: n for cell, n in cell_trials(report).items() if cell in checked}


def overflow_calib_ms(report: dict) -> dict:
    """{mean-excess cell: the calib_ms at which the run would have held 1,030 of its trials}.

    None for every cell of a run that recorded no ``calib_ms``.
    """
    calib = report["extras"].get("calib_ms")
    return {
        cell: None if calib is None else calib * n / OVERFLOW_TRIALS
        for cell, n in mean_excess_trials(report).items()
    }


def compare_workload(metrics: list[dict], parent: dict, change: dict) -> dict:
    seeds = sorted(set(parent) & set(change))  # ``unpaired`` lists the others
    out: dict = {"seeds": seeds, "metrics": {}}
    for metric in metrics:
        name, higher = metric["name"], metric["better"] == "higher"
        if not all(name in runs[s]["metrics"] for runs in (parent, change) for s in seeds):
            continue  # a layer this workload never reaches
        old = [parent[s]["metrics"][name]["value"] for s in seeds]
        new = [change[s]["metrics"][name]["value"] for s in seeds]
        better = sum((n > o) if higher else (n < o) for o, n in zip(old, new))
        base = statistics.median(old)
        out["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "parent": spread(old),
            "change": spread(new),
            "ratio_of_medians": statistics.median(new) / base if base else None,
            "change_better_pairs": f"{better}/{len(seeds)}",
        }
    out["regressions"] = [
        line for metric in metrics if metric["name"] in out["metrics"]
        for line in regressions(metric["name"], out["metrics"][metric["name"]], metric.get("bound"))
    ]
    sides = (("parent", parent), ("change", change))
    out["trials"] = {side: [runs[s]["extras"]["trials"] for s in seeds] for side, runs in sides}
    out["calib_ms"] = {
        side: [runs[s]["extras"].get("calib_ms") for s in seeds] for side, runs in sides
    }
    out["cell_trials"] = {side: [cell_trials(runs[s]) for s in seeds] for side, runs in sides}
    out["cell_trial_ms"] = {side: [cell_trial_ms(runs[s]) for s in seeds] for side, runs in sides}
    out["overflow_calib_ms"] = {
        side: [overflow_calib_ms(runs[s]) for s in seeds] for side, runs in sides
    }
    out["digests_equal"] = all(
        parent[s]["extras"]["digest"] == change[s]["extras"]["digest"] for s in seeds
    )
    out["checks_passed"] = {
        side: all(c["passed"] for s in seeds for c in runs[s]["checks"])
        and not any(runs[s]["failed_trials"] for s in seeds)
        for side, runs in sides
    }
    return out


def _ratio(value) -> str:
    return "n/a" if value is None else f"{value:.3f}"


def _ms(value) -> str:
    return "n/a" if value is None else f"{value:.4g}"


def _by_cell(runs: list[dict]) -> dict:
    """{cell: [its value in each run]} from one {cell: value} per run."""
    per_cell: dict = {}
    for run in runs:
        for cell, value in run.items():
            per_cell.setdefault(cell, []).append(value)
    return per_cell


def _cell_time_lines(cell_ms: dict) -> list[str]:
    """Per cell, the median over seeds of each side's per-run median raw trial ms."""
    per_side = {
        side: {cell: statistics.median(run[cell] for run in runs) for cell in runs[0]}
        for side, runs in cell_ms.items() if runs and all(runs)
    }
    if len(per_side) != 2:
        return []
    parent, change = per_side["parent"], per_side["change"]
    return [
        f"  cell trial ms (raw median)  {cell}: parent {parent[cell]:.4g}  change "
        f"{change[cell]:.4g}  ratio {_ratio(change[cell] / parent[cell] if parent[cell] else None)}"
        for cell in parent if cell in change
    ]


def render(report: dict) -> str:
    lines = [f"machine: {json.dumps(report['machine'])}"]
    for view, _ in VIEWS:
        for workload, res in report[view].items():
            lines.append(f"\n[{view}] {workload}  seeds {res['seeds']}  digests equal: "
                         f"{res['digests_equal']}  checks passed: {res['checks_passed']}")
            trials = res["trials"]
            lines.append(f"  trials  parent {trials['parent']}  change {trials['change']}")
            calib = {side: [_ms(ms) for ms in values] for side, values in res["calib_ms"].items()}
            lines.append(f"  calib_ms  parent {calib['parent']}  change {calib['change']}")
            for side in ("parent", "change"):
                for cell, counts in _by_cell(res["cell_trials"][side]).items():
                    lines.append(f"  cell trials  {side}  {cell}: {counts}")
            for side in ("parent", "change"):
                for cell, values in _by_cell(res["overflow_calib_ms"][side]).items():
                    lines.append(f"  {OVERFLOW_TRIALS} trials at calib_ms  {side}  {cell}: "
                                 f"{[_ms(ms) for ms in values]}")
            lines.extend(_cell_time_lines(res["cell_trial_ms"]))
            for name, m in res["metrics"].items():
                p, c = m["parent"], m["change"]
                line = (
                    f"  {name:<13} parent {p['median']:.4g} [{p['q25']:.4g}, {p['q75']:.4g}]"
                    f"  change {c['median']:.4g} [{c['q25']:.4g}, {c['q75']:.4g}] {m['unit']}"
                    f"  ratio {_ratio(m['ratio_of_medians'])}  change better {m['change_better_pairs']}"
                )
                if name == "peak_rss_mb":  # RSS grows with the number of trials a run keeps
                    line += (f"  trials (median) parent {statistics.median(trials['parent']):g}"
                             f"  change {statistics.median(trials['change']):g}")
                lines.append(line)
            lines.extend(f"  REGRESSION {line}" for line in res["regressions"])
    for entry in report["unpaired"]:
        overflow = {cell: _ms(ms) for cell, ms in entry["overflow_calib_ms"].items()}
        lines.append(f"\n[unpaired] {_unpaired_line(entry)}  trials {entry['trials']}  calib_ms "
                     f"{_ms(entry['calib_ms'])}  {OVERFLOW_TRIALS} trials at calib_ms {overflow}"
                     f"  digest {entry['digest']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--out", type=Path, help="also write the comparison as JSON here")
    ap.add_argument("--parent-label", default=None, help="revision of the parent, for the JSON")
    ap.add_argument("--change-label", default=None, help="revision of the change, for the JSON")
    ap.add_argument("--attach", type=Path, help="JSON object stored under 'attached' in --out")
    args = ap.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    try:
        parent, change = load_runs(args.parent), load_runs(args.change)
    except UnusableRuns as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lonely = unpaired(parent, change)
    for entry in lonely:
        print(f"error: {_unpaired_line(entry)}", file=sys.stderr)
    views = {
        view: {
            w: compare_workload(benchmark[view], parent[trace][w], change[trace][w])
            for w in sorted(set(parent.get(trace, {})) & set(change.get(trace, {})))
            if set(parent[trace][w]) & set(change[trace][w])
        }
        for view, trace in VIEWS
    }
    if not any(views.values()):
        print("no workload has runs in both checkouts", file=sys.stderr)
        return 1
    meta = next(
        run for by_workload in change.values() for by_seed in by_workload.values()
        for run in by_seed.values()
    )["meta"]
    report = {
        "parent": args.parent_label,
        "change": args.change_label,
        "seconds": meta["seconds"],
        "machine": {key: meta.get(key) for key in MACHINE_KEYS},
        **views,
        "unpaired": lonely,
    }
    if args.attach:
        report["attached"] = json.loads(args.attach.read_text())
    print(render(report))
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    # A run without a partner, a changed digest, a failed check or a regression
    # beyond a bound fails the comparison.
    results = [res for by_workload in views.values() for res in by_workload.values()]
    broken = lonely or any(
        not res["digests_equal"] or not all(res["checks_passed"].values()) or res["regressions"]
        for res in results
    )
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main())
