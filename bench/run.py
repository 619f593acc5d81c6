"""Benchmark of the subspace-bandits library: one workload per run.

Run from the repository root:

    python3 bench/run.py --workload split-half --seed 1 --seconds 25 --trace 0

With ``--trace 0`` it prints every end-to-end metric; with ``--trace 1`` it
wraps the library's layers (see ``tracer.py``) and prints the per-layer
metrics.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
when every trial and every output check passed, 1 when one failed, and 2
when the library cannot be found or the arguments are wrong.  See README.md
in this directory for the workloads and metrics.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# Pin BLAS threads before numpy loads: small eigh calls must not contend for cores.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

NAMES = ("split-half", "mbeg-d16", "short-trials")
SETUP_PROBES = 7
SETUP_PROBE_TIMEOUT = 60
SETUP_CALIB_SAMPLES = 7
EIGH_FLOOR_BLOCKS = 7
EIGH_FLOOR_CALLS = 300
OVERHEAD_REF_SHARE = 0.2  # untraced reference run, as a share of --seconds


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="internal: time import and workload construction, print it, exit")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def _load_library():
    """Put the checkout's src/ first on the path and import from it, or exit 2."""
    if not (SRC / "subspace_bandits" / "__init__.py").is_file():
        print(f"error: no library sources at {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import subspace_bandits

    if Path(subspace_bandits.__file__).resolve().parent.parent != SRC:
        print(f"error: imported {subspace_bandits.__file__}, not the checkout's copy",
              file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# Run metadata, set-up time, eigh floor
# ---------------------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout read from .git directly, without searching parent dirs."""
    git = ROOT / ".git"
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


def _metadata(args) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        blas = {}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "blas_threads": {var: os.environ[var] for var in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
    }


def _setup_seconds(args) -> list[float]:
    """Import + fixture construction + config validation, each in a fresh interpreter.

    Each probe reports its set-up time at the reference speed, scaled by
    calibration samples it takes right after set-up on its own vCPU.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", "1"]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=SETUP_PROBE_TIMEOUT,
                              check=True, cwd=ROOT)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _setup_probe(args) -> float:
    import calib
    import workloads

    workloads.build(args.workload, args.seed)
    seconds = time.perf_counter() - _T0
    sampler = calib.Sampler()
    for _ in range(SETUP_CALIB_SAMPLES):
        sampler.take()
    return seconds * sampler.scale()


def _eigh_floor_us(d: int) -> float:
    """Median per-call time of raw np.linalg.eigh at dimension d."""
    import numpy as np

    a = np.random.default_rng(d).standard_normal((d, d))
    a = a + a.T
    blocks = []
    for _ in range(EIGH_FLOOR_BLOCKS):
        t0 = time.perf_counter()
        for _ in range(EIGH_FLOOR_CALLS):
            np.linalg.eigh(a)
        blocks.append((time.perf_counter() - t0) / EIGH_FLOOR_CALLS * 1e6)
    return statistics.median(blocks)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _end_to_end(loop, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics at the reference speed, and raw figures printed beside them."""
    ok = [tr for tr in loop.trials if tr.record.error is None]
    steps = sum(tr.record.m for tr in ok)
    ref_wall = loop.ref_wall()
    trial_ms = sorted(s * 1e3 for s in loop.ref_trial_seconds())
    raw_ms = [tr.seconds * 1e3 for tr in loop.trials]
    metrics = {
        "trials_per_s": (len(ok) / ref_wall, "1/s"),
        "steps_per_s": (steps / ref_wall, "1/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extras = {
        "trials": len(trial_ms),
        "units": loop.units,
        "wall_s": loop.wall,
        "calib_ms": loop.sampler.mean * 1e3,
        "calib_samples": len(loop.sampler.samples),
        "calib_samples_ms": [c * 1e3 for c in loop.sampler.samples],
        "raw_trials_per_s": len(ok) / loop.wall,
        "raw_steps_per_s": steps / loop.wall,
        "raw_trial_ms_p50": statistics.median(raw_ms),
        "raw_trial_ms": raw_ms,
    }
    if len(trial_ms) >= 100:
        extras["trial_ms_p90"] = statistics.quantiles(trial_ms, n=10)[-1]
    return metrics, extras


def _per_layer(tracer_mod, tracer, times, loop, overhead: float, eigh_floor: float) -> dict:
    """Per-layer metrics; times are at the reference speed, shares are of the traced wall."""
    idx = {name: i for i, name in enumerate(tracer_mod.LAYER_NAMES)}
    trials = len(loop.trials)
    scale = loop.sampler.scale()

    def calls(name):
        return float(times.calls[idx[name]]) / trials

    def us_per_call(name):
        n = times.calls[idx[name]]
        return float(times.total_ns[idx[name]]) / n / 1e3 * scale if n else 0.0

    def self_ms(name):
        return float(times.self_ns[idx[name]]) / trials / 1e6 * scale

    m = {}
    for name in ("oracles.observe", "spectral.sym_eig",
                 "domain.check_hull_membership", "domain.projector_from_basis"):
        m[f"{name}.calls"] = (calls(name), "calls/trial")
    for name in tracer_mod.LAYER_NAMES:
        if name not in ("learners.mbgd", "learners.bandit_pca", "learners.mbeg",
                        "harness.run_trial", "harness.emit_csv"):
            m[f"{name}.us_per_call"] = (us_per_call(name), "us")
    for name in ("oracles.observe", "spectral.sym_eig", "learners.mbgd", "learners.bandit_pca",
                 "learners.mbeg", "harness.run_trial"):
        m[f"{name}.self_ms"] = (self_ms(name), "ms/trial")
    m["harness.emit_csv.ms"] = (us_per_call("harness.emit_csv") / 1e3, "ms")
    est = tracer.estimates
    m["estimators.informative_frac"] = (tracer.informative / est if est else 0.0, "ratio")
    m["estimators.terms_per_step"] = (tracer.terms / est if est else 0.0, "terms/step")
    dec = tracer.decompositions
    m["decomposition.components_mean"] = (tracer.components / dec if dec else 0.0, "count")
    m["spectral.eigh_floor_us"] = (eigh_floor * scale, "us")
    wall_ns = loop.wall * 1e9
    for group in tracer_mod.GROUPS:
        m[f"share.{group}"] = (times.group_ns[group] / wall_ns, "ratio")
    m["trace.uncovered_frac"] = ((wall_ns - times.top_ns) / wall_ns, "ratio")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = _parse_args(argv)
    _load_library()
    import numpy as np
    import tracer as tracer_mod
    import workloads

    if args.setup_probe:
        print(_setup_probe(args))
        return 0

    meta = _metadata(args)
    setup_samples = _setup_seconds(args)
    wl = workloads.build(args.workload, args.seed)

    OUT.mkdir(exist_ok=True)
    csv_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        # Warm-up: the first trial of each cell, untimed, so lazy set-up is done.
        for cell in wl.cells:
            workloads.harness.run_trial(cell.cfg, cell.cfg.m_values[0], 0)
        if args.trace:
            # Untraced reference units, then the same units traced.
            ref = workloads.run_loop(wl, args.seconds * OVERHEAD_REF_SHARE, 1, csv_dir)
            with tracer_mod.Tracer() as tracer:
                loop = workloads.run_loop(wl, args.seconds, max(wl.digest_units, ref.units),
                                          csv_dir, tracer=tracer)
            eigh_floor = _eigh_floor_us(wl.eigh_d)
        else:
            loop = workloads.run_loop(wl, args.seconds, wl.digest_units, csv_dir)
        checks = workloads.check_outputs(wl, loop)
        if args.trace:
            same = [workloads.record_key(tr.record) for tr in ref.trials] == [
                workloads.record_key(tr.record) for tr in loop.trials if tr.unit < ref.units]
            checks.append(("tracing leaves results unchanged", same,
                           f"{len(ref.trials)} reference trials"))
    finally:
        shutil.rmtree(csv_dir, ignore_errors=True)

    failed_trials = [tr.record for tr in loop.trials if tr.record.error is not None]
    failed_checks = [c for c in checks if not c[1]]
    attempted = len(loop.trials) + len(checks)
    failed = len(failed_trials) + len(failed_checks)

    metrics, extras = _end_to_end(loop, statistics.median(setup_samples))
    extras.update({
        "failed_frac": failed / attempted,
        "digest": workloads.digest(loop.trials, wl.digest_units),
        "digest_units": wl.digest_units,
        "setup_s_samples": setup_samples,
    })
    if args.trace:
        table = tracer.table()
        times = tracer_mod.analyse(table)
        traced = sum(s for s, tr in zip(loop.ref_trial_seconds(), loop.trials)
                     if tr.unit < ref.units)
        overhead = traced / sum(ref.ref_trial_seconds()) - 1.0
        metrics = _per_layer(tracer_mod, tracer, times, loop, overhead, eigh_floor)
        extras["spans"] = len(table)
        extras["traced_peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        np.savez_compressed(OUT / f"spans-{args.workload}.npz", spans=table,
                            layers=np.array(tracer_mod.LAYER_NAMES))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "meta": meta,
        "extras": extras,
        "checks": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "failed_trials": [f"m={r.m} trial={r.trial}: {r.error}" for r in failed_trials],
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")

    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    for line in report["failed_trials"]:
        print(f"trial FAIL {line}")
    for key in ("trials", "units", "wall_s", "calib_ms", "calib_samples", "raw_trials_per_s",
                "raw_steps_per_s", "raw_trial_ms_p50", "trial_ms_p90", "failed_frac", "digest",
                "spans", "traced_peak_rss_mb"):
        if key in extras:
            note = f" (n={extras['trials']})" if key == "trial_ms_p90" else ""
            print(f"{key} = {extras[key]}{note}")
    print("meta = " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} = {float(value)!r} {unit}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
