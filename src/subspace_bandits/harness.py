"""Experiment runner and CLI.

A sweep runs ``trials`` seeded repetitions of a learner at each sample budget
in ``m_values`` and writes one CSV row per trial.  The excess-loss column is
a pure function of (config, base seed): each trial's seed is derived as
``mix64(base_seed, m, trial_index)``, the trial owns its generator stream,
and trials never share mutable state, so serial and parallel executions are
bit-identical and adding sweep points never perturbs existing trials.

CLI subcommands:

* ``run``   -- run a sweep from a JSON config and/or inline flags, emit CSV.
* ``fixtures`` -- materialize a distribution reference (``run --dist``'s
  grammar) to JSON.
* ``demo-lower-bounds`` -- the two lower-bound demonstrations: the
  single-attribute marginal-identity check and the dyadic no-signal
  failure-rate run.

Exit code 0 on success, 1 when a ``run`` trial failed or the lower-bound
demonstrations' verdict is UNEXPECTED, 2 on configuration/usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
import warnings
from dataclasses import dataclass, fields
from itertools import repeat
from operator import attrgetter, index

import numpy as np

from .domain import DomainSpec
from .errors import AlphaTooLarge, BudgetNotTwo, ConfigError, SubspaceBanditError
from .estimators import _check_split_budget
from .evaluation import excess_loss
from .learners import (
    LearnerConfig,
    bandit_pca,
    full_info_pca,
    mbeg,
    mbeg_rates,
    mbgd,
)
from .oracles import (
    DistributionSpec,
    coin_fixture,
    default_coin_basis,
    dyadic_fixture,
    from_jsonable,
    impossibility_fixture,
    load_distribution,
    observe,  # noqa: F401  (bench/tests check harness.observe as a traced binding)
    observe_block,
    sample_instances,
    save_distribution,
    to_jsonable,
    validate_distribution,
)
from .seeding import make_rng, mix64

ALGORITHMS = ("bandit-pca", "mbgd", "mbeg", "pca")


def _check_fits(dist: DistributionSpec, domain: DomainSpec) -> None:
    try:
        validate_distribution(dist, domain)
    except SubspaceBanditError as exc:
        raise ConfigError(f"distribution incompatible with domain: {exc}") from exc


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """One sweep: domain, distribution, algorithm, budgets, trials, seeding."""

    domain: DomainSpec
    distribution: DistributionSpec
    algo: str
    m_values: tuple[int, ...]
    trials: int
    base_seed: int
    eta_override: float | None = None
    alpha_override: float | None = None
    output_path: str | None = None

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ConfigError(f"unknown algo {self.algo!r}; choose from {ALGORITHMS}")
        if not self.m_values:
            raise ConfigError("m_values must be non-empty")
        repeated = [m for i, m in enumerate(self.m_values) if m in self.m_values[:i]]
        if repeated:
            raise ConfigError(f"sample budget m={repeated[0]} repeats in m_values {self.m_values}")
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        overrides = (self.eta_override, self.alpha_override)
        try:
            learner_configs = [LearnerConfig(self.domain, m, *overrides) for m in self.m_values]
            if self.algo in ("bandit-pca", "mbgd"):
                _check_split_budget(self.domain.r)
        except ValueError as exc:  # OddBudget is a ValueError
            raise ConfigError(str(exc)) from exc
        _check_fits(self.distribution, self.domain)
        if self.algo == "mbeg":
            for lcfg in learner_configs:
                try:
                    mbeg_rates(lcfg)
                except (AlphaTooLarge, BudgetNotTwo) as exc:
                    raise ConfigError(f"mbeg: {exc}") from exc


@dataclass(slots=True)
class TrialRecord:
    algo: str
    d: int
    k: int
    r: int
    G: float
    m: int
    trial: int
    seed: int
    excess_loss: float
    loss: float
    wall_ms: float
    error: str | None = None


# The CSV columns are the record's fields but ``error``, in field order; a
# column's annotation picks its parser and its format (reals at 17 digits).
_COLUMNS = [f for f in fields(TrialRecord) if f.name != "error"]
_CODECS = {"str": (str, ""), "int": (int, ""), "float": (float, ".17g")}
CSV_HEADER = ",".join(f.name for f in _COLUMNS)
_row_values = attrgetter(*(f.name for f in _COLUMNS))
_PARSERS, _FORMATS = zip(*(_CODECS[f.type] for f in _COLUMNS))


def run_trial(cfg: ExperimentConfig, m: int, trial_index: int) -> TrialRecord:
    """Run one seeded trial; learner errors become a failed record, not a crash."""
    seed = mix64(cfg.base_seed, m, trial_index)
    spec = cfg.domain
    lcfg = LearnerConfig(
        spec=spec, m=m, eta_override=cfg.eta_override, alpha_override=cfg.alpha_override,
        seed=seed,
    )
    start = time.perf_counter()
    excess = value = math.nan
    error = None
    try:
        if cfg.algo == "pca":
            rng = make_rng(seed)
            samples = sample_instances(cfg.distribution, m, rng)
            pi = full_info_pca(samples, spec.k)
        elif cfg.algo == "bandit-pca":
            pi = bandit_pca(cfg.distribution, lcfg)
        elif cfg.algo == "mbgd":
            pi = mbgd(cfg.distribution, lcfg)
        else:
            pi = mbeg(cfg.distribution, lcfg)
        report = excess_loss(pi, cfg.distribution.moments, spec.k)
        excess = report.excess
        value = report.loss
    except SubspaceBanditError as exc:
        error = f"{type(exc).__name__}: {exc}"
    wall_ms = (time.perf_counter() - start) * 1e3
    return TrialRecord(
        algo=cfg.algo, d=spec.d, k=spec.k, r=spec.r, G=spec.G, m=m, trial=trial_index,
        seed=seed, excess_loss=excess, loss=value, wall_ms=wall_ms, error=error,
    )


def run_sweep(cfg: ExperimentConfig, workers: int | None = None) -> list[TrialRecord]:
    """All (m, trial) cells, optionally across processes; output sorted by (m, trial).

    Parallelism is across trials only; each trial owns its generator stream,
    so the records are identical whatever the execution order.
    """
    budgets, indices = zip(*((m, t) for m in cfg.m_values for t in range(cfg.trials)))
    if workers is not None and workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(run_trial, repeat(cfg), budgets, indices, chunksize=8))
    else:
        records = list(map(run_trial, repeat(cfg), budgets, indices))
    records.sort(key=lambda rec: (rec.m, rec.trial))
    return records


def _csv_row(rec: TrialRecord) -> str:
    """One CSV line for a record, in the column order of ``CSV_HEADER``."""
    return ",".join(map(format, _row_values(rec), _FORMATS)) + "\n"


def _write_csv(fh, records) -> None:
    fh.write(CSV_HEADER + "\n")
    for rec in records:
        fh.write(_csv_row(rec))


def emit_csv(records, path) -> None:
    """Write records with the fixed header; reals carry 17 significant digits."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            _write_csv(fh, records)
    except OSError as exc:
        raise ConfigError(f"cannot write CSV to {path!r}: {exc}") from exc


def parse_csv(path) -> list[TrialRecord]:
    """Read back a CSV produced by :func:`emit_csv`."""
    records = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header in {path!r}: {header}")
        for line in fh:
            if line.strip():
                cells = zip(_PARSERS, line.strip().split(","), strict=True)
                records.append(TrialRecord(*(parse(cell) for parse, cell in cells)))
    return records


# ---------------------------------------------------------------------------
# Distribution references and config files
# ---------------------------------------------------------------------------

def _parse_kv(argstr: str) -> dict:
    out = {}
    if argstr:
        for part in argstr.split(","):
            key, _, value = part.partition("=")
            if not _:
                raise ConfigError(f"malformed distribution argument {part!r}")
            key = key.strip()
            if key in out:
                raise ConfigError(f"distribution argument {key!r} given twice")
            out[key] = value.strip()
    return out


def parse_dist_ref(ref: str | dict, d: int, k: int, G: float) -> DistributionSpec:
    """Resolve a distribution reference for dimension d, rank k and squared-norm bound G.

    Accepts a fixture document (the dict ``to_jsonable`` writes), a path to
    a fixture JSON file, or an inline form:
    ``pointmass[:coord=I]``, ``impossibility:s=I``,
    ``dyadic:s=I,eps=X[,c=X]``, ``coin:alpha=X[,b=+-...]``.
    Coordinates are 0-based.  A missing, repeated or unused argument, or a
    document or file that does not hold a distribution, is a ``ConfigError``.
    """
    if not isinstance(ref, str) or ref.endswith(".json") or os.path.exists(ref):
        is_path = isinstance(ref, str)
        try:
            return load_distribution(ref) if is_path else from_jsonable(ref)
        except (KeyError, TypeError, ValueError) as exc:
            where = f"fixture file {ref!r}" if is_path else "config field 'distribution'"
            raise ConfigError(
                f"{where} is not a distribution: {type(exc).__name__}: {exc}"
            ) from exc
    name, _, argstr = ref.partition(":")
    kv = _parse_kv(argstr)
    try:
        if name == "pointmass":
            coord = int(kv.pop("coord", 0))
            if not 0 <= coord < d:
                raise ConfigError(f"pointmass coordinate {coord} outside [0, {d})")
            x = np.zeros((1, d))
            x[0, coord] = min(1.0, math.sqrt(G))
            dist = DistributionSpec(d, x, np.ones(1), tag=f"pointmass(coord={coord})")
        elif name == "impossibility":
            dist = impossibility_fixture(d, G, s=int(kv.pop("s")))
        elif name == "dyadic":
            dist = dyadic_fixture(
                d, s=int(kv.pop("s")), eps=float(kv.pop("eps")), c=float(kv.pop("c", 4.0))
            )
        elif name == "coin":
            alpha = float(kv.pop("alpha"))
            b = kv.pop("b", "+" * k)
            if set(b) - {"+", "-"}:
                raise ConfigError(f"coin signs must be a string of '+' and '-', got {b!r}")
            signs = [1.0 if ch == "+" else -1.0 for ch in b]
            dist = coin_fixture(d, k, G, alpha, signs, default_coin_basis(d, k, G))
        else:
            raise ConfigError(f"unknown distribution reference {ref!r}")
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad distribution reference {ref!r}: {exc}") from exc
    if kv:
        raise ConfigError(f"unused distribution arguments {sorted(kv)} in {ref!r}")
    return dist


_REQUIRED = object()


def _field(doc, name: str, default=_REQUIRED):
    """The value of the dotted field ``name`` of a config document, or ``default`` if absent."""
    node, path = doc, []
    for key in name.split("."):
        if not isinstance(node, dict):
            where = f"config field {'.'.join(path)!r}" if path else "config document"
            raise ConfigError(f"{where} must be a JSON object, got {node!r}")
        path.append(key)
        if key not in node:
            if default is _REQUIRED:
                raise ConfigError(f"config field {name!r} is missing")
            return default
        node = node[key]
    return node


def _number(value, name: str, kind=float):
    """``kind(value)`` (``float`` or ``operator.index``); JSON true/false is not a number."""
    if not isinstance(value, bool):
        try:
            return kind(value)
        except (TypeError, ValueError):
            pass
    what = "an integer" if kind is index else "a number"
    raise ConfigError(f"config field {name!r} must be {what}, got {value!r}")


def config_from_dict(doc: dict) -> ExperimentConfig:
    """Build a config from a JSON-style dict mirroring the field names.

    Every error is a ``ConfigError`` that names the field (``domain.d``,
    ``m_values[1]``, ...) and says why it was refused.
    """
    d, k, r = (_number(_field(doc, f"domain.{key}"), f"domain.{key}", index) for key in "dkr")
    G = _number(_field(doc, "domain.G"), "domain.G")
    try:
        domain = DomainSpec(d, k, r, G)
    except ValueError as exc:
        raise ConfigError(f"config field 'domain': {exc}") from exc
    dist = parse_dist_ref(_field(doc, "distribution"), domain.d, domain.k, domain.G)
    m_values = _field(doc, "m_values")
    if not isinstance(m_values, (list, tuple)):
        raise ConfigError(f"config field 'm_values' must be a list of integers, got {m_values!r}")
    eta, alpha = (_field(doc, f"overrides.{key}", None) for key in ("eta", "alpha"))
    output_path = _field(doc, "output_path", None)
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"config field 'output_path' must be a string, got {output_path!r}")
    return ExperimentConfig(
        domain=domain,
        distribution=dist,
        algo=str(_field(doc, "algo")),
        m_values=tuple(_number(m, f"m_values[{i}]", index) for i, m in enumerate(m_values)),
        trials=_number(_field(doc, "trials"), "trials", index),
        base_seed=_number(_field(doc, "base_seed"), "base_seed", index),
        eta_override=None if eta is None else _number(eta, "overrides.eta"),
        alpha_override=None if alpha is None else _number(alpha, "overrides.alpha"),
        output_path=output_path,
    )


# ---------------------------------------------------------------------------
# Lower-bound demonstrations
# ---------------------------------------------------------------------------

def marginal_identity_check(d: int = 4, G: float = 1.0, mc_draws: int = 20000, seed: int = 0):
    """Single-attribute no-information check.

    Exact part: enumerate the two-point support of every planted coordinate s
    and verify that each single-coordinate marginal is uniform on
    {-sqrt(G/d), +sqrt(G/d)}, identical across s.  Monte-Carlo part: for each
    (s, i), read coordinate i of ``mc_draws`` draws (one uniform each, as
    :func:`observe` takes) and compare the frequency of a positive reading
    to 1/2.
    """
    level = math.sqrt(G / d)
    expected = {round(level, 15): 0.5, round(-level, 15): 0.5}
    exact_ok = True
    worst_dev = 0.0
    rng = make_rng(seed)
    for s in range(d):
        dist = impossibility_fixture(d, G, s)
        for i in range(d):
            marginal = {}
            for value, p in zip(dist.points[:, i], dist.probs):
                key = round(value, 15)
                marginal[key] = marginal.get(key, 0.0) + p
            exact_ok = exact_ok and marginal == expected
            hits = int(np.count_nonzero(observe_block(dist, i, rng.random(mc_draws)) > 0))
            worst_dev = max(worst_dev, abs(hits / mc_draws - 0.5))
    return {"exact_identical": exact_ok, "mc_worst_deviation": worst_dev, "mc_draws": mc_draws}


_DEMO_EPS, _DEMO_C = 0.05, 4.0


def dyadic_demo_config(trials: int = 500, seed: int = 7) -> ExperimentConfig:
    """The dyadic demo's starved sweep: mbgd, d=20, planted s=0, eps=0.05, c=4, m=200."""
    return ExperimentConfig(
        domain=DomainSpec(d=20, k=1, r=2, G=1.0),
        distribution=dyadic_fixture(20, s=0, eps=_DEMO_EPS, c=_DEMO_C),
        algo="mbgd", m_values=(200,), trials=trials, base_seed=seed,
    )


def dyadic_no_signal_demo(trials: int = 500, seed: int = 7, workers: int | None = None):
    """Failure rate of mbgd on the planted-coordinate distribution at a starved budget.

    With r = 2 the chance a single step observes an informative pair is
    (c*eps)/d^2, so at m << d^2/(r^2 eps) most runs see no signal at all and
    the sampled projector is essentially uniform over coordinates.  A trial
    that raised is not a failure of the learner: its error is listed under
    ``errors``, and any such trial makes the demo's verdict UNEXPECTED.
    """
    cfg = dyadic_demo_config(trials, seed)
    d, m, eps = cfg.domain.d, cfg.m_values[0], _DEMO_EPS
    records = run_sweep(cfg, workers=workers)
    failures = sum(1 for rec in records if rec.excess_loss > eps)
    p_no_signal = (1 - _DEMO_C * eps / d**2) ** m
    return {
        "trials": trials,
        "m": m,
        "failure_fraction": failures / trials,
        "predicted_no_signal_probability": p_no_signal,
        "threshold": eps,
        "errors": [f"trial {rec.trial}: {rec.error}" for rec in records if rec.error is not None],
    }


def run_lower_bound_demos(seed: int = 7, trials: int = 500, workers: int | None = None) -> int:
    summary_a = marginal_identity_check(seed=seed)
    summary_b = dyadic_no_signal_demo(trials=trials, seed=seed, workers=workers)
    print("lower-bound demonstrations")
    print("-" * 62)
    print(
        f"single-attribute marginals identical (exact enumeration): "
        f"{summary_a['exact_identical']}"
    )
    print(
        f"  MC frequency deviation from 1/2 over {summary_a['mc_draws']} draws: "
        f"{summary_a['mc_worst_deviation']:.4f}"
    )
    print(
        f"dyadic no-signal run (d=20, r=2, eps={summary_b['threshold']:g}, "
        f"m={summary_b['m']}, {summary_b['trials']} trials):"
    )
    print(f"  fraction of trials with excess > eps: {summary_b['failure_fraction']:.3f}")
    print(
        f"  predicted probability of an all-zero signal: "
        f"{summary_b['predicted_no_signal_probability']:.3f}"
    )
    errors = summary_b["errors"]
    print(f"  trials that raised an error: {len(errors)}")
    for error in errors:
        print(f"    {error}")
    ok = summary_a["exact_identical"] and summary_b["failure_fraction"] >= 0.75 and not errors
    print("-" * 62)
    print("verdict:", "as predicted" if ok else "UNEXPECTED")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

# Each inline ``run`` flag: its name, the config-document field it overrides
# (dotted for nested fields) and its argparse options, in ``--help`` order.
_RUN_FLAGS = (
    ("algo", "algo", {"choices": ALGORITHMS}),
    ("d", "domain.d", {"type": int}),
    ("k", "domain.k", {"type": int}),
    ("r", "domain.r", {"type": int}),
    ("G", "domain.G", {"type": float}),
    ("m", "m_values", {"type": int, "nargs": "+", "help": "one or more sample budgets"}),
    ("trials", "trials", {"type": int}),
    ("seed", "base_seed", {"type": int}),
    ("dist", "distribution", {"help": "fixture reference or JSON path"}),
    ("out", "output_path", {"help": "CSV output path (defaults to config output_path)"}),
    ("eta", "overrides.eta", {"type": float, "help": "step-size override"}),
    ("alpha", "overrides.alpha", {"type": float, "help": "mixing-weight override (mbeg)"}),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subspace-bandits",
        description="Budgeted subspace-learning experiments (coordinates are 0-based).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a sweep and emit CSV")
    run_p.add_argument("--config", help="JSON config file; flags below override its fields")
    for flag, _, options in _RUN_FLAGS:
        run_p.add_argument(f"--{flag}", **options)
    run_p.add_argument("--workers", type=int, default=1, help="parallel trial processes")

    fix_p = sub.add_parser("fixtures", help="materialize a distribution reference to JSON")
    fix_p.add_argument("ref", help="inline reference as for run --dist, e.g. dyadic:s=1,eps=0.1")
    fix_p.add_argument("--d", type=int, required=True)
    fix_p.add_argument("--k", type=int, default=1)
    fix_p.add_argument("--G", type=float, default=1.0)
    fix_p.add_argument("--out", default=None,
                       help="output path, default <name>.json; '-' prints to stdout")

    demo_p = sub.add_parser("demo-lower-bounds", help="run the lower-bound demonstrations")
    demo_p.add_argument("--seed", type=int, default=7)
    demo_p.add_argument("--trials", type=int, default=500)
    demo_p.add_argument("--workers", type=int, default=1)
    return parser


def _cmd_run(args) -> int:
    doc = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config file {args.config!r} is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError(f"config file {args.config!r} must hold a JSON object")
    for flag, field, _ in _RUN_FLAGS:
        *parents, key = field.split(".")
        node = doc
        for parent in parents:
            node = node.setdefault(parent, {})
        if getattr(args, flag) is not None:
            if not isinstance(node, dict):
                raise ConfigError(f"config field {parents[0]!r} must be a JSON object")
            node[key] = getattr(args, flag)

    cfg = config_from_dict(doc)
    records = run_sweep(cfg, workers=args.workers)
    failed = [rec for rec in records if rec.error is not None]
    if cfg.output_path:
        emit_csv(records, cfg.output_path)
        print(f"wrote {len(records)} records to {cfg.output_path}")
    else:
        _write_csv(sys.stdout, records)
    for m in cfg.m_values:
        cell = [rec.excess_loss for rec in records if rec.m == m and rec.error is None]
        lost = sum(rec.m == m for rec in failed)
        line = (f"m={m}: mean excess {math.fsum(cell) / len(cell):.4g} over {len(cell)} trials"
                if cell else f"m={m}: no trial finished")
        if lost:
            line += f", {lost} failed"
        print(line, file=sys.stderr)
    for rec in failed:
        print(f"trial (m={rec.m}, trial={rec.trial}) failed: {rec.error}", file=sys.stderr)
    return 1 if failed else 0


def _cmd_fixtures(args) -> int:
    # The same domain check as run's; the attribute budget r plays no part in
    # it, and a fixture has no sample size for DomainSpec's k <= sqrt(d) warning.
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            domain = DomainSpec(args.d, args.k, 1, args.G)
    except ValueError as exc:
        raise ConfigError(f"fixture domain: {exc}") from exc
    dist = parse_dist_ref(args.ref, args.d, args.k, args.G)
    _check_fits(dist, domain)
    name = dist.tag.partition("(")[0]  # the construction, "custom" for a hand-made file
    out = args.out if args.out is not None else f"{name}.json"
    if out == "-":
        json.dump(to_jsonable(dist), sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        save_distribution(dist, out)
        print(f"wrote fixture {dist.tag} to {out}")
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "fixtures":
            return _cmd_fixtures(args)
        return run_lower_bound_demos(seed=args.seed, trials=args.trials, workers=args.workers)
    except (SubspaceBanditError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(cli_main())
