"""Acceptance suite: one test per criterion, each reporting a pass/fail line.

Every expected value is either derived from an independent oracle computed
here (enumeration, active-set brute force, scalar bisection) or checked
against the exact finite-support moments; tolerances and runtime limits are
pinned in the tests.
"""

import itertools
import time

import numpy as np
import pytest

from subspace_bandits.domain import DomainSpec
from subspace_bandits.estimators import (
    draw_uniform_indices,
    estimate_sym,
    importance_weight,
    pair_price,
    split_half_sum,
    split_halves,
)
from subspace_bandits.decomposition import decompose, sample_component
from subspace_bandits.harness import (
    ExperimentConfig,
    dyadic_demo_config,
    marginal_identity_check,
    run_sweep,
)
from subspace_bandits.learners import (
    LearnerConfig,
    capped_simplex_project,
    entropic_project,
    mbeg,
)
from subspace_bandits.oracles import (
    coin_fixture,
    default_coin_basis,
    dyadic_fixture,
    impossibility_fixture,
    make_finite_support,
)
from subspace_bandits.seeding import make_rng, mix64

from util import (
    StubDraws,
    bisection_entropic,
    brute_force_capped_projection,
    random_hull_element,
    spectral_norm,
)


def obs_from(x, indices):
    """The (indices, readings) of one step that asks ``x`` for ``indices``."""
    return indices, np.asarray(x, dtype=float)[list(indices)]


# ---------------------------------------------------------------------------
# Shared sweeps (reused by the determinism criterion)
# ---------------------------------------------------------------------------

MBGD_CFG = dict(
    domain=DomainSpec(d=10, k=1, r=2, G=1.0),
    dist=dict(d=10, s=3, eps=0.25, c=4.0),
    m=6400,
    trials=50,
    base_seed=7,
)

MBEG_CFG = dict(
    domain=DomainSpec(d=8, k=1, r=2, G=1.0),
    dist=dict(d=8, s=1, eps=0.25, c=4.0),
    m=1100,
    trials=50,
    base_seed=7,
)

def _experiment(entry, algo):
    return ExperimentConfig(
        domain=entry["domain"],
        distribution=dyadic_fixture(**entry["dist"]),
        algo=algo,
        m_values=(entry["m"],),
        trials=entry["trials"],
        base_seed=entry["base_seed"],
    )


PCA_RATE_M = (200, 800, 3200, 12800)


def _pca_rate_configs():
    """One coin per budget, with bias alpha_m = 1/sqrt(m) (Le Cam's two-point
    argument).

    For k = 2 the favoured-minus-disfavoured count gap of a coin is about
    m * alpha / 2 with standard deviation about sqrt(m / 2), so alpha * sqrt(m)
    = 1 holds the chance of a wrong pick constant across m; each wrong pick
    costs G * alpha / k, so the mean excess is Theta(m^-1/2).  A fixed bias
    would instead be identified with probability 1 - exp(-Theta(m)) and show
    no polynomial rate.  Each config sweeps its single budget under the same
    base seed, so trial seeds are mix64(7, m, t) as in one joint sweep.
    """
    domain = DomainSpec(d=8, k=2, r=2, G=1.0)
    basis = default_coin_basis(8, 2, 1.0)
    return [
        ExperimentConfig(
            domain=domain,
            distribution=coin_fixture(8, 2, 1.0, 1.0 / np.sqrt(m), [1.0, 1.0], basis),
            algo="pca",
            m_values=(m,),
            trials=50,
            base_seed=7,
        )
        for m in PCA_RATE_M
    ]


@pytest.fixture(scope="module")
def mbgd_sweep():
    cfg = _experiment(MBGD_CFG, "mbgd")
    return cfg, run_sweep(cfg)


@pytest.fixture(scope="module")
def mbeg_sweep():
    cfg = _experiment(MBEG_CFG, "mbeg")
    return cfg, run_sweep(cfg)


@pytest.fixture(scope="module")
def demo_sweep():
    cfg = dyadic_demo_config()
    return cfg, run_sweep(cfg)


@pytest.fixture(scope="module")
def pca_rate_sweep():
    return [(cfg, run_sweep(cfg)) for cfg in _pca_rate_configs()]


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def test_criterion_01_exact_estimator_unbiasedness(criterion_report):
    start = time.perf_counter()
    x = np.array([1.0, -1.0, 0.5, 0.0])
    worst = 0.0
    for r in (2, 4):
        spec = DomainSpec(d=4, k=1, r=r, G=2.25)
        total = np.zeros((4, 4))
        count = 0
        for tup in itertools.product(range(4), repeat=r):
            total += estimate_sym(split_halves(*obs_from(x, tup), spec)).to_dense()
            count += 1
        worst = max(worst, float(np.max(np.abs(total / count - np.outer(x, x)))))
        # The block engine bandit_pca runs, fed every index tuple as one block
        # of steps; a point mass at x makes every oracle draw x.
        tuples = np.array(list(itertools.product(range(4), repeat=r)))
        point = make_finite_support([(x, 1.0)], spec, tag="point")
        engine = split_half_sum(point, spec, count, StubDraws(tuples, np.zeros(count)))
        worst = max(worst, float(np.max(np.abs(engine / count - np.outer(x, x)))))

    # The price and the weight mbeg runs, at every ordered pair; the prices
    # form a probability table, so the sum is the estimate's expectation.
    rng = make_rng(101)
    for _ in range(20):
        lam = capped_simplex_project(rng.random(4) * 1.5, 1)
        alpha = float(rng.uniform(0.05, 0.5))
        table = pair_price(lam[:, None], lam[None, :], 4, alpha, 1)
        assert abs(float(table.sum()) - 1.0) <= 1e-12
        total = np.zeros((4, 4))
        for s in range(4):
            for q in range(4):
                p = float(table[s, q])
                v = importance_weight(s, q, x[s] * x[q], p)
                total[s, q] += p * v
                if s != q:
                    total[q, s] += p * v
        worst = max(worst, float(np.max(np.abs(total - np.outer(x, x)))))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 1.0
    criterion_report(
        f"criterion 01 exact estimator unbiasedness: worst deviation {worst:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert worst <= 1e-10
    assert elapsed < 1.0


def test_criterion_02_split_half_norm_bound(criterion_report):
    start = time.perf_counter()
    d, G = 6, 1.0
    spec = DomainSpec(d=d, k=1, r=2, G=G)
    bound = 4 * d**2 * G / 4  # = 36
    rng = make_rng(102)
    worst = 0.0
    for _ in range(100_000):
        x = rng.standard_normal(d)
        x /= np.linalg.norm(x)  # the G = 1 sphere sits inside the unit cube
        idx = draw_uniform_indices(d, 2, rng)
        est = estimate_sym(split_halves(*obs_from(x, idx), spec))
        worst = max(worst, spectral_norm(est.to_dense()))
    elapsed = time.perf_counter() - start
    ok = worst <= bound + 1e-9 and elapsed < 10.0
    criterion_report(
        f"criterion 02 split-half norm bound: max norm {worst:.4f} <= {bound:g}, "
        f"{elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert worst <= bound + 1e-9
    assert elapsed < 10.0


def test_criterion_03_projection_oracles(criterion_report):
    start = time.perf_counter()
    rng = make_rng(103)
    worst_capped = 0.0
    for _ in range(500):
        d = int(rng.integers(2, 7))
        k = int(rng.integers(1, min(3, d) + 1))
        lam = rng.uniform(-2.0, 4.0, size=d)
        out = capped_simplex_project(lam, k)
        ref = brute_force_capped_projection(lam, k)
        worst_capped = max(worst_capped, float(np.max(np.abs(out - ref))))

    worst_entropic = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        k = int(rng.integers(1, d + 1))
        mu = rng.uniform(1e-4, 10.0, size=d)
        out = entropic_project(mu, k)
        ref = bisection_entropic(mu, k)
        worst_entropic = max(worst_entropic, float(np.max(np.abs(out - ref))))

    elapsed = time.perf_counter() - start
    ok = worst_capped <= 1e-8 and worst_entropic <= 1e-6 and elapsed < 30.0
    criterion_report(
        f"criterion 03 projection oracles: capped dev {worst_capped:.2e} (tol 1e-8), "
        f"entropic dev {worst_entropic:.2e} (tol 1e-6), {elapsed:.1f}s -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert worst_capped <= 1e-8
    assert worst_entropic <= 1e-6
    assert elapsed < 30.0


def test_criterion_04_decomposition(criterion_report):
    start = time.perf_counter()
    rng = make_rng(104)
    worst_recon = 0.0
    worst_weight_sum = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 9))
        k = int(rng.integers(1, min(3, d) + 1))
        h = random_hull_element(rng, d, k)
        mix = decompose(h, k)
        assert mix.size <= d
        w = mix.weights
        assert w.min() >= -1e-12
        worst_weight_sum = max(worst_weight_sum, abs(float(w.sum()) - 1.0))
        worst_recon = max(worst_recon, float(np.max(np.abs(mix.reconstruct() - h))))
        for _, proj in mix.components:
            assert proj.rank == k
            assert np.max(np.abs(proj.matrix @ proj.matrix - proj.matrix)) <= 1e-8
            assert abs(np.trace(proj.matrix) - k) <= 1e-8
    elapsed = time.perf_counter() - start
    ok = worst_recon <= 1e-8 and worst_weight_sum <= 1e-9 and elapsed < 30.0
    criterion_report(
        f"criterion 04 decomposition: recon dev {worst_recon:.2e} (tol 1e-8), "
        f"weight-sum dev {worst_weight_sum:.2e} (tol 1e-9), {elapsed:.1f}s -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert worst_recon <= 1e-8
    assert worst_weight_sum <= 1e-9
    assert elapsed < 30.0


def test_criterion_05_mbgd_end_to_end(criterion_report, mbgd_sweep):
    start = time.perf_counter()
    _, records = mbgd_sweep
    assert all(rec.error is None for rec in records)
    mean_excess = float(np.mean([rec.excess_loss for rec in records]))
    elapsed = time.perf_counter() - start + sum(r.wall_ms for r in records) / 1e3
    ok = mean_excess <= 0.25 and elapsed < 120.0
    criterion_report(
        f"criterion 05 mbgd end-to-end: mean excess {mean_excess:.4f} <= 0.25 over "
        f"50 seeds, {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert mean_excess <= 0.25
    assert elapsed < 120.0


def test_criterion_06_mbeg_end_to_end(criterion_report, mbeg_sweep):
    start = time.perf_counter()
    cfg, records = mbeg_sweep
    assert all(rec.error is None for rec in records)
    mean_excess = float(np.mean([rec.excess_loss for rec in records]))

    # hull membership of every iterate, for every seed of the sweep
    entry = MBEG_CFG
    dist = dyadic_fixture(**entry["dist"])
    worst_trace_err = 0.0
    worst_overshoot = 0.0
    for t in range(entry["trials"]):
        seed = mix64(entry["base_seed"], entry["m"], t)
        lcfg = LearnerConfig(spec=entry["domain"], m=entry["m"], seed=seed)
        _, trace = mbeg(dist, lcfg, return_trace=True)
        assert trace.hull.shape == (entry["m"], 3)
        trace_err, w_min, w_max = trace.hull.T
        worst_trace_err = max(worst_trace_err, float(trace_err.max()))
        worst_overshoot = max(worst_overshoot, float(-w_min.min()), float(w_max.max() - 1.0))
    elapsed = time.perf_counter() - start + sum(r.wall_ms for r in records) / 1e3
    hull_ok = worst_trace_err <= 1e-8 and worst_overshoot <= 1e-8
    ok = mean_excess <= 0.25 and hull_ok and elapsed < 180.0
    criterion_report(
        f"criterion 06 mbeg end-to-end: mean excess {mean_excess:.4f} <= 0.25 over "
        f"50 seeds, worst iterate trace err {worst_trace_err:.1e} / overshoot "
        f"{worst_overshoot:.1e} (tol 1e-8), {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert mean_excess <= 0.25
    assert hull_ok
    assert elapsed < 180.0


def test_criterion_07_single_attribute_impossibility(criterion_report):
    start = time.perf_counter()
    d, G = 4, 1.0
    level = np.sqrt(G / d)  # = 1/2

    # exact support enumeration: the marginal of every coordinate is the same
    # two-point law {-1/2, +1/2} with equal mass, for every planted s
    exact_ok = True
    for s in range(d):
        dist = impossibility_fixture(d, G, s)
        for i in range(d):
            marginal = sorted(
                (round(float(v), 15), float(p)) for v, p in zip(dist.points[:, i], dist.probs)
            )
            if marginal != [(-level, 0.5), (level, 0.5)]:
                exact_ok = False

    # Monte Carlo through the oracle, as the shipped demo runs it: 1e5
    # single-coordinate draws per (s, i), one uniform each, from seed 107
    # (test_harness checks it against scalar observe calls on the same stream)
    demo = marginal_identity_check(d=d, G=G, mc_draws=100_000, seed=107)
    worst_dev = demo["mc_worst_deviation"]
    elapsed = time.perf_counter() - start
    ok = exact_ok and demo["exact_identical"] and worst_dev <= 0.01 and elapsed < 10.0
    criterion_report(
        f"criterion 07 single-attribute impossibility: exact marginals identical "
        f"{exact_ok}, MC deviation {worst_dev:.4f} <= 0.01, {elapsed:.1f}s -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert exact_ok and demo["exact_identical"]
    assert worst_dev <= 0.01
    assert elapsed < 10.0


def test_criterion_08_dyadic_lower_bound_demo(criterion_report, demo_sweep):
    start = time.perf_counter()
    _, records = demo_sweep
    eps = 0.05  # the demo's planted eps, pinned here so a library edit cannot move it
    failures = sum(1 for rec in records if rec.excess_loss > eps)
    fraction = failures / len(records)
    # a trial that raised has NaN excess, so it would count as a non-failure
    errors = [rec.error for rec in records if rec.error is not None]
    elapsed = time.perf_counter() - start + sum(r.wall_ms for r in records) / 1e3
    ok = fraction >= 0.75 and elapsed < 60.0 and not errors
    criterion_report(
        f"criterion 08 dyadic lower-bound demo: failure fraction {fraction:.3f} >= 0.75 "
        f"over 500 starved trials, {elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert errors == []
    assert fraction >= 0.75
    assert elapsed < 60.0


def test_criterion_09_full_info_baseline_rate(criterion_report, pca_rate_sweep):
    start = time.perf_counter()
    alphas, means, misses = [], [], []
    for cfg, records in pca_rate_sweep:
        excess = np.array([r.excess_loss for r in records])
        alphas.append(cfg.distribution.coin.alpha)
        means.append(float(np.mean(excess)))
        misses.append(float(np.mean(excess > 0)))
    if all(mu > 0 for mu in means):
        slope = float(np.polyfit(np.log(PCA_RATE_M), np.log(means), 1)[0])
    else:
        slope = float("nan")
    wall_s = sum(r.wall_ms for _, records in pca_rate_sweep for r in records) / 1e3
    elapsed = time.perf_counter() - start + wall_s
    ok = -0.65 <= slope <= -0.35 and elapsed < 60.0
    cells = ", ".join(
        f"m={m} alpha={a:.4f} excess {mu:.2e} miss {f:.2f}"
        for m, a, mu, f in zip(PCA_RATE_M, alphas, means, misses)
    )
    criterion_report(
        f"criterion 09 full-information baseline rate (alpha_m = 1/sqrt(m)): {cells}; "
        f"log-log slope {slope:.3f} (target [-0.65, -0.35]), {elapsed:.1f}s -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert -0.65 <= slope <= -0.35, (
        f"log-log slope of mean excess over m={PCA_RATE_M} is {slope} "
        f"(target [-0.65, -0.35]); mean excess by m: {means}, miss fraction by m: {misses}"
    )
    assert elapsed < 60.0


def test_criterion_10_expected_output_identity(criterion_report):
    start = time.perf_counter()
    rng = make_rng(110)
    worst = 0.0
    for _ in range(20):
        h = random_hull_element(rng, 6, 2)
        mix = decompose(h, 2)
        total = np.zeros((6, 6))
        n = 10_000
        for _ in range(n):
            total += sample_component(mix, rng).matrix
        worst = max(worst, float(np.max(np.abs(total / n - h))))
    elapsed = time.perf_counter() - start
    ok = worst <= 0.02 and elapsed < 30.0
    criterion_report(
        f"criterion 10 expected-output identity: worst mean deviation {worst:.4f} "
        f"<= 0.02 over 20 elements x 1e4 samples, {elapsed:.1f}s -> "
        f"{'PASS' if ok else 'FAIL'}"
    )
    assert worst <= 0.02
    assert elapsed < 30.0


def test_criterion_11_determinism(
    criterion_report, mbgd_sweep, mbeg_sweep, demo_sweep, pca_rate_sweep
):
    start = time.perf_counter()
    mismatches = []
    sweeps = [
        ("mbgd serial", mbgd_sweep, None),
        ("mbgd parallel", mbgd_sweep, 2),
        ("mbeg serial", mbeg_sweep, None),
        ("dyadic-demo parallel", demo_sweep, 2),
    ] + [(f"pca-rate m={m} serial", sweep, None) for m, sweep in zip(PCA_RATE_M, pca_rate_sweep)]
    for name, (cfg, records), workers in sweeps:
        replay = run_sweep(cfg, workers=workers)
        original = [(r.m, r.trial, r.seed, r.excess_loss) for r in records]
        repeated = [(r.m, r.trial, r.seed, r.excess_loss) for r in replay]
        if original != repeated:
            mismatches.append(name)
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 120.0
    criterion_report(
        f"criterion 11 determinism: replays bit-identical "
        f"{'for all sweeps' if not mismatches else 'FAILED for ' + ', '.join(mismatches)}, "
        f"{elapsed:.1f}s -> {'PASS' if ok else 'FAIL'}"
    )
    assert not mismatches
    assert elapsed < 120.0
