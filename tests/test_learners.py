import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_bandits import harness, learners
from subspace_bandits.decomposition import decompose
from subspace_bandits.domain import DomainSpec, check_hull_membership, within_hull
from subspace_bandits.errors import (
    AlphaTooLarge,
    BudgetNotTwo,
    EmptySample,
    InfeasibleK,
    InvalidMatrix,
    NotInHull,
    OddBudget,
)
from subspace_bandits.estimators import estimate_sym, split_halves
from subspace_bandits.evaluation import identified_fraction
from subspace_bandits.learners import (
    LearnerConfig,
    bandit_pca,
    capped_simplex_project,
    entropic_project,
    full_info_pca,
    mbeg,
    mbeg_min_budget,
    mbeg_rates,
    mbeg_step_size,
    mbgd,
    mbgd_step_size,
)
from subspace_bandits.oracles import (
    coin_fixture,
    default_coin_basis,
    dyadic_fixture,
    make_finite_support,
    observe,
    sample_instances,
)
from subspace_bandits.seeding import make_rng
from subspace_bandits.domain import top_k_projector
from subspace_bandits.spectral import LOG_FLOOR, EigenSystem, sym_eig

import util
from util import (
    argsort_entropic_project,
    bisection_capped_projection,
    bisection_entropic,
    brute_force_capped_projection,
    brute_force_scaled_simplex,
    dense_mbeg_replay,
    entropic_objective,
    scalar_mbeg,
    simplex_project_scaled,
)


# ---------------------------------------------------------------------------
# Spectrum projections
# ---------------------------------------------------------------------------

class TestScaledSimplexProjection:
    def test_hand_example(self):
        out = simplex_project_scaled([0.9, 0.6, 0.5], 1)
        assert np.allclose(out, [17 / 30, 8 / 30, 5 / 30], atol=1e-12)

    def test_fixed_point(self):
        lam = np.array([0.2, 0.5, 0.3])
        assert np.allclose(simplex_project_scaled(lam, 1), lam, atol=1e-12)

    def test_single_spike(self):
        assert np.allclose(simplex_project_scaled([5.0, 0.0, 0.0], 1), [1.0, 0.0, 0.0])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, d, k):
        rng = make_rng(seed)
        lam = rng.uniform(-2, 3, size=d)
        out = simplex_project_scaled(lam, k)
        ref = brute_force_scaled_simplex(lam, k)
        assert abs(out.sum() - k) <= 1e-10
        assert np.max(np.abs(out - ref)) <= 1e-8


class TestCappedSimplexProjection:
    def test_cap_engages(self):
        # closest point with the cap active keeps the surplus spread out
        out = capped_simplex_project([10.0, 0.0, 0.0], 2)
        ref = brute_force_capped_projection([10.0, 0.0, 0.0], 2)
        assert np.allclose(out, ref, atol=1e-8)
        assert out.max() <= 1 + 1e-12

    def test_interior_point_unchanged(self):
        lam = np.array([0.8, 0.7, 0.5])
        assert np.allclose(capped_simplex_project(lam, 2), lam, atol=1e-10)

    def test_agrees_with_scaled_when_cap_inactive(self):
        lam = [0.9, 0.6, 0.5]
        assert np.allclose(
            capped_simplex_project(lam, 1), simplex_project_scaled(lam, 1), atol=1e-10
        )

    def test_agrees_with_scaled_on_random_cap_inactive_inputs(self):
        rng = make_rng(30)
        checked = 0
        while checked < 50:
            d = int(rng.integers(2, 7))
            k = int(rng.integers(1, min(3, d) + 1))
            lam = rng.uniform(-1.0, 1.0, size=d)
            scaled = simplex_project_scaled(lam, k)
            if scaled.max() >= 1:
                continue
            checked += 1
            assert np.max(np.abs(capped_simplex_project(lam, k) - scaled)) <= 1e-10

    @given(st.integers(0, 2**32 - 1), st.integers(2, 6), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, d, k):
        rng = make_rng(seed)
        k = min(k, d)
        lam = rng.uniform(-2, 4, size=d)
        out = capped_simplex_project(lam, k)
        ref = brute_force_capped_projection(lam, k)
        assert abs(out.sum() - k) <= 1e-9
        assert np.max(np.abs(out - ref)) <= 1e-8

    def test_infeasible_k(self):
        with pytest.raises(InfeasibleK):
            capped_simplex_project([1.0, 1.0], 3)

    # Spectrum generators for the bisection comparison, keyed by input kind.
    ORACLE_INPUTS = {
        "random": lambda rng, d, k: rng.uniform(-2.0, 4.0, size=d),
        "tied": lambda rng, d, k: rng.choice([-0.3, 0.2, 0.7, 1.4], size=d),
        # a quarter grid: breakpoints lam and lam - 1 of different entries
        # coincide, and the solution shift often sits exactly on one
        "on-breakpoint": lambda rng, d, k: rng.integers(-4, 9, size=d) / 4.0,
        "all-equal": lambda rng, d, k: np.full(d, rng.uniform(-1.0, 2.0)),
        # k - 1 entries far above the rest: for k >= 2 the cap binds on them
        "cap-active": lambda rng, d, k: np.concatenate(
            [rng.uniform(3.0, 6.0, size=k - 1), rng.uniform(0.0, 1.0, size=d - k + 1)]
        ),
    }

    @pytest.mark.parametrize("kind", list(ORACLE_INPUTS))
    def test_matches_bisection_oracle(self, kind):
        rng = make_rng(31)
        for d in range(2, 65):
            for k in range(1, min(d, 4) + 1):
                lam = self.ORACLE_INPUTS[kind](rng, d, k)
                out = capped_simplex_project(lam, k)
                assert np.max(np.abs(out - bisection_capped_projection(lam, k))) <= 1e-12
                assert abs(out.sum() - k) <= 1e-12
                if kind == "cap-active":
                    assert np.all(out[: k - 1] == 1.0)
                if kind == "all-equal":
                    assert np.max(np.abs(out - k / d)) <= 1e-12

    def test_shift_on_a_breakpoint_is_exact(self):
        # [2]*k + [1]*(d-k): f(1) = k exactly, at a breakpoint of both kinds
        for d in range(2, 65):
            for k in range(1, min(d, 4) + 1):
                lam = np.array([2.0] * k + [1.0] * (d - k))
                out = capped_simplex_project(lam, k)
                assert np.array_equal(out, np.array([1.0] * k + [0.0] * (d - k)))
                assert np.max(np.abs(out - bisection_capped_projection(lam, k))) <= 1e-12

    def test_k_equal_to_d(self):
        rng = make_rng(32)
        for d in range(2, 65):
            lam = rng.uniform(-2.0, 4.0, size=d)
            out = capped_simplex_project(lam, d)
            assert np.max(np.abs(out - 1.0)) <= 1e-12
            assert np.max(np.abs(out - bisection_capped_projection(lam, d))) <= 1e-12
            assert abs(out.sum() - d) <= 1e-12


class TestEntropicProjection:
    def test_no_cap_example(self):
        assert np.allclose(entropic_project([4.0, 1.0, 1.0], 1), [2 / 3, 1 / 6, 1 / 6])

    def test_cap_example(self):
        assert np.allclose(entropic_project([10.0, 1.0, 1.0], 2), [1.0, 0.5, 0.5])

    def test_fixed_point(self):
        mu = np.array([0.9, 0.6, 0.5])
        assert np.allclose(entropic_project(mu, 2), mu, atol=1e-12)

    def test_invariants(self):
        rng = make_rng(31)
        for _ in range(100):
            mu = rng.uniform(1e-6, 5.0, size=5)
            k = int(rng.integers(1, 5))
            v = entropic_project(mu, k)
            assert abs(v.sum() - k) <= 1e-10
            assert v.min() > 0 and v.max() <= 1 + 1e-12
            order = np.argsort(mu)
            assert np.all(np.diff(v[order]) >= -1e-12)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 4), st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_bisection_oracle(self, seed, d, k):
        rng = make_rng(seed)
        k = min(k, d)
        mu = rng.uniform(1e-4, 10.0, size=d)
        out = entropic_project(mu, k)
        ref = bisection_entropic(mu, k)
        assert np.max(np.abs(out - ref)) <= 1e-6

    def test_beats_random_feasible_points(self):
        rng = make_rng(32)
        mu = rng.uniform(0.01, 3.0, size=4)
        k = 2
        v = entropic_project(mu, k)
        best = entropic_objective(v, mu)
        for _ in range(200):
            w = capped_simplex_project(rng.uniform(0, 1.5, size=4), k)
            assert best <= entropic_objective(w, mu) + 1e-9

    @pytest.mark.parametrize("family", ["random", "heavy-tailed", "tied", "tied-capped"])
    def test_bytes_match_the_argsort_version(self, family):
        # The common case skips the argsort; the output must not move by a bit.
        rng = make_rng(33)
        for d in range(1, 65):
            for k in range(1, min(d, 5) + 1):
                for _ in range(15):
                    if family == "random":
                        mu = rng.uniform(1e-4, 10.0, size=d)
                    elif family == "heavy-tailed":
                        mu = np.exp(8.0 * rng.standard_normal(d))
                    elif family == "tied":
                        mu = rng.choice([0.05, 0.3, 1.0, 2.5], size=d)
                    else:  # a tied group large enough that the caps split it
                        mu = rng.uniform(0.01, 1.0, size=d)
                        mu[rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False)] = 50.0
                    out = entropic_project(mu, k)
                    assert out.tobytes() == argsort_entropic_project(mu, k).tobytes(), (d, k, mu)

    @pytest.mark.parametrize("mu,k", [([1.0, 0.0], 1), ([1.0, np.nan, 2.0], 2),
                                      ([1e308, 1e308, 1.0], 1), ([np.inf, 1.0, 2.0], 1)])
    def test_requires_positive_spectrum_with_a_finite_sum(self, mu, k):
        # [1e308, 1e308, 1] sums to inf: scaling by k / inf once returned all zeros (trace 0)
        with np.errstate(over="ignore"), pytest.raises(InvalidMatrix, match="finite sum"):
            entropic_project(mu, k)

    def test_infeasible_k(self):
        with pytest.raises(InfeasibleK):
            entropic_project([1.0, 1.0], 3)

    @pytest.mark.parametrize("c", [1e-250, 1e-8, 1e8, 1e250])
    @pytest.mark.parametrize("d", [2, 8, 16, 64])
    def test_invariant_to_scaling_its_input(self, d, c):
        # v = min(t mu, 1) with t fitted to the trace: scaling mu by c scales t
        # by 1/c, which is what lets mbeg shift its log-spectrum before exp.
        rng = make_rng(34)
        for k in sorted({1, 2, d - 1}):
            for _ in range(50):
                mu = np.exp(4.0 * rng.standard_normal(d))
                out, ref = entropic_project(c * mu, k), entropic_project(mu, k)
                assert np.max(np.abs(out - ref) / ref) <= 1e-14, (d, k, c)


# ---------------------------------------------------------------------------
# Config and step sizes
# ---------------------------------------------------------------------------

class TestLearnerConfig:
    def test_default_step_sizes(self):
        spec = DomainSpec(d=10, k=1, r=2, G=1.0)
        assert mbgd_step_size(spec, 6400) == pytest.approx(np.sqrt(1 / (100 * 6400)))
        eta = mbeg_step_size(spec, 2400)
        assert eta == pytest.approx(np.sqrt(np.log(10) / (10 * 2400)))
        assert mbeg_rates(LearnerConfig(spec=spec, m=2400)) == (eta, pytest.approx(0.5 * eta * 100))

    def test_mbeg_rates_take_alpha_from_the_eta_in_use(self):
        spec = DomainSpec(d=4, k=1, r=2, G=1.0)
        floor = mbeg_min_budget(spec)
        eta = mbeg_step_size(spec, floor)
        assert mbeg_rates(LearnerConfig(spec=spec, m=floor)) == (eta, 0.5 * eta * 16)
        # a small eta override keeps alpha valid below the default budget floor
        assert mbeg_rates(LearnerConfig(spec=spec, m=10, eta_override=0.001)) == (0.001, 0.008)
        # a large one pushes alpha past 1/2 at the floor itself
        with pytest.raises(AlphaTooLarge, match=rf"alpha .*m={floor}, eta=1\b"):
            mbeg_rates(LearnerConfig(spec=spec, m=floor, eta_override=1.0))
        with pytest.raises(AlphaTooLarge, match=rf"need m >= {floor}"):
            mbeg_rates(LearnerConfig(spec=spec, m=floor - 1))
        # an alpha override is used as it is
        assert mbeg_rates(LearnerConfig(spec=spec, m=5, eta_override=1.0, alpha_override=0.5)) == (
            1.0, 0.5
        )

    def test_mbeg_rates_state_the_budget_rules(self):
        # m = 0 used to divide by zero in the default step size
        spec = DomainSpec(d=4, k=1, r=2, G=1.0)
        for overrides in ({}, {"eta_override": 0.001}, {"alpha_override": 0.5}):
            with pytest.raises(ValueError, match="m >= 1, got 0"):
                mbeg_rates(LearnerConfig(spec=spec, m=0, **overrides))
        with pytest.raises(BudgetNotTwo, match="r=4"):
            mbeg_rates(LearnerConfig(spec=DomainSpec(d=4, k=1, r=4, G=1.0), m=600))

    def test_rejects_bad_overrides(self):
        spec = DomainSpec(d=4, k=1, r=2, G=1.0)
        for eta in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="eta override must be positive and finite"):
                LearnerConfig(spec=spec, m=10, eta_override=eta)
        with pytest.raises(ValueError):
            LearnerConfig(spec=spec, m=10, alpha_override=0.6)
        for m in (-1, 0):
            with pytest.raises(ValueError, match=f"sample budget needs m >= 1, got {m}"):
                LearnerConfig(spec=spec, m=m)


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------

def point_mass(d, coord=0):
    spec = DomainSpec(d=d, k=1, r=2, G=1.0)
    x = np.zeros(d)
    x[coord] = 1.0
    return make_finite_support([(x, 1.0)], spec, tag="pointmass"), spec


def hadamard_coin():
    """The coin on the Hadamard basis at d=8, k=2, G=2: every coordinate of a row is nonzero."""
    return coin_fixture(8, 2, 2.0, 0.4, [1.0, -1.0], default_coin_basis(8, 2, 2.0))


class TestBanditPca:
    def test_recovers_point_mass_direction(self):
        dist, spec = point_mass(2)
        expected = np.diag([1.0, 0.0])
        hits = 0
        for seed in range(20):
            pi = bandit_pca(dist, LearnerConfig(spec=spec, m=2000, seed=seed))
            hits += np.max(np.abs(pi.matrix - expected)) <= 1e-9
        assert hits == 20

    def test_zero_stream_gives_tie_broken_projector(self):
        spec = DomainSpec(d=3, k=1, r=2, G=1.0)
        dist = make_finite_support([(np.zeros(3), 1.0)], spec, tag="zero")
        pi = bandit_pca(dist, LearnerConfig(spec=spec, m=1, seed=0))
        assert np.array_equal(pi.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_output_invariant_to_estimate_scale(self):
        dist, spec = point_mass(4, coord=2)
        pi, trace = bandit_pca(dist, LearnerConfig(spec=spec, m=500, seed=3), return_trace=True)
        rescaled = top_k_projector(0.5 * trace.final_matrix, spec.k)
        assert np.max(np.abs(rescaled.matrix - pi.matrix)) <= 1e-12

    def test_odd_budget(self):
        spec = DomainSpec(d=4, k=1, r=3, G=1.0)
        dist, _ = point_mass(4)
        with pytest.raises(OddBudget):
            bandit_pca(dist, LearnerConfig(spec=spec, m=10, seed=0))

    def test_trace_length(self):
        dist, spec = point_mass(3)
        _, trace = bandit_pca(dist, LearnerConfig(spec=spec, m=7, seed=1), return_trace=True)
        assert trace.indices.shape == trace.values.shape == (7, spec.r)
        assert trace.estimate is None and trace.hull is None

    @pytest.mark.parametrize("m", [1, 1025])
    @pytest.mark.parametrize("r", [2, 4])
    def test_matches_the_scalar_steps_on_its_stream(self, r, m):
        # Hadamard-basis coin: dense support points, a clear top-2 subspace.
        spec = DomainSpec(d=8, k=2, r=r, G=2.0)
        dist = hadamard_coin()
        cfg = LearnerConfig(spec=spec, m=m, seed=40 + r)
        pi, trace = bandit_pca(dist, cfg, return_trace=True)

        # the documented stream: per chunk of <= 1024 steps, an (n, r) index block, then n uniforms
        rng = make_rng(cfg.seed)
        idx, u = [], []
        for start in range(0, m, 1024):
            n = min(1024, m - start)
            idx.append(rng.integers(0, spec.d, size=(n, r)))
            u.append(rng.random(n))
        idx, u = np.concatenate(idx), np.concatenate(u)
        asym, _ = util.scalar_split_half_sum(dist, spec, idx, u)
        acc = asym / m
        expected = 0.5 * (acc + acc.T)
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(trace.final_matrix - expected)) <= 1e-12 * scale
        assert np.max(np.abs(pi.matrix - top_k_projector(expected, spec.k).matrix)) <= 1e-9

        stream = util.UniformQueue(u)
        values = [observe(dist, row, stream) for row in idx.tolist()]
        assert trace.indices.tobytes() == idx.astype(np.intp).tobytes()
        assert trace.values.tobytes() == np.array(values).tobytes()
        assert trace.indices.shape == trace.values.shape == (m, r)


def steps_with_two_nonzero_halves(values) -> int:
    """Trace rows whose first and second r/2 readings each hold a nonzero value."""
    half = values.shape[1] // 2
    return int(np.count_nonzero(values[:, :half].any(axis=1) & values[:, half:].any(axis=1)))


def count_estimate_sym_calls(monkeypatch) -> list:
    calls = [0]
    real = learners.estimate_sym

    def counting(halves):
        calls[0] += 1
        return real(halves)

    monkeypatch.setattr(learners, "estimate_sym", counting)
    return calls


MBGD_CASES = [
    (dyadic_fixture(5, s=1, eps=0.2, c=4.0), DomainSpec(d=5, k=1, r=2, G=1.0)),
    (dyadic_fixture(5, s=1, eps=0.2, c=4.0), DomainSpec(d=5, k=1, r=4, G=1.0)),
    (hadamard_coin(), DomainSpec(d=8, k=2, r=4, G=2.0)),
]
MBGD_CASE_IDS = ["dyadic-r2", "dyadic-r4", "coin-r4"]


class TestMbgd:
    def test_zero_stream_never_moves(self):
        spec = DomainSpec(d=4, k=1, r=2, G=1.0)
        dist = make_finite_support([(np.zeros(4), 1.0)], spec, tag="zero")
        pi, trace = mbgd(dist, LearnerConfig(spec=spec, m=50, seed=6), return_trace=True)
        assert np.array_equal(trace.pre_projection_matrix, np.eye(4) / 4)
        assert np.trace(pi.matrix) == pytest.approx(1.0)

    @pytest.mark.parametrize("dist,spec", [MBGD_CASES[0], MBGD_CASES[2]],
                             ids=[MBGD_CASE_IDS[0], MBGD_CASE_IDS[2]])
    def test_lazy_iterate_identity(self, dist, spec):
        # W_end must equal the initializer plus eta times the estimates
        # rebuilt from the traced coordinates and readings of every step, bit
        # for bit; at r=4 the rows repeat indices within a half
        cfg = LearnerConfig(spec=spec, m=300, seed=7)
        _, trace = mbgd(dist, cfg, return_trace=True)
        eta = mbgd_step_size(spec, cfg.m)
        acc = np.zeros((spec.d, spec.d))
        for idx, values in zip(trace.indices.tolist(), trace.values):
            for a, b, v in estimate_sym(split_halves(idx, values, spec)).terms:
                acc[a, b] += v
                if a != b:
                    acc[b, a] += v
        recomputed = (spec.k / spec.d) * np.eye(spec.d) + eta * acc
        assert np.array_equal(recomputed, trace.pre_projection_matrix)

    @pytest.mark.parametrize("dist,spec", MBGD_CASES, ids=MBGD_CASE_IDS)
    def test_builds_the_estimate_only_when_both_halves_read_nonzero(self, monkeypatch, dist,
                                                                     spec):
        calls = count_estimate_sym_calls(monkeypatch)
        m, both, rows = 300, 0, 0
        for seed in range(5):
            _, trace = mbgd(dist, LearnerConfig(spec=spec, m=m, seed=seed), return_trace=True)
            both += steps_with_two_nonzero_halves(trace.values)
            rows += trace.values.shape[0]
        assert rows == 5 * m and 0 < calls[0] == both
        # the coin reads no zero, so none of its steps skips; the dyadic fixture mostly does
        assert (both == rows) if spec.d == 8 else (both < rows)

    def test_demo_trials_build_the_estimate_only_when_both_halves_read_nonzero(self,
                                                                               monkeypatch):
        cfg = harness.dyadic_demo_config()
        calls = count_estimate_sym_calls(monkeypatch)
        readings = []

        def traced_mbgd(dist, lcfg):
            pi, trace = mbgd(dist, lcfg, return_trace=True)
            readings.append(trace.values)
            return pi

        monkeypatch.setattr(harness, "mbgd", traced_mbgd)
        for t in range(100):
            assert harness.run_trial(cfg, cfg.m_values[0], t).error is None
        both = sum(map(steps_with_two_nonzero_halves, readings))
        assert len(readings) == 100 and 0 < calls[0] == both < 100 * cfg.m_values[0]

    def test_final_matrix_in_hull(self):
        dist = dyadic_fixture(6, s=2, eps=0.25, c=4.0)
        spec = DomainSpec(d=6, k=2, r=2, G=1.0)
        _, trace = mbgd(dist, LearnerConfig(spec=spec, m=400, seed=8), return_trace=True)
        assert check_hull_membership(trace.final_matrix, k=2).passed

    @pytest.mark.parametrize("r", [2, 4])
    def test_handed_spectrum_matches_rebuilt_matrix(self, monkeypatch, r):
        # mbgd hands decompose the projected spectrum over W_end's eigenbasis.
        # Decomposing the rebuilt matrix V diag(lam) V^T instead must give the
        # same mixture up to rounding; the Hadamard-basis coin rotates the
        # eigenbasis, so the two routes really differ in the last bits.
        handed = []

        def recording(w, k):
            handed.append((w, k))
            return decompose(w, k)

        monkeypatch.setattr(learners, "decompose", recording)
        spec = DomainSpec(d=8, k=2, r=r, G=2.0)
        dist = hadamard_coin()
        for seed in range(20):
            mbgd(dist, LearnerConfig(spec=spec, m=200, seed=seed))
        assert len(handed) == 20
        for eig, k in handed:
            assert isinstance(eig, EigenSystem) and k == 2
            mix = decompose(eig, k)
            rebuilt = decompose(eig.reconstruct(), k)
            assert mix.size == rebuilt.size > 1
            assert np.max(np.abs(mix.weights - rebuilt.weights)) <= 1e-12
            assert np.max(np.abs(mix.reconstruct() - rebuilt.reconstruct())) <= 1e-12

    def test_converges_on_planted_coordinate(self):
        dist = dyadic_fixture(6, s=3, eps=0.25, c=4.0)
        spec = DomainSpec(d=6, k=1, r=2, G=1.0)
        pi = mbgd(dist, LearnerConfig(spec=spec, m=3000, seed=9))
        assert pi.matrix[3, 3] == pytest.approx(1.0, abs=1e-9)

    def test_odd_budget(self):
        spec = DomainSpec(d=4, k=1, r=3, G=1.0)
        dist, _ = point_mass(4)
        with pytest.raises(OddBudget):
            mbgd(dist, LearnerConfig(spec=spec, m=10, seed=0))


def half_zero_hadamard_coin():
    """The Hadamard-basis coin (d=8, k=2, G=2) with half its mass moved to the zero vector.

    Every coordinate of a coin row is nonzero, so a step's estimate is zero
    exactly when the draw is the zero vector: zero and nonzero estimates
    interleave at rate 1/2.
    """
    spec = DomainSpec(d=8, k=2, r=2, G=2.0)
    coin = hadamard_coin()
    support = [(np.zeros(8), 0.5)] + [(x, 0.5 * p) for x, p in zip(coin.points, coin.probs)]
    return make_finite_support(support, spec, tag="half-zero-hadamard-coin")


DEFAULT_BUDGET_FIXTURES = [
    (DomainSpec(d=16, k=1, r=2, G=1.0), dyadic_fixture(16, s=1, eps=0.25, c=4.0)),
    (
        DomainSpec(d=8, k=2, r=2, G=1.0),
        coin_fixture(8, 2, 1.0, 0.4, [1.0, -1.0], default_coin_basis(8, 2, 1.0)),
    ),
    (
        DomainSpec(d=8, k=2, r=2, G=2.0),
        hadamard_coin(),
    ),
    (DomainSpec(d=8, k=2, r=2, G=2.0), half_zero_hadamard_coin()),
    (DomainSpec(d=16, k=1, r=2, G=1.0), dyadic_fixture(16, s=1, eps=0.05, c=4.0)),
    (DomainSpec(d=32, k=1, r=2, G=1.0), dyadic_fixture(32, s=1, eps=0.25, c=4.0)),
]
DEFAULT_BUDGET_IDS = [
    "dyadic-d16-k1",
    "coin-d8-k2",
    "hadamard-coin-d8-k2",
    "half-zero-hadamard-coin-d8-k2",
    "dyadic-d16-k1-eps0.05",
    "dyadic-d32-k1",
]


def recorded_run(monkeypatch, learner, dist, cfg, return_trace=True):
    """``learner(dist, cfg, return_trace)`` plus the next uniform of the generator it built.

    Returns (projector, trace or None, next uniform).  ``make_rng`` is
    wrapped where the learner looks it up: in ``util`` for the scalar
    reference, in ``learners`` for the library.
    """
    module = util if learner is scalar_mbeg else learners
    made = []

    def recording(seed):
        made.append(make_rng(seed))
        return made[-1]

    with monkeypatch.context() as patch:
        patch.setattr(module, "make_rng", recording)
        out = learner(dist, cfg, return_trace=return_trace)
    assert len(made) == 1
    pi, trace = out if return_trace else (out, None)
    return pi, trace, made[0].random()


TRACE_COLUMNS = ("indices", "values", "estimate", "hull")


def assert_same_as_scalar_loop(monkeypatch, dist, cfg):
    """The block loop and the scalar loop agree to the byte, the generator's position included."""
    pi, trace, next_u = recorded_run(monkeypatch, mbeg, dist, cfg)
    ref_pi, ref_trace, ref_next_u = recorded_run(monkeypatch, scalar_mbeg, dist, cfg)
    assert pi.matrix.tobytes() == ref_pi.matrix.tobytes()
    assert trace.final_matrix.tobytes() == ref_trace.final_matrix.tobytes()
    assert len(trace.estimate) == cfg.m
    # bytes tell 0.0 from -0.0; dtype and shape are compared beside them
    for name in TRACE_COLUMNS:
        column, ref = getattr(trace, name), getattr(ref_trace, name)
        assert (column.dtype, column.shape) == (ref.dtype, ref.shape), name
        assert column.tobytes() == ref.tobytes(), name
    assert next_u == ref_next_u
    return trace


@pytest.mark.parametrize("learner", [bandit_pca, mbgd, mbeg], ids=lambda f: f.__name__)
def test_trace_does_not_perturb_the_run(monkeypatch, learner):
    # The columns are filled from arrays the learner already holds: asking
    # for them draws nothing more and changes no projector byte.
    spec = DomainSpec(d=8, k=2, r=2, G=2.0)
    cfg = LearnerConfig(spec=spec, m=1100, seed=31)
    dist = half_zero_hadamard_coin()
    pi, none, next_u = recorded_run(monkeypatch, learner, dist, cfg, return_trace=False)
    traced_pi, trace, traced_next_u = recorded_run(monkeypatch, learner, dist, cfg)
    assert none is None
    assert pi.matrix.tobytes() == traced_pi.matrix.tobytes()
    assert next_u == traced_next_u

    expected = {"indices": (np.intp, (cfg.m, spec.r)), "values": (np.float64, (cfg.m, spec.r))}
    if learner is mbeg:
        expected.update(estimate=(np.float64, (cfg.m,)), hull=(np.float64, (cfg.m, 3)))
    for name in TRACE_COLUMNS:
        column = getattr(trace, name)
        if name in expected:
            assert (column.dtype, column.shape) == expected[name], name
        else:
            assert column is None, name


class TestMbeg:
    def test_budget_must_be_two(self):
        spec = DomainSpec(d=4, k=1, r=4, G=1.0)
        dist, _ = point_mass(4)
        with pytest.raises(BudgetNotTwo):
            mbeg(dist, LearnerConfig(spec=spec, m=600, seed=0))

    def test_alpha_too_large_for_small_budget(self):
        dist, spec = point_mass(4)
        floor = mbeg_min_budget(spec)
        with pytest.raises(AlphaTooLarge):
            mbeg(dist, LearnerConfig(spec=spec, m=floor - 1, seed=0))
        # an explicit override lifts the budget floor
        mbeg(dist, LearnerConfig(spec=spec, m=5, seed=0, alpha_override=0.5))

    def test_vanishing_step_size_keeps_initializer(self):
        dist, spec = point_mass(4)
        cfg = LearnerConfig(
            spec=spec, m=30, seed=1, eta_override=1e-300, alpha_override=0.5
        )
        pi, trace = mbeg(dist, cfg, return_trace=True)
        assert np.max(np.abs(trace.final_matrix - np.eye(4) / 4)) <= 1e-9
        assert np.trace(pi.matrix) == pytest.approx(1.0)

    @pytest.mark.parametrize("eta", [30.0, 1e6, 1e300])
    def test_large_step_size_stays_in_the_hull(self, eta):
        # eta * v reaches ~3840 at eta = 30 on the first informative step, past
        # exp's range; the log-spectrum is shifted by its largest entry first.
        dist = dyadic_fixture(8, s=1, eps=0.25, c=4.0)
        spec = DomainSpec(d=8, k=1, r=2, G=1.0)
        cfg = LearnerConfig(spec=spec, m=600, seed=1, eta_override=eta, alpha_override=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            pi, trace = mbeg(dist, cfg, return_trace=True)
        assert np.count_nonzero(trace.estimate) > 0
        assert all(within_hull(*row) for row in trace.hull.tolist())
        _, w_min, w_max = trace.hull.T
        assert w_min.min() >= LOG_FLOOR and w_max.max() <= 1.0
        assert np.array_equal(pi.matrix, np.diag(np.eye(8)[1]))

    def test_iterates_stay_in_hull(self):
        dist = dyadic_fixture(6, s=0, eps=0.25, c=4.0)
        spec = DomainSpec(d=6, k=1, r=2, G=1.0)
        cfg = LearnerConfig(spec=spec, m=200, seed=2, alpha_override=0.4)
        _, trace = mbeg(dist, cfg, return_trace=True)
        assert trace.hull.shape == (200, 3)
        trace_err, w_min, w_max = trace.hull.T
        assert trace_err.max() <= 1e-8
        assert w_min.min() >= -1e-8
        assert w_max.max() <= 1 + 1e-8

    def test_estimate_norms_within_step_size_budget(self):
        # on a planted-coordinate run with default parameters every estimate
        # norm stays within 1/eta
        dist = dyadic_fixture(8, s=1, eps=0.25, c=4.0)
        spec = DomainSpec(d=8, k=1, r=2, G=1.0)
        m = 1100
        cfg = LearnerConfig(spec=spec, m=m, seed=3)
        _, trace = mbeg(dist, cfg, return_trace=True)
        eta = mbeg_step_size(spec, m)
        # a single-pair estimate's spectral norm is the magnitude of its one entry
        assert np.abs(trace.estimate).max() <= 1 / eta + 1e-9

    def test_eigh_runs_only_on_nonzero_estimates(self, monkeypatch):
        # The step loop runs one eigh per informative step that is not a
        # shift: a pair (s, s) whose basis row s has one nonzero entry only
        # shifts an eigenvalue.  A shift permutes the basis columns, which
        # keeps every row's nonzero count, so the support to test is that of
        # the last eigh's basis (I before the first).
        real = np.linalg.eigh
        loop_bases = []

        def recording(a):
            vals, vecs = real(a)
            if sys._getframe(1).f_code is mbeg.__code__:
                loop_bases.append(vecs)
            return vals, vecs

        monkeypatch.setattr(np.linalg, "eigh", recording)
        dist = half_zero_hadamard_coin()
        spec = DomainSpec(d=8, k=2, r=2, G=2.0)
        cfg = LearnerConfig(spec=spec, m=mbeg_min_budget(spec), seed=13)
        _, trace = mbeg(dist, cfg, return_trace=True)
        informative = np.flatnonzero(trace.estimate)
        assert 0 < informative.size < cfg.m
        basis, shifts, updates = np.eye(spec.d), 0, iter(loop_bases)
        for s, q in trace.indices[informative].tolist():
            if s == q and np.count_nonzero(basis[s]) == 1:
                shifts += 1
            else:
                basis = next(updates)
        assert 0 < shifts < informative.size
        assert len(loop_bases) == informative.size - shifts

    @pytest.mark.parametrize("d", [16, 32])
    def test_axis_aligned_updates_run_no_eigh(self, linalg_calls, d):
        # Every informative pair of a dyadic fixture is (s, s), and shifts
        # keep the basis a signed permutation: no update re-diagonalises.
        dist = dyadic_fixture(d, s=1, eps=0.25, c=4.0)
        spec = DomainSpec(d=d, k=1, r=2, G=1.0)
        cfg = LearnerConfig(spec=spec, m=mbeg_min_budget(spec), seed=13)
        _, trace = mbeg(dist, cfg, return_trace=True)
        assert np.count_nonzero(trace.estimate) > 0
        assert [name for name, code in linalg_calls if code is mbeg.__code__] == []

    def test_rounding_eigendecomposes_the_average_once(self, linalg_calls):
        # After the step loop, one sym_eig of the iterate average serves both
        # the hull gate and the decomposition.
        dist = half_zero_hadamard_coin()
        spec = DomainSpec(d=8, k=2, r=2, G=2.0)
        mbeg(dist, LearnerConfig(spec=spec, m=mbeg_min_budget(spec), seed=13))
        rounding_calls = [name for name, code in linalg_calls if code is not mbeg.__code__]
        assert rounding_calls == ["eigh"]

    def test_average_outside_the_hull_raises(self, monkeypatch):
        # The final gate reads W-bar's spectrum at MEMBER_TOL (1e-9), tighter
        # than the 1e-8 that decompose would clip silently.
        def overshooting(m):
            eig = sym_eig(m)  # I/4 here
            values = np.array([0.5 + 5e-9, 0.25, 0.25, -5e-9])  # trace still 1
            return EigenSystem(values=values, vectors=eig.vectors)

        monkeypatch.setattr(learners, "sym_eig", overshooting)
        dist, spec = point_mass(4)
        cfg = LearnerConfig(spec=spec, m=30, seed=1, eta_override=1e-300, alpha_override=0.5)
        with pytest.raises(NotInHull):
            mbeg(dist, cfg)

    def test_an_iterate_outside_the_hull_raises_at_the_average_rule(self, monkeypatch):
        # Each iterate is held to the rule the final gate applies to their
        # average: a spectrum 5e-9 above 1 is within 1e-8 but not MEMBER_TOL.
        overshoot = np.array([0.0, 0.0, 0.0, 1 + 5e-9])
        assert not check_hull_membership(EigenSystem(overshoot, np.eye(4)), k=1).passed
        monkeypatch.setattr(learners, "entropic_project", lambda mu, k: overshoot.copy())
        dist, spec = point_mass(4)
        cfg = LearnerConfig(spec=spec, m=200, seed=1, eta_override=1e-300, alpha_override=0.5)
        with pytest.raises(NotInHull, match="iterate left the hull"):
            mbeg(dist, cfg)

    def test_converges_on_planted_coordinate(self):
        dist = dyadic_fixture(6, s=4, eps=0.25, c=4.0)
        spec = DomainSpec(d=6, k=1, r=2, G=1.0)
        cfg = LearnerConfig(spec=spec, m=900, seed=5)
        _, trace = mbeg(dist, cfg, return_trace=True)
        assert trace.final_matrix[4, 4] >= 0.5

    @pytest.mark.parametrize("seed", [13, 14, 15, 16, 17])
    @pytest.mark.parametrize("spec, dist", DEFAULT_BUDGET_FIXTURES, ids=DEFAULT_BUDGET_IDS)
    def test_matches_scalar_loop_at_default_budget(self, monkeypatch, spec, dist, seed):
        cfg = LearnerConfig(spec=spec, m=mbeg_min_budget(spec), seed=seed)
        assert_same_as_scalar_loop(monkeypatch, dist, cfg)

    @pytest.mark.parametrize("m", [1, 1023, 1024, 1025, 2049])
    def test_matches_scalar_loop_at_block_edges(self, monkeypatch, m):
        dist = dyadic_fixture(8, s=2, eps=0.1, c=4.0)
        spec = DomainSpec(d=8, k=1, r=2, G=1.0)
        cfg = LearnerConfig(spec=spec, m=m, seed=21, alpha_override=0.3)
        assert_same_as_scalar_loop(monkeypatch, dist, cfg)

    def test_matches_scalar_loop_when_the_first_step_updates(self, monkeypatch):
        dist = hadamard_coin()
        spec = DomainSpec(d=8, k=2, r=2, G=2.0)
        cfg = LearnerConfig(spec=spec, m=300, seed=22)
        trace = assert_same_as_scalar_loop(monkeypatch, dist, cfg)
        assert trace.estimate[0] != 0.0

    @pytest.mark.parametrize(
        "overrides",
        [{"alpha_override": 0.2}, {"eta_override": 0.01}, {"alpha_override": 0.5, "eta_override": 0.3},
         {"alpha_override": 0.5, "eta_override": 30.0}],
    )
    def test_matches_scalar_loop_with_overrides(self, monkeypatch, overrides):
        # large steps drive the iterate into the caps of the entropic projection
        spec = DomainSpec(d=8, k=2, r=2, G=2.0)
        cfg = LearnerConfig(spec=spec, m=mbeg_min_budget(spec), seed=23, **overrides)
        assert_same_as_scalar_loop(monkeypatch, half_zero_hadamard_coin(), cfg)

    def test_hull_gate_fires_inside_a_block(self, monkeypatch):
        # An out-of-hull spectrum from the third update must be reported at
        # that step, as the scalar loop reports it, not at a block boundary.
        dist = dyadic_fixture(16, s=1, eps=0.25, c=4.0)
        spec = DomainSpec(d=16, k=1, r=2, G=1.0)
        cfg = LearnerConfig(spec=spec, m=mbeg_min_budget(spec), seed=13)
        _, trace = scalar_mbeg(dist, cfg, return_trace=True)
        informative = np.flatnonzero(trace.estimate)
        assert informative[2] - informative[1] > 1  # skipped steps precede it

        real = learners.entropic_project
        messages = []
        for learner in (mbeg, scalar_mbeg):
            calls = []

            def leaky(mu, k):
                calls.append(None)
                out = real(mu, k)
                return out * (1 + 1e-6) if len(calls) == 3 else out

            with monkeypatch.context() as patch:
                patch.setattr(learners, "entropic_project", leaky)
                with pytest.raises(NotInHull) as info:
                    learner(dist, cfg)
            messages.append(str(info.value))
        assert messages[0] == messages[1]
        assert f"at step {informative[2]}:" in messages[0]

    @pytest.mark.parametrize("spec, dist", DEFAULT_BUDGET_FIXTURES, ids=DEFAULT_BUDGET_IDS)
    def test_matches_dense_reference_at_default_budget(self, spec, dist):
        # The step loop against sym_eig + the pair table, step by step.  Like
        # the loop, the replay keeps its iterate on a step whose own estimate
        # is exactly zero, and checks that the iterate it keeps is a fixed
        # point of entropic_project.  The axis-aligned fixtures only ever update
        # diagonal cells, so every iterate stays diagonal and every loop
        # update is an eigenvalue shift, checked here against eigh; the
        # Hadamard-basis coins (G > 1) update off-diagonal cells and rotate
        # the eigenbasis, and with half the mass on the zero vector the
        # rotated basis is carried across skipped steps.
        cfg = LearnerConfig(spec=spec, m=mbeg_min_budget(spec), seed=13)
        _, trace = mbeg(dist, cfg, return_trace=True)
        w_bar, worst_gap, worst_stat_gap, worst_fixed_gap = dense_mbeg_replay(dist, cfg, trace)
        assert worst_gap <= 1e-10
        assert worst_stat_gap <= 1e-10
        assert worst_fixed_gap <= 1e-10
        assert np.max(np.abs(w_bar - trace.final_matrix)) <= 1e-10


class TestFullInfoPca:
    def test_single_sample(self):
        pi = full_info_pca([np.array([1.0, 0.0])], 1)
        assert np.array_equal(pi.matrix, np.diag([1.0, 0.0]))

    def test_tie_broken_deterministically(self):
        pi = full_info_pca([np.array([1.0, 0.0]), np.array([0.0, 1.0])], 1)
        assert np.array_equal(pi.matrix, np.diag([1.0, 0.0]))

    def test_empty_sample(self):
        with pytest.raises(EmptySample):
            full_info_pca([], 1)
        with pytest.raises(EmptySample):
            full_info_pca(np.zeros((0, 3)), 1)

    def test_array_and_vector_list_give_the_same_projector(self):
        dist = coin_fixture(8, 2, 1.0, 0.4, [1.0, -1.0], default_coin_basis(8, 2, 1.0))
        xs = sample_instances(dist, 500, make_rng(33))
        from_array = full_info_pca(xs, 2)
        from_list = full_info_pca([x.copy() for x in xs], 2)
        assert np.array_equal(from_list.matrix, from_array.matrix)
        assert np.array_equal(from_list.basis, from_array.basis)

    def test_identifies_coin_biases_at_large_m(self):
        d, k, G, alpha = 6, 2, 1.0, 0.5
        signs = np.array([1.0, -1.0])
        fixture = coin_fixture(d, k, G, alpha, signs, default_coin_basis(d, k, G))
        rng = make_rng(6)
        betas = []
        for _ in range(10):
            xs = sample_instances(fixture, 4000, rng)
            pi = full_info_pca(xs, k)
            betas.append(identified_fraction(pi, fixture).beta)
        assert np.mean(betas) == pytest.approx(1.0)
