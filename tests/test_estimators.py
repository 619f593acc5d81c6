import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_bandits.domain import DomainSpec
from subspace_bandits.errors import BadIndex, DimMismatch, OddBudget, ZeroProbability
from subspace_bandits.estimators import (
    MbegPairSampler,
    draw_pair,
    draw_uniform_indices,
    estimate_asym,
    estimate_sym,
    importance_weight,
    mbeg_estimate,
    mbeg_pair_probs,
    split_half_sum,
    split_halves,
)
from subspace_bandits.oracles import DistributionSpec
from subspace_bandits.seeding import make_rng

from util import (
    ScalarPairSampler,
    StubDraws,
    random_hull_element,
    random_hull_spectrum,
    scalar_split_half_sum,
    spectral_norm,
)


def obs_from(x, indices):
    """The (indices, readings) of one step that asks ``x`` for ``indices``."""
    return indices, np.asarray(x, dtype=float)[list(indices)]


def enumerate_sym_mean(x, spec):
    """Uniform average of the symmetric split-half estimate over all index tuples."""
    d, r = spec.d, spec.r
    total = np.zeros((d, d))
    count = 0
    for tup in itertools.product(range(d), repeat=r):
        est = estimate_sym(split_halves(*obs_from(x, tup), spec))
        total += est.to_dense()
        count += 1
    return total / count


class TestDrawUniformIndices:
    def test_single_coordinate_domain(self):
        idx = draw_uniform_indices(1, 2, make_rng(0))
        assert tuple(idx) == (0, 0)

    def test_chi_squared_uniformity(self):
        # 1e5 draws of r=2 over d=8; chi^2 threshold for df=7 at the 1e-3
        # level is 24.322
        rng = make_rng(1)
        counts = np.zeros(8)
        for _ in range(100_000):
            for i in draw_uniform_indices(8, 2, rng):
                counts[i] += 1
        expected = counts.sum() / 8
        chi2 = float(np.sum((counts - expected) ** 2 / expected))
        assert chi2 < 24.322


class TestSplitHalves:
    def test_single_pair(self):
        spec = DomainSpec(d=4, k=1, r=2, G=2.0)
        x_hat, y_hat = split_halves(*obs_from([1.0, -1.0, 0.0, 0.0], (0, 1)), spec)
        assert np.array_equal(x_hat, [4.0, 0.0, 0.0, 0.0])
        assert np.array_equal(y_hat, [0.0, -4.0, 0.0, 0.0])

    def test_duplicates_accumulate(self):
        # scale 2d/r = 2; the duplicated first coordinate adds twice
        spec = DomainSpec(d=4, k=1, r=4, G=2.0)
        x_hat, y_hat = split_halves(*obs_from([1.0, 0.5, 0.0, 0.0], (0, 0, 1, 2)), spec)
        assert np.array_equal(x_hat, [4.0, 0.0, 0.0, 0.0])
        assert np.array_equal(y_hat, [0.0, 1.0, 0.0, 0.0])

    def test_zero_values(self):
        spec = DomainSpec(d=3, k=1, r=2, G=1.0)
        x_hat, y_hat = split_halves(*obs_from([0.0, 0.0, 0.0], (1, 2)), spec)
        assert not x_hat.any() and not y_hat.any()

    def test_odd_budget_rejected(self):
        spec = DomainSpec(d=4, k=1, r=3, G=1.0)
        with pytest.raises(OddBudget):
            split_halves(*obs_from([1.0, 0.0, 0.0, 0.0], (0, 1, 2)), spec)

    def test_reading_count_must_match_the_budget(self):
        spec = DomainSpec(d=4, k=1, r=2, G=1.0)
        with pytest.raises(DimMismatch, match="4 coordinates, expected r=2"):
            split_halves(*obs_from([1.0, 0.0, 0.0, 0.0], (0, 1, 2, 3)), spec)

    @pytest.mark.parametrize("values", [[1.0, 0.5, 0.7], [1.0]])
    def test_value_count_must_match_the_budget(self, values):
        # unchecked, a third reading would be dropped and a single one indexed past the end
        spec = DomainSpec(d=4, k=1, r=2, G=1.0)
        with pytest.raises(DimMismatch, match=f"{len(values)} readings, expected r=2"):
            split_halves((0, 1), np.array(values), spec)


class TestDyadicEstimates:
    def setup_method(self):
        self.spec = DomainSpec(d=4, k=1, r=2, G=2.0)

    def test_asym_raw_cross(self):
        h = split_halves(*obs_from([1.0, -1.0, 0.0, 0.0], (0, 1)), self.spec)
        dense = estimate_asym(h).to_dense()
        expected = np.zeros((4, 4))
        expected[0, 1] = -8.0
        assert np.array_equal(dense, expected)

    def test_asym_zero(self):
        h = split_halves(*obs_from([0.0] * 4, (0, 1)), self.spec)
        assert estimate_asym(h).to_dense().sum() == 0.0

    def test_sym_off_diagonal(self):
        # (1/2) x_hat y_hat^T + (1/2) y_hat x_hat^T with x_hat = 4 e0,
        # y_hat = -4 e1 puts -8 at (0,1) and (1,0); anything smaller would
        # break the exact-enumeration unbiasedness identity below
        h = split_halves(*obs_from([1.0, -1.0, 0.0, 0.0], (0, 1)), self.spec)
        dense = estimate_sym(h).to_dense()
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = -8.0
        assert np.array_equal(dense, expected)

    def test_sym_diagonal_hit(self):
        h = split_halves(*obs_from([1.0, 0.0, 0.0, 0.0], (0, 0)), self.spec)
        dense = estimate_sym(h).to_dense()
        expected = np.zeros((4, 4))
        expected[0, 0] = 16.0
        assert np.array_equal(dense, expected)

    def test_exact_enumeration_unbiasedness_r2(self):
        x = np.array([1.0, -1.0, 0.0, 0.0])
        mean = enumerate_sym_mean(x, self.spec)
        assert np.max(np.abs(mean - np.outer(x, x))) <= 1e-10

    @given(
        st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=4, max_size=4),
        st.sampled_from([2, 4]),
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_enumeration_unbiasedness_any_instance(self, coords, r):
        x = np.asarray(coords)
        spec = DomainSpec(d=4, k=1, r=r, G=4.0)
        mean = enumerate_sym_mean(x, spec)
        assert np.max(np.abs(mean - np.outer(x, x))) <= 1e-10

    def test_monte_carlo_unbiasedness(self):
        x = np.array([1.0, -1.0, 0.0, 0.0])
        rng = make_rng(2)
        total = np.zeros((4, 4))
        n = 200_000
        for _ in range(n):
            idx = draw_uniform_indices(4, 2, rng)
            total += estimate_sym(split_halves(*obs_from(x, idx), self.spec)).to_dense()
        assert np.max(np.abs(total / n - np.outer(x, x))) <= 0.1

    def test_spectral_norm_bound_r2(self):
        # |C_hat| <= 4 d^2 G / r^2 holds for r=2 whatever G (single-index halves)
        rng = make_rng(3)
        for G in (0.5, 1.0, 2.0):
            spec = DomainSpec(d=4, k=1, r=2, G=G)
            bound = 4 * spec.d**2 * G / spec.r**2
            for _ in range(500):
                x = rng.standard_normal(4)
                x *= np.sqrt(G) / np.linalg.norm(x)
                np.clip(x, -1.0, 1.0, out=x)
                idx = draw_uniform_indices(4, 2, rng)
                est = estimate_sym(split_halves(*obs_from(x, idx), spec))
                assert spectral_norm(est.to_dense()) <= bound + 1e-9


def _random_support(rng, d, size=5):
    """A finite-support distribution with random points in [-1, 1]^d."""
    probs = rng.random(size) + 0.1
    return DistributionSpec(
        d=d, points=rng.uniform(-1, 1, size=(size, d)), probs=probs / probs.sum(), tag="random"
    )


def _chunk_calls(m, r):
    """The draws split_half_sum documents: per chunk, an (n, r) index block, then n uniforms."""
    calls = []
    for start in range(0, m, 1024):
        n = min(1024, m - start)
        calls += [("integers", (n, r)), ("random", n)]
    return calls


class TestSplitHalfSum:
    # small shapes at every chunk boundary, on both sides of the r^2/4 <= d/2
    # switch; pair keys up to d^2 = 65,536 and 25 cross pairs per step at the
    # wide ones, and half blocks from the first r past the switch to r = d
    @pytest.mark.parametrize(
        "d,r,m",
        [(d, r, m) for d, r in [(4, 2), (4, 4), (10, 2), (10, 4), (10, 6)]
         for m in [1, 1023, 1024, 1025, 2049]]
        + [(d, r, m) for d, r in [(64, 2), (64, 8), (64, 10), (64, 12), (32, 32), (256, 2)]
           for m in [1, 1025]],
    )
    def test_equals_both_scalar_estimators_on_the_same_draws(self, d, r, m):
        rng = make_rng(1000 * d + 10 * r + m)
        dist = _random_support(rng, d)
        spec = DomainSpec(d=d, k=1, r=r, G=float(d))
        idx = rng.integers(0, d, size=(m, r))
        idx[::7] = idx[::7, :1]  # every 7th step repeats one index r times
        u = rng.random(m)
        draws = StubDraws(idx, u)
        total = split_half_sum(dist, spec, m, draws)
        assert draws.calls == _chunk_calls(m, r)
        asym, sym = scalar_split_half_sum(dist, spec, idx, u)
        # summation order differs, so compare relative to the sums' size
        scale = max(1.0, float(np.max(np.abs(sym))))
        assert np.max(np.abs(0.5 * total - asym)) <= 1e-12 * scale  # bandit_pca's sum
        assert np.max(np.abs(0.5 * (total + total.T) - sym)) <= 1e-12 * scale  # mbgd's sum

    @pytest.mark.parametrize("r", [2, 10, 12, 64])
    def test_chunk_memory_stays_near_the_half_blocks(self, r):
        # pair keys for all r peaked at 26 MB at r = 64; the (n, 2, d) half
        # blocks took 4 MB at n = 1024, d = 64 whatever r
        d = 64
        dist = _random_support(make_rng(6), d)
        spec = DomainSpec(d=d, k=1, r=r, G=float(d))
        tracemalloc.start()
        try:
            split_half_sum(dist, spec, 1024, make_rng(7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20

    @pytest.mark.parametrize("m", [1, 1024, 2049])
    def test_stream_ends_after_the_documented_blocks(self, m):
        d, r = 10, 4
        dist = _random_support(make_rng(3), d)
        spec = DomainSpec(d=d, k=1, r=r, G=float(d))
        engine, by_hand = make_rng(31), make_rng(31)
        split_half_sum(dist, spec, m, engine)
        for _, size in _chunk_calls(m, r)[::2]:
            by_hand.integers(0, d, size=size)
            by_hand.random(size[0])
        assert engine.random() == by_hand.random()

    def test_observed_blocks_are_the_steps(self):
        d, r, m = 4, 4, 1500
        rng = make_rng(5)
        dist = _random_support(rng, d)
        spec = DomainSpec(d=d, k=1, r=r, G=float(d))
        idx, u = rng.integers(0, d, size=(m, r)), rng.random(m)
        observed = []
        split_half_sum(dist, spec, m, StubDraws(idx, u), observed)
        assert [block.shape for block, _ in observed] == [(1024, r), (476, r)]
        assert np.array_equal(np.concatenate([block for block, _ in observed]), idx)
        rows = np.minimum(np.searchsorted(dist._cum_probs, u, side="right"), dist.size - 1)
        expected = np.take_along_axis(dist.points[rows], idx, axis=1)
        assert np.concatenate([vals for _, vals in observed]).tobytes() == expected.tobytes()

    def test_odd_budget_rejected(self):
        dist = _random_support(make_rng(4), 4)
        with pytest.raises(OddBudget):
            split_half_sum(dist, DomainSpec(d=4, k=1, r=3, G=4.0), 10, make_rng(0))


class TestPairProbabilities:
    def test_uniform_at_initializer(self):
        d, k = 4, 2
        table = mbeg_pair_probs((k / d) * np.eye(d), alpha=0.3, k=k)
        assert np.allclose(table, np.full((d, d), 1 / d**2))

    def test_hand_example_alpha_zero(self):
        t = mbeg_pair_probs(np.diag([1.0, 0.0, 0.0]), alpha=0.0, k=1)
        assert t[0, 0] == pytest.approx(1 / 3)
        for q in (1, 2):
            assert t[0, q] == pytest.approx(1 / 6)
            assert t[q, 0] == pytest.approx(1 / 6)
            for q2 in (1, 2):
                assert t[q, q2] == 0.0
        assert t.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 5, 16])
    @pytest.mark.parametrize("alpha", [0.0, 0.1, 0.5])
    def test_mixture_floor(self, d, alpha):
        # a hull element's diagonal sums to k, so the table sums to 1 above its floor
        rng = make_rng(4 + d)
        for k in (1, 2):
            for diag in _hull_diagonals(rng, d, k, 5):
                table = mbeg_pair_probs(diag, alpha=alpha, k=k)
                assert table.shape == (d, d)
                assert table.min() >= alpha / d**2 - 1e-15
                assert abs(table.sum() - 1) <= 1e-12


class _FixedUniforms:
    """Stands in for a generator whose next ``random(n)``, or ``random()``, returns the uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)

    def random(self, n=None):
        if n is None:
            return float(self.uniforms.item())
        assert n == self.uniforms.size
        return self.uniforms.copy()


class TestDrawPair:
    def test_uniform_frequencies(self):
        table = np.full((2, 2), 0.25)
        rng = make_rng(5)
        counts = np.zeros((2, 2))
        n = 100_000
        for _ in range(n):
            s, q = draw_pair(table, rng)
            counts[s, q] += 1
        assert np.max(np.abs(counts / n - 0.25)) < 0.01

    def test_point_mass_table(self):
        table = np.zeros((3, 3))
        table[1, 2] = 1.0
        rng = make_rng(6)
        assert all(draw_pair(table, rng) == (1, 2) for _ in range(50))

    def test_zero_rows_never_drawn(self):
        table = np.zeros((3, 3))
        table[0, 0] = 0.5
        table[2, 2] = 0.5
        rng = make_rng(7)
        for _ in range(200):
            s, q = draw_pair(table, rng)
            assert (s, q) in {(0, 0), (2, 2)}

    @pytest.mark.parametrize("d,k", [(2, 1), (3, 1), (5, 2), (16, 3)])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    def test_each_cdf_interval_maps_to_its_cell(self, d, k, alpha):
        # Cell j holds the uniforms [c_{j-1}, c_j) of the running sums c: its
        # midpoint maps to j, and no end of an interval (nor the largest
        # uniform) maps to a zero cell.  At alpha = 0 the sparse diagonals
        # leave zero cells, trailing ones among them.
        rng = make_rng(70 + d)
        sparse = rng.random((4, d)) * (rng.random((4, d)) < 0.5)
        sparse[:, 0] += 0.1
        diags = _hull_diagonals(rng, d, k, 3) + list(k * sparse / sparse.sum(axis=1)[:, None])
        diags.append(np.eye(d)[0] * k)
        for diag in diags:
            table = mbeg_pair_probs(diag, alpha=alpha, k=k)
            flat = table.ravel()
            c = np.cumsum(flat)
            lo = np.concatenate([[0.0], c[:-1]])
            for j in np.flatnonzero(flat > 0):
                mid = (lo[j] + c[j]) / 2
                if lo[j] < mid < c[j]:  # a cell too small to hold a midpoint has none
                    assert draw_pair(table, _FixedUniforms(mid)) == divmod(j, d)
            for u in [*c[c < 1.0], 0.0, np.nextafter(1.0, 0.0)]:
                s, q = draw_pair(table, _FixedUniforms(u))
                assert table[s, q] > 0, (u, s, q)


def _hull_diagonals(rng, d, k, count):
    """Diagonals of random hull elements: rotated spectra, not just diagonal ones."""
    return [np.diagonal(random_hull_element(rng, d, k)).copy() for _ in range(count)]


class TestDrawMbegPair:
    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_mixture_law_equals_table(self, alpha, k):
        # Exact law of the sampler: every cell of its piecewise-constant map
        # from (branch, u_s, u_q) to (s, q), weighted by the cell's volume and
        # mapped at the cell's midpoint, all cells in one block.
        rng = make_rng(40 + k)
        d = 5
        uniform_cells = [(j / d, (j + 1) / d) for j in range(d)]
        for diag in _hull_diagonals(rng, d, k, 4):
            edges = np.concatenate([[0.0], np.cumsum(diag) / diag.sum()])
            weighted_cells = list(zip(edges[:-1], edges[1:]))
            mids, masses = [], []
            for (b_lo, b_hi), s_cells, q_cells in (
                ((0.0, alpha), uniform_cells, uniform_cells),
                ((alpha, (1 + alpha) / 2), weighted_cells, uniform_cells),
                (((1 + alpha) / 2, 1.0), uniform_cells, weighted_cells),
            ):
                for s_lo, s_hi in s_cells:
                    for q_lo, q_hi in q_cells:
                        mass = (b_hi - b_lo) * (s_hi - s_lo) * (q_hi - q_lo)
                        if mass == 0:
                            continue
                        mids.append([(b_lo + b_hi) / 2, (s_lo + s_hi) / 2, (q_lo + q_hi) / 2])
                        masses.append(mass)
            s, q = MbegPairSampler(np.array(mids), d, alpha, k).coordinates(diag.cumsum())
            law = np.zeros((d, d))
            np.add.at(law, (s, q), masses)
            table = mbeg_pair_probs(diag, alpha=alpha, k=k)
            assert np.max(np.abs(law - table)) <= 1e-15

    def test_frequencies_match_table(self):
        rng = make_rng(44)
        d, k, alpha = 3, 1, 0.3
        diag = _hull_diagonals(rng, d, k, 1)[0]
        table = mbeg_pair_probs(diag, alpha=alpha, k=k)
        n = 60_000
        s, q = MbegPairSampler(rng.random((n, 3)), d, alpha, k).coordinates(diag.cumsum())
        counts = np.zeros((d, d))
        np.add.at(counts, (s, q), 1)
        # the largest cell standard deviation is below 0.0021, so 0.01 is ~5 sd
        assert np.max(np.abs(counts / n - table)) < 0.01

    @pytest.mark.parametrize("alpha", [0.05, 0.3, 0.5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_returned_probability_is_table_entry(self, alpha, k):
        rng = make_rng(45 + k)
        d = 6
        for diag in _hull_diagonals(rng, d, k, 5):
            table = mbeg_pair_probs(diag, alpha=alpha, k=k)
            sampler = MbegPairSampler(rng.random((40, 3)), d, alpha, k)
            s, q = sampler.coordinates(diag.cumsum())
            assert np.array_equal(sampler.price(diag, s, q), table[s, q])

    @pytest.mark.parametrize("d", [1, 2, 5, 16])
    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5])
    def test_block_matches_scalar_draw(self, d, alpha):
        # Random rows plus the edges of every map: 0, the largest double below
        # 1, the cell boundaries j/d and the branch thresholds themselves.
        rng = make_rng(47 + d)
        k = 1
        edges = [0.0, np.nextafter(1.0, 0.0), alpha, (1 + alpha) / 2]
        edges += [j / d for j in range(d)]
        u = np.concatenate([rng.random((300, 3)), rng.choice(edges, size=(300, 3))])
        # a uniform diagonal puts prefix sums on the edges j/d; a basis vector has zeros
        diags = _hull_diagonals(rng, d, k, 3) + [np.full(d, k / d), np.eye(d)[0] * k]
        for diag in diags:
            sampler = MbegPairSampler(u, d, alpha, k)
            ref = ScalarPairSampler(diag, alpha, k)
            cum = diag.cumsum()
            s, q = sampler.coordinates(cum)
            p = sampler.price(diag, s, q)
            expected = [ref.draw(_FixedUniforms(row)) for row in u]
            assert s.tolist() == [e[0] for e in expected]
            assert q.tolist() == [e[1] for e in expected]
            assert p.tobytes() == np.array([e[2] for e in expected]).tobytes()
            # a run of rows maps as it does inside the whole block
            s_run, q_run = sampler.coordinates(cum, 250, 420)
            assert np.array_equal(s_run, s[250:420]) and np.array_equal(q_run, q[250:420])
            assert sampler.price(diag, s_run, q_run).tobytes() == p[250:420].tobytes()

    @pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5])
    @pytest.mark.parametrize("d,k", [(2, 1), (5, 1), (5, 2), (16, 2), (16, 3)])
    def test_runs_of_rows_match_the_whole_block(self, d, k, alpha):
        # The learner takes one prefix sum per iterate, resolves many runs of
        # rows under it and prices only the row that ends a run.
        rng = make_rng(60 + 3 * d + k)
        n = 500
        sampler = MbegPairSampler(rng.random((n, 3)), d, alpha, k)
        support = np.zeros(d)
        support[rng.permutation(d)[:k]] = 1.0  # a coordinate projector's diagonal
        sparse = rng.random(d) * (rng.random(d) < 0.5)
        sparse[rng.integers(d)] += 0.1
        diags = _hull_diagonals(rng, d, k, 3) + [support, k * sparse / sparse.sum()]
        for diag in diags:
            cum = diag.cumsum()
            s, q = sampler.coordinates(cum)
            cuts = [0, *np.sort(rng.choice(np.arange(1, n), 20, replace=False)).tolist(), n]
            runs = [sampler.coordinates(cum, a, b) for a, b in zip(cuts, cuts[1:])]
            assert np.array_equal(np.concatenate([run[0] for run in runs]), s)
            assert np.array_equal(np.concatenate([run[1] for run in runs]), q)
            table = mbeg_pair_probs(diag, alpha=alpha, k=k)
            hit_prices = [sampler.price(diag, s_j, q_j) for s_j, q_j in zip(s.tolist(), q.tolist())]
            assert np.array(hit_prices).tobytes() == table[s, q].tobytes()
            assert sampler.price(diag, s, q).tobytes() == table[s, q].tobytes()


class TestMbegEstimate:
    def test_coincident_pair(self):
        dense = mbeg_estimate(0, 0, 1.0, 1.0, 0.25, d=3).to_dense()
        expected = np.zeros((3, 3))
        expected[0, 0] = 4.0
        assert np.array_equal(dense, expected)

    def test_off_diagonal_pair(self):
        dense = mbeg_estimate(0, 1, 1.0, 0.5, 1 / 16, d=4).to_dense()
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 4.0
        assert np.array_equal(dense, expected)

    def test_zero_probability(self):
        with pytest.raises(ZeroProbability):
            mbeg_estimate(0, 1, 1.0, 1.0, 0.0, d=2)

    @pytest.mark.parametrize("s,q", [(5, 0), (0, 3), (-1, 0)])
    def test_pair_outside_the_dimension(self, s, q):
        # unchecked, the term would be built and fail only later, in to_dense
        with pytest.raises(BadIndex):
            mbeg_estimate(s, q, 1.0, 1.0, 0.1, d=3)

    def test_importance_weight_divides_by_p_or_2p_at_scalars_and_arrays(self):
        # mbeg weighs its hit pair at scalars and its trace rows at arrays
        rng = make_rng(12)
        s, q = rng.integers(0, 3, size=(2, 200))
        prod, p = rng.uniform(-1, 1, 200), rng.uniform(1e-3, 1, 200)
        rows = list(zip(s.tolist(), q.tolist(), prod, p))
        expected = np.array([x / pr if a == b else x / (2 * pr) for a, b, x, pr in rows])
        assert 0 < np.count_nonzero(s == q) < 200
        assert importance_weight(s, q, prod, p).tobytes() == expected.tobytes()
        scalars = np.array([importance_weight(*row) for row in rows])
        assert scalars.tobytes() == expected.tobytes()

    def test_exact_unbiasedness_over_all_pairs(self):
        # probability-weighted sum over all ordered pairs reproduces x x^T
        rng = make_rng(8)
        d = 4
        x = np.array([1.0, -1.0, 0.5, 0.0]) / np.sqrt(2.25)
        for _ in range(10):
            lam = random_hull_spectrum(rng, d, 1)
            alpha = float(rng.uniform(0.05, 0.5))
            table = mbeg_pair_probs(np.diag(lam), alpha=alpha, k=1)
            total = np.zeros((d, d))
            for s in range(d):
                for q in range(d):
                    p = float(table[s, q])
                    total += p * mbeg_estimate(s, q, x[s], x[q], p, d=d).to_dense()
            assert np.max(np.abs(total - np.outer(x, x))) <= 1e-10

    def test_spectral_norm_bounds(self):
        # off-diagonal pairs stay within d^2/(2 alpha); the coincident pair
        # doubles (both terms land on one diagonal cell), within d^2/alpha
        rng = make_rng(9)
        d, k, alpha = 5, 2, 0.25
        for _ in range(200):
            lam = random_hull_spectrum(rng, d, k)
            table = mbeg_pair_probs(np.diag(lam), alpha=alpha, k=k)
            s, q = draw_pair(table, rng)
            x_s, x_q = rng.uniform(-1, 1, size=2)
            if s == q:
                x_q = x_s
            est = mbeg_estimate(s, q, x_s, x_q, float(table[s, q]), d=d)
            norm = spectral_norm(est.to_dense())
            if s == q:
                assert norm <= d**2 / alpha + 1e-9
            else:
                assert norm <= d**2 / (2 * alpha) + 1e-9
