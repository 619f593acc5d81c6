import json

import numpy as np
import pytest

from subspace_bandits.domain import DomainSpec
from subspace_bandits.errors import (
    BadBasis,
    BadIndex,
    BadParams,
    BadProbabilities,
    DimMismatch,
    InfeasibleBasis,
    InvalidMatrix,
)
from subspace_bandits.evaluation import identified_fraction
from subspace_bandits.oracles import (
    DistributionSpec,
    Moments,
    coin_fixture,
    default_coin_basis,
    dyadic_fixture,
    exact_moments,
    from_jsonable,
    impossibility_fixture,
    load_distribution,
    make_finite_support,
    observe,
    observe_block,
    sample_instances,
    save_distribution,
)
from subspace_bandits.seeding import make_rng, pinned_cumsum
from subspace_bandits.spectral import sym_eig

from util import StubDraws, UniformQueue, random_projector


def point_mass_e0(d=3):
    spec = DomainSpec(d=d, k=1, r=2, G=1.0)
    x = np.zeros(d)
    x[0] = 1.0
    return make_finite_support([(x, 1.0)], spec, tag="pointmass")


class TestPinnedCumsum:
    def test_a_uniform_just_below_one_lands_on_the_last_row(self):
        # ten tenths sum to 1 - 2^-53 in floating point, the largest uniform:
        # unpinned, that uniform would index one row past the end
        probs = np.full(10, 0.1)
        u = np.nextafter(1.0, 0.0)
        assert np.cumsum(probs).searchsorted(u, "right") == 10
        table = pinned_cumsum(probs)
        assert table[-1] == 1.0 and np.array_equal(table[:-1], np.cumsum(probs)[:-1])
        assert table.searchsorted(u, "right") == 9
        dist = DistributionSpec(10, np.eye(10), probs, tag="tenths")
        rows = sample_instances(dist, 1, StubDraws(np.zeros((0, 1), np.intp), [u]))
        assert np.array_equal(rows, np.eye(10)[9:])
        assert np.array_equal(observe(dist, (9,), UniformQueue([u])), [1.0])

    def test_a_trailing_zero_entry_is_never_drawn(self):
        # the (1, 0, 0) diagonal's pair table at alpha = 0: the last positive
        # entry's sum is 1 - 2^-53, the largest uniform; pinning only the last
        # sum would hand that uniform to the zero entry after it
        probs = np.array([1 / 3, 1 / 6, 1 / 6, 1 / 6, 0, 0, 1 / 6, 0, 0])
        u = np.nextafter(1.0, 0.0)
        assert np.cumsum(probs)[6] == u
        table = pinned_cumsum(probs)
        assert np.array_equal(table[6:], [1.0, 1.0, 1.0])
        assert np.array_equal(table[:6], np.cumsum(probs)[:6])
        assert table.searchsorted(u, "right") == 6


class TestObserve:
    def test_point_mass_values(self):
        dist = point_mass_e0()
        values = observe(dist, (0, 1), make_rng(0))
        assert values.shape == (2,)
        assert np.array_equal(values, np.array([1.0, 0.0]))

    def test_dyadic_two_point_support(self):
        # c*eps = 1 collapses onto the planted coordinate: always (1, 1)
        dist = dyadic_fixture(4, s=1, eps=0.25, c=4.0)
        rng = make_rng(1)
        for _ in range(20):
            values = observe(dist, (1, 1), rng)
            assert tuple(values) in {(1.0, 1.0), (0.0, 0.0)}
            assert tuple(values) == (1.0, 1.0)

    def test_duplicate_indices_share_one_draw(self):
        dist = dyadic_fixture(4, s=1, eps=0.1, c=4.0)
        rng = make_rng(2)
        for _ in range(200):
            values = observe(dist, (1, 1, 1), rng)
            assert values[0] == values[1] == values[2]

    def test_bad_index(self):
        dist = point_mass_e0()
        with pytest.raises(BadIndex):
            observe(dist, (0, 3), make_rng(0))
        with pytest.raises(BadIndex):
            observe(dist, (-1,), make_rng(0))

    def test_numpy_indices_give_array_values(self):
        dist = point_mass_e0()
        for indices in (np.array([2, 0]), (np.int64(2), np.int32(0))):
            values = observe(dist, indices, make_rng(0))
            assert isinstance(values, np.ndarray)
            assert np.array_equal(values, np.array([0.0, 1.0]))

    def test_float_indices_rejected(self):
        dist = dyadic_fixture(4, s=1, eps=0.25)
        for indices in ((1.7, 0.2), (1.0, 0), (np.float64(1.0), 2), np.array([1.0, 2.0])):
            with pytest.raises(BadIndex):
                observe(dist, indices, make_rng(0))

    def test_consumes_exactly_one_uniform(self):
        dist = dyadic_fixture(4, s=1, eps=0.1, c=4.0)
        rng, twin = make_rng(5), make_rng(5)
        observe(dist, (1, 2), rng)
        twin.random()
        np.testing.assert_equal(rng.bit_generator.state, twin.bit_generator.state)

    def test_marginal_frequency_of_impossibility(self):
        # single-coordinate marginal is uniform on +-sqrt(G/d) = +-1/2
        dist = impossibility_fixture(4, 1.0, s=0)
        rng = make_rng(3)
        n = 20000
        hits = sum(1 for _ in range(n) if observe(dist, (1,), rng)[0] > 0)
        assert abs(hits / n - 0.5) < 0.02

    def test_consecutive_draws_uncorrelated(self):
        dist = impossibility_fixture(4, 1.0, s=2)
        rng = make_rng(4)
        vals = np.array([observe(dist, (0,), rng)[0] for _ in range(4000)])
        signs = np.sign(vals)
        corr = np.mean(signs[:-1] * signs[1:])
        assert abs(corr) <= 3 / np.sqrt(signs.size - 1)


def _edge_uniforms(dist, rng, count):
    """Random uniforms plus the edges of the row map: 0, the largest double
    below 1 and every cumulative probability itself."""
    edges = [0.0, np.nextafter(1.0, 0.0), *np.cumsum(dist.probs)[:-1]]
    return np.concatenate([rng.random(count), edges])


class TestObservePairs:
    """``observe_block`` reading the pairs (s, q) of each draw, as ``mbeg`` does."""

    def test_matches_observe_row_by_row(self):
        dist = coin_fixture(8, 2, 2.0, 0.4, [1.0, -1.0], default_coin_basis(8, 2, 2.0))
        rng = make_rng(6)
        u = _edge_uniforms(dist, rng, 500)
        s = rng.integers(0, 8, size=u.size)
        q = rng.integers(0, 8, size=u.size)
        x_s, x_q = observe_block(dist, (s, q), u)
        stream = UniformQueue(u)
        expected = np.array([observe(dist, (a, b), stream) for a, b in zip(s, q)])
        assert x_s.tobytes() == expected[:, 0].tobytes()
        assert x_q.tobytes() == expected[:, 1].tobytes()

    def test_bad_indices(self):
        dist = dyadic_fixture(4, s=1, eps=0.1, c=4.0)
        u = make_rng(8).random(3)
        ok = np.array([0, 1, 3])
        for bad in (np.array([0, 4, 1]), np.array([0, -1, 1]), np.array([0.0, 1.0, 2.0])):
            with pytest.raises(BadIndex):
                observe_block(dist, (bad, ok), u)
            with pytest.raises(BadIndex):
                observe_block(dist, (ok, bad), u)

    def test_coincident_pair_reads_one_coordinate(self):
        dist = dyadic_fixture(4, s=1, eps=0.1, c=4.0)
        u = make_rng(7).random(200)
        x_s, x_q = observe_block(dist, (np.full(200, 1), np.full(200, 1)), u)
        assert np.array_equal(x_s, x_q)
        assert 0 < np.count_nonzero(x_s) < 200


class TestObserveBlock:
    """``observe_block`` reading an (n, r) index block, as the split-half engine does."""

    @pytest.mark.parametrize("r", [2, 4, 6])
    def test_matches_observe_row_by_row(self, r):
        dist = coin_fixture(8, 2, 2.0, 0.4, [1.0, -1.0], default_coin_basis(8, 2, 2.0))
        rng = make_rng(10 + r)
        u = _edge_uniforms(dist, rng, 300)
        idx = rng.integers(0, 8, size=(u.size, r))
        idx[:20] = idx[:20, :1]  # rows that repeat one index r times
        values = observe_block(dist, idx, u[:, None])
        assert values.shape == (u.size, r)
        stream = UniformQueue(u)
        expected = np.array([observe(dist, row, stream) for row in idx])
        assert values.tobytes() == expected.tobytes()

    def test_bad_indices(self):
        dist = dyadic_fixture(4, s=1, eps=0.1, c=4.0)
        u = make_rng(9).random((3, 1))
        for bad in (np.array([[0, 1], [4, 0], [1, 1]]), np.array([[0, 1], [1, -1], [2, 2]]),
                    np.zeros((3, 2))):
            with pytest.raises(BadIndex):
                observe_block(dist, bad, u)

    def test_uniforms_outside_the_unit_interval(self):
        dist = dyadic_fixture(4, s=1, eps=0.1, c=4.0)
        with pytest.raises(BadIndex):
            observe_block(dist, np.zeros((2, 2), dtype=int), np.array([[0.5], [1.0]]))


class TestMakeFiniteSupport:
    def test_point_mass(self):
        dist = point_mass_e0()
        assert dist.size == 1
        mom = exact_moments(dist)
        assert mom.C[0, 0] == 1.0 and mom.mean_sq_norm == 1.0

    def test_two_spike(self):
        spec = DomainSpec(d=4, k=1, r=2, G=1.0)
        e0, e1 = np.eye(4)[0], np.eye(4)[1]
        dist = make_finite_support([(e0, 0.5), (e1, 0.5)], spec)
        mom = exact_moments(dist)
        assert np.array_equal(mom.C, np.diag([0.5, 0.5, 0.0, 0.0]))

    def test_bad_probabilities(self):
        spec = DomainSpec(d=2, k=1, r=2, G=1.0)
        e0, e1 = np.eye(2)[0], np.eye(2)[1]
        with pytest.raises(BadProbabilities):
            make_finite_support([(e0, 0.5), (e1, 0.6)], spec)

    def test_propagates_instance_validation(self):
        spec = DomainSpec(d=2, k=1, r=2, G=1.0)
        with pytest.raises(Exception):
            make_finite_support([(np.array([1.0, 1.0]), 1.0)], spec)


class TestImpossibilityFixture:
    def test_two_point_construction(self):
        dist = impossibility_fixture(2, 1.0, s=0)
        r = 1 / np.sqrt(2)
        assert np.allclose(sorted(map(tuple, dist.points)), sorted([(-r, r), (r, -r)]))
        assert np.array_equal(dist.probs, [0.5, 0.5])

    def test_moments_rank_one(self):
        d, G = 5, 2.0
        dist = impossibility_fixture(d, G, s=3)
        u = dist.points[0]
        mom = exact_moments(dist)
        assert np.max(np.abs(mom.C - np.outer(u, u))) <= 1e-12
        assert abs(np.trace(mom.C) - G) <= 1e-12

    def test_marginals_identical_for_all_plants(self):
        # enumerate the support: every coordinate's marginal law is the same
        # two-point set regardless of where the sign flip sits
        d, G = 4, 1.0
        level = np.sqrt(G / d)
        for s in range(d):
            dist = impossibility_fixture(d, G, s)
            for i in range(d):
                support = sorted(dist.points[:, i])
                assert support == pytest.approx([-level, level])

    def test_bad_plant(self):
        with pytest.raises(BadIndex):
            impossibility_fixture(4, 1.0, s=4)


class TestDyadicFixture:
    def test_construction(self):
        dist = dyadic_fixture(3, s=0, eps=0.1, c=4.0)
        assert np.array_equal(dist.probs, [0.6, 0.4])
        assert np.array_equal(dist.points[1], [1.0, 0.0, 0.0])

    def test_moments(self):
        mom = exact_moments(dyadic_fixture(3, s=0, eps=0.1, c=4.0))
        assert np.array_equal(mom.C, np.diag([0.4, 0.0, 0.0]))
        assert mom.mean_sq_norm == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=3, s=0, eps=0.3, c=4.0),   # eps above 1/4
            dict(d=3, s=0, eps=0.2, c=2.0),   # c must exceed 2
            dict(d=3, s=0, eps=0.25, c=4.1),  # spike mass above 1
            dict(d=3, s=0, eps=0.0, c=4.0),
        ],
    )
    def test_rejects_bad_params(self, kwargs):
        with pytest.raises((BadParams, BadIndex)):
            dyadic_fixture(**kwargs)

    def test_point_mass_edge(self):
        dist = dyadic_fixture(10, s=3, eps=0.25, c=4.0)
        assert dist.probs[0] == 0.0 and dist.probs[1] == 1.0


class TestCoinFixture:
    def test_single_coin_probabilities(self):
        basis = default_coin_basis(4, 1, 1.0)
        dist = coin_fixture(4, 1, 1.0, 0.5, [1.0], basis)
        assert np.allclose(dist.probs, [0.75, 0.25])

    @pytest.mark.parametrize("alpha", [0.1, 0.4, 0.9])
    @pytest.mark.parametrize("signs", [(1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)])
    def test_probabilities_sum_to_one(self, alpha, signs):
        basis = default_coin_basis(8, 2, 1.0)
        dist = coin_fixture(8, 2, 1.0, alpha, signs, basis)
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_top_eigenvectors_are_favored_directions(self):
        d, k, G, alpha = 6, 2, 1.0, 0.5
        signs = np.array([1.0, -1.0])
        basis = default_coin_basis(d, k, G)
        dist = coin_fixture(d, k, G, alpha, signs, basis)
        eig = sym_eig(exact_moments(dist).C)
        favored = [basis[0] if signs[0] > 0 else basis[k]]
        favored.append(basis[1] if signs[1] > 0 else basis[k + 1])
        assert np.allclose(eig.values[:k], G * (1 + alpha) / (2 * k))
        top = eig.vectors[:, :k]
        for u in favored:
            unit = u / np.linalg.norm(u)
            assert np.linalg.norm(top @ (top.T @ unit) - unit) <= 1e-9

    def test_rejects_bad_basis(self):
        skew = np.ones((2, 4)) * 0.5
        with pytest.raises(BadBasis):
            coin_fixture(4, 1, 1.0, 0.5, [1.0], skew)

    def test_rejects_bad_signs(self):
        basis = default_coin_basis(4, 1, 1.0)
        with pytest.raises(BadParams):
            coin_fixture(4, 1, 1.0, 0.5, [2.0], basis)

    def test_rejects_too_many_coins(self):
        basis = default_coin_basis(6, 2, 1.0)[:, :3]
        with pytest.raises(BadParams):
            coin_fixture(3, 2, 1.0, 0.5, [1.0, 1.0], basis)

    def test_rejects_alpha_at_bounds(self):
        basis = default_coin_basis(4, 1, 1.0)
        for alpha in (0.0, 1.0):
            with pytest.raises(BadParams):
                coin_fixture(4, 1, 1.0, alpha, [1.0], basis)


class TestDefaultCoinBasis:
    def test_scaled_standard_basis_when_g_small(self):
        basis = default_coin_basis(5, 2, 0.81)
        assert basis.shape == (4, 5)
        assert np.allclose(np.linalg.norm(basis, axis=1) ** 2, 0.81)
        assert np.count_nonzero(basis) == 4

    def test_sign_design_when_g_large(self):
        basis = default_coin_basis(4, 1, 2.0)
        gram = basis @ basis.T
        assert np.allclose(gram, 2.0 * np.eye(2))
        assert np.allclose(np.abs(basis), np.sqrt(2.0 / 4.0))

    def test_infeasible_when_g_exceeds_d(self):
        with pytest.raises(InfeasibleBasis):
            default_coin_basis(4, 1, 5.0)

    def test_infeasible_when_d_not_multiple(self):
        with pytest.raises(InfeasibleBasis):
            default_coin_basis(5, 2, 2.0)


class TestExactMoments:
    def test_trace_equals_mean_sq_norm_random_support(self):
        rng = make_rng(7)
        spec = DomainSpec(d=4, k=1, r=2, G=1.0)
        pts = []
        for _ in range(5):
            x = rng.standard_normal(4)
            x /= max(1.0, np.linalg.norm(x) + 1e-9) * 1.0000001
            pts.append(x)
        probs = rng.random(5)
        probs /= probs.sum()
        dist = make_finite_support(list(zip(pts, probs)), spec)
        mom = exact_moments(dist)
        direct = sum(p * float(x @ x) for x, p in zip(pts, probs))
        assert abs(np.trace(mom.C) - direct) <= 1e-12
        assert abs(mom.mean_sq_norm - direct) <= 1e-12

    @pytest.mark.parametrize(
        "dist",
        [
            impossibility_fixture(6, 1.5, s=2),
            dyadic_fixture(6, s=1, eps=0.2, c=3.0),
            coin_fixture(6, 2, 1.0, 0.4, [1.0, -1.0], default_coin_basis(6, 2, 1.0)),
        ],
        ids=["impossibility", "dyadic", "coin"],
    )
    def test_monte_carlo_consistency(self, dist):
        mom = exact_moments(dist)
        xs = sample_instances(dist, 100_000, make_rng(8))
        mc = xs.T @ xs / xs.shape[0]
        assert np.max(np.abs(mc - mom.C)) <= 0.02
        assert np.linalg.eigvalsh(mom.C).min() >= -1e-10

    def test_moments_and_their_eigensystem_take_one_eigendecomposition(self, linalg_calls):
        # The PSD check reads the spectrum that ``Moments.eig`` keeps.
        dist = coin_fixture(6, 2, 1.0, 0.4, [1.0, -1.0], default_coin_basis(6, 2, 1.0))
        linalg_calls.clear()
        mom = exact_moments(dist)
        assert mom.eig.values[-1] >= -1e-10
        assert [name for name, _ in linalg_calls] == ["eigh"]

    def test_moments_refuse_a_correlation_matrix_that_is_not_psd(self):
        with pytest.raises(InvalidMatrix, match="not PSD: min eigenvalue -1"):
            Moments(C=np.diag([2.0, -1.0]), mean_sq_norm=1.0)


class TestSampleInstances:
    def test_returned_rows_are_a_copy(self):
        dist = coin_fixture(6, 2, 1.0, 0.4, [1.0, -1.0], default_coin_basis(6, 2, 1.0))
        before = dist.points.copy()
        xs = sample_instances(dist, 50, make_rng(9))
        xs[:] = 7.0
        assert np.array_equal(dist.points, before)


class TestCachedMoments:
    def test_equal_to_exact_moments_and_shared(self):
        dist = coin_fixture(6, 2, 1.0, 0.4, [1.0, -1.0], default_coin_basis(6, 2, 1.0))
        mom = dist.moments
        fresh = exact_moments(dist)
        assert np.array_equal(mom.C, fresh.C)
        assert mom.mean_sq_norm == fresh.mean_sq_norm
        assert dist.moments is mom

    def test_shared_matrix_is_read_only(self):
        mom = dyadic_fixture(4, s=1, eps=0.2).moments
        with pytest.raises(ValueError):
            mom.C[0, 0] = 1.0

    def test_eigensystem_is_shared_and_read_only(self):
        mom = coin_fixture(8, 2, 2.0, 0.4, [1.0, -1.0], default_coin_basis(8, 2, 2.0)).moments
        assert mom.eig is mom.eig
        fresh = sym_eig(mom.C)
        assert np.array_equal(mom.eig.values, fresh.values)
        assert np.array_equal(mom.eig.vectors, fresh.vectors)
        for arr in (mom.eig.values, mom.eig.vectors):
            with pytest.raises(ValueError):
                arr[0] = 1.0


class TestJsonRoundTrip:
    def test_plain_distribution(self, tmp_path):
        dist = dyadic_fixture(5, s=2, eps=0.1, c=4.0)
        path = tmp_path / "fixture.json"
        save_distribution(dist, path)
        doc = json.loads(path.read_text())
        assert set(doc) == {"d", "tag", "support"}
        back = load_distribution(path)
        assert back.d == dist.d and back.tag == dist.tag
        assert np.array_equal(back.points, dist.points)
        assert np.array_equal(back.probs, dist.probs)

    def test_coin_metadata_round_trip(self, tmp_path):
        dist = coin_fixture(6, 2, 1.0, 0.4, [1.0, -1.0], default_coin_basis(6, 2, 1.0))
        path = tmp_path / "coin.json"
        save_distribution(dist, path)
        # the directions are the support points, written once
        assert json.loads(path.read_text())["coin"] == {"signs": [1, -1], "alpha": 0.4}
        back = load_distribution(path)
        assert back.coin is not None
        assert np.array_equal(back.points, dist.points)
        assert np.array_equal(back.coin.signs, dist.coin.signs)
        assert back.coin.alpha == dist.coin.alpha

    def test_an_older_coin_document_loads_and_scores_the_same(self, tmp_path):
        # Older documents repeat the directions under "coin": "basis" equals
        # the support points, and "G" and "k" follow from them.
        h = 0.7071067811865476
        rows = [[h, h, h, h], [h, -h, h, -h], [h, h, -h, -h], [h, -h, -h, h]]
        older = {
            "d": 4,
            "tag": "coin(d=4,k=2,G=2,alpha=0.4)",
            "support": [{"x": x, "p": p} for x, p in zip(rows, (0.35, 0.15, 0.15, 0.35))],
            "coin": {"basis": rows, "signs": [1, -1], "alpha": 0.4, "G": 2.0, "k": 2},
        }
        path = tmp_path / "older.json"
        path.write_text(json.dumps(older))
        back = load_distribution(path)
        dist = coin_fixture(4, 2, 2.0, 0.4, [1.0, -1.0], default_coin_basis(4, 2, 2.0))
        assert np.array_equal(back.points, dist.points)
        assert np.array_equal(back.probs, dist.probs)
        assert np.array_equal(back.coin.signs, dist.coin.signs)
        assert back.coin.alpha == dist.coin.alpha
        rng = make_rng(31)
        for _ in range(20):
            pi = random_projector(rng, 4, 2)
            old, new = identified_fraction(pi, back), identified_fraction(pi, dist)
            assert np.array_equal(old.theta, new.theta) and old.beta == new.beta

    @pytest.mark.parametrize("d", [2.9, True], ids=["float", "bool"])
    def test_a_document_whose_d_is_not_an_integer_is_refused(self, d):
        # int() would read 2.9 as 2 and true as 1: the fixture would change dimension silently
        doc = {"d": d, "support": [{"x": [1.0, 0.0], "p": 1.0}]}
        with pytest.raises(TypeError, match=f"fixture field 'd' must be an integer, got {d!r}"):
            from_jsonable(doc)

    def test_a_coin_document_needs_two_points_per_sign(self):
        doc = {"d": 4, "support": [{"x": [0.0, 1.0, 0.0, 0.0], "p": 1.0}],
               "coin": {"signs": [1], "alpha": 0.4}}
        with pytest.raises(DimMismatch, match="two support points per sign, got \\(1, 4\\)"):
            from_jsonable(doc)
