import numpy as np
import pytest

from subspace_bandits import decomposition
from subspace_bandits.decomposition import decompose, sample_component
from subspace_bandits.domain import check_hull_membership, projector_from_basis
from subspace_bandits.errors import NotInHull, NotOrthonormal
from subspace_bandits.seeding import make_rng
from subspace_bandits.spectral import EigenSystem, sym_eig

from util import argsort_peel, random_hull_element, random_hull_spectrum, random_projector


class TestDecompose:
    def test_half_half(self):
        mix = decompose(np.diag([0.5, 0.5]), 1)
        assert mix.size == 2
        weights = sorted(w for w, _ in mix.components)
        assert weights == pytest.approx([0.5, 0.5])
        mats = sorted(tuple(np.round(p.matrix, 12).ravel()) for _, p in mix.components)
        assert mats == [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 0.0)]

    def test_projector_is_single_component(self):
        pi = random_projector(make_rng(1), 5, 2)
        mix = decompose(pi.matrix, 2)
        assert mix.size == 1
        assert mix.components[0][0] == pytest.approx(1.0)
        assert np.max(np.abs(mix.components[0][1].matrix - pi.matrix)) <= 1e-8

    @pytest.mark.parametrize("d,k", [(4, 1), (6, 2), (8, 3)])
    def test_random_hull_elements(self, d, k):
        rng = make_rng(10 + d)
        for _ in range(60):
            h = random_hull_element(rng, d, k)
            mix = decompose(h, k)
            assert mix.size <= d
            w = mix.weights
            assert w.min() >= -1e-12
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.max(np.abs(mix.reconstruct() - h)) <= 1e-8
            for _, proj in mix.components:
                assert proj.rank == k
                assert np.max(np.abs(proj.matrix @ proj.matrix - proj.matrix)) <= 1e-8

    def test_components_share_eigenbasis(self):
        h = random_hull_element(make_rng(3), 6, 2)
        mix = decompose(h, 2)
        for _, proj in mix.components:
            commutator = proj.matrix @ h - h @ proj.matrix
            assert np.max(np.abs(commutator)) <= 1e-8

    def test_every_peeled_weight_is_positive(self):
        # each peel removes its weight from the residual mass, which starts at 1
        h = random_hull_element(make_rng(4), 7, 2)
        assert np.all(decompose(h, 2).weights > 0)

    def test_idempotent_in_distribution(self):
        h = random_hull_element(make_rng(5), 6, 2)
        first = decompose(h, 2).reconstruct()
        second = decompose(0.5 * (first + first.T), 2).reconstruct()
        assert np.max(np.abs(second - first)) <= 1e-8

    def test_tolerates_tiny_spectrum_violations(self):
        h = random_hull_element(make_rng(6), 5, 2)
        dirty = h + 1e-9 * np.eye(5)
        mix = decompose(dirty, k=2)
        assert np.max(np.abs(mix.reconstruct() - h)) <= 1e-7

    def test_rejects_matrix_outside_hull(self):
        with pytest.raises(NotInHull):
            decompose(np.diag([1.5, 0.5]), k=2)

    def test_eigensystem_is_checked_like_a_matrix(self):
        basis = np.eye(2)
        with pytest.raises(NotInHull):  # spectrum leaves [0, 1] above
            decompose(EigenSystem(values=np.array([1.5, 0.5]), vectors=basis), k=2)
        with pytest.raises(NotInHull):  # and below
            decompose(EigenSystem(values=np.array([0.6, 0.5, -0.1]), vectors=np.eye(3)), k=1)
        with pytest.raises(NotInHull):  # trace is not k
            decompose(EigenSystem(values=np.array([0.6, 0.6]), vectors=basis), k=1)
        skewed = EigenSystem(values=np.array([0.5, 0.5]), vectors=basis * (1 + 1e-6))
        with pytest.raises(NotOrthonormal):  # the basis is checked where a component is built
            decompose(skewed, k=1).projector(0)
        # a violation within 1e-8 is clipped and rescaled away
        mix = decompose(EigenSystem(values=np.array([1 + 5e-9, -5e-9]), vectors=basis), k=1)
        assert mix.size == 1 and np.array_equal(mix.weights, [1.0])

    def test_only_the_columns_a_component_uses_are_checked(self):
        vectors = np.eye(3)
        vectors[:, 2] *= 1 + 1e-6  # off orthonormal by 2e-6, above STRUCT_TOL; its weight is 0
        mix = decompose(EigenSystem(values=np.array([0.5, 0.5, 0.0]), vectors=vectors), k=1)
        assert [c.tolist() for c in mix.columns] == [[0], [1]]
        drawn = sample_component(mix, make_rng(20))
        assert any(drawn is mix.projector(i) for i in range(mix.size))
        assert np.array_equal(mix.reconstruct(), np.diag([0.5, 0.5, 0.0]))
        with pytest.raises(NotOrthonormal):
            projector_from_basis(vectors[:, [2]])

    def test_eigensystem_of_the_matrix_gives_the_same_mixture(self):
        rng = make_rng(19)
        for d, k in [(4, 1), (6, 2), (8, 3)]:
            h = random_hull_element(rng, d, k)
            from_matrix = decompose(h, k)
            handed = decompose(sym_eig(h), k)
            assert np.array_equal(handed.weights, from_matrix.weights)
            assert np.array_equal(handed.basis, from_matrix.basis)
            assert [c.tolist() for c in handed.columns] == [c.tolist() for c in from_matrix.columns]

    def test_uniform_initializer_decomposition(self):
        # (k/d) I decomposes into equal-weight coordinate projectors
        d, k = 5, 1
        mix = decompose((k / d) * np.eye(d), k)
        assert mix.size == d
        assert np.allclose(mix.weights, 1 / d)
        picked = sorted(int(np.argmax(np.diag(p.matrix))) for _, p in mix.components)
        assert picked == list(range(d))


def _peel_spectra():
    """(kind, spectrum, k): random, tied and zero-tail hull spectra, d <= 64, k <= 4."""
    from subspace_bandits.learners import capped_simplex_project

    rng = make_rng(23)
    cases = []
    for t in range(900):
        d = int(rng.integers(2, 65))
        k = int(rng.integers(1, min(4, d - 1) + 1))
        kind = ("random", "tied", "zero-tail")[t % 3]
        if kind == "random":
            lam = random_hull_spectrum(rng, d, k)
        elif kind == "tied":
            lam = capped_simplex_project(rng.choice([0.1, 0.4, 0.7, 1.3], size=d), k)
        else:
            v = rng.random(d) * 1.5
            v[int(rng.integers(k + 1, d + 1)):] = -5.0
            lam = capped_simplex_project(v, k)
        cases.append((kind, np.sort(lam)[::-1].copy(), k))
    for d, k in [(5, 1), (20, 1), (64, 4)]:
        cases.append(("uniform", np.full(d, k / d), k))
    return cases


def _peeled_spectrum(weights, columns, d, k):
    """sum_i w_i 1[columns_i] / k: the normalized spectrum a peel reconstructs."""
    out = np.zeros(d)
    for w, cols in zip(weights, columns):
        out[np.asarray(cols)] += w / k
    return out


class TestPlainFloatPeel:
    def test_matches_the_argsort_peel(self):
        """The same bytes for k = 1 or d < 8; otherwise the same spectrum.

        For k >= 2 and d >= 8 a weight can differ in its last bits: the
        numpy peel sums the residual pairwise, the plain-float peel left to
        right, and that sum sets the weight when the k-th largest entry is
        about to meet the largest one outside the top k.  On random and
        zero-tail spectra the columns still agree; on tied spectra the
        moved bits can break a later tie the other way and take other
        columns.  Both are exact decompositions of the same spectrum.
        """
        differing = {"weights": 0, "columns": 0}
        for kind, lam, k in _peel_spectra():
            d = lam.size
            mix = decompose(EigenSystem(values=lam, vectors=np.eye(d)), k)
            weights, columns = argsort_peel(lam, k)
            case = (kind, d, k)
            same_columns = [c.tolist() for c in mix.columns] == [c.tolist() for c in columns]
            if k == 1 or d < 8:
                assert same_columns, case
                assert mix.weights.tobytes() == np.array(weights).tobytes(), case
                continue
            peeled = _peeled_spectrum(mix.weights, mix.columns, d, k)
            assert np.max(np.abs(peeled - lam / k)) <= 1e-14, case
            if kind != "tied":
                assert same_columns, case
            if same_columns:
                assert np.max(np.abs(mix.weights - weights)) <= 4e-15, case
                differing["weights"] += mix.weights.tobytes() != np.array(weights).tobytes()
            else:
                differing["columns"] += 1
        # the cases named above do occur in this set
        assert differing["weights"] > 0 and differing["columns"] > 0, differing


class TestSampleComponent:
    def test_single_component(self):
        pi = random_projector(make_rng(7), 4, 1)
        mix = decompose(pi.matrix, 1)
        rng = make_rng(8)
        for _ in range(10):
            assert sample_component(mix, rng) is mix.components[0][1]

    def test_even_split_frequencies(self):
        mix = decompose(np.diag([0.5, 0.5]), 1)
        rng = make_rng(9)
        n = 100_000
        first = sum(
            1 for _ in range(n) if sample_component(mix, rng) is mix.components[0][1]
        )
        assert abs(first / n - 0.5) < 0.01

    def test_mean_matches_mixture(self):
        h = random_hull_element(make_rng(11), 5, 2)
        mix = decompose(h, 2)
        rng = make_rng(12)
        total = np.zeros((5, 5))
        n = 10_000
        for _ in range(n):
            total += sample_component(mix, rng).matrix
        assert np.max(np.abs(total / n - h)) <= 0.02

    def test_sampled_output_is_valid_projector(self):
        h = random_hull_element(make_rng(13), 6, 3)
        rng = make_rng(14)
        pi = sample_component(decompose(h, 3), rng)
        assert check_hull_membership(pi.matrix, k=3).passed


class TestOnDemandProjectors:
    @pytest.fixture
    def builds(self, monkeypatch):
        """Count the projectors the decomposition module builds."""
        calls = []

        def counting(v):
            calls.append(v)
            return projector_from_basis(v)

        monkeypatch.setattr(decomposition, "projector_from_basis", counting)
        return calls

    def test_sampling_builds_exactly_one_projector(self, builds):
        h = random_hull_element(make_rng(15), 20, 1)
        mix = decompose(h, 1)
        assert mix.size > 1
        assert builds == []
        drawn = sample_component(mix, make_rng(16))
        assert len(builds) == 1
        # the same draw hands out the cached projector without a rebuild
        assert sample_component(mix, make_rng(16)) is drawn
        assert len(builds) == 1
        assert any(proj is drawn for _, proj in mix.components)
        assert len(builds) == mix.size

    def test_drawn_projector_matches_eager_build(self):
        rng = make_rng(17)
        for d, k in [(5, 1), (8, 2), (20, 1), (12, 3)]:
            h = random_hull_element(rng, d, k)
            mix = decompose(h, k)
            drawn = sample_component(mix, rng)
            basis = sym_eig(h).vectors
            pos = next(i for i in range(mix.size) if mix.projector(i) is drawn)
            eager = projector_from_basis(basis[:, sorted(mix.columns[pos])])
            assert np.array_equal(drawn.matrix, eager.matrix)
            assert np.array_equal(drawn.basis, eager.basis)
            assert drawn.rank == eager.rank == k

    def test_non_orthonormal_basis_raises(self, monkeypatch):
        h = random_hull_element(make_rng(18), 6, 2)

        def skewed_eig(m):
            eig = sym_eig(m)
            vectors = eig.vectors.copy()
            vectors[:, 0] *= 1 + 1e-6  # off orthonormal by 2e-6, above STRUCT_TOL
            return EigenSystem(values=eig.values, vectors=vectors)

        monkeypatch.setattr(decomposition, "sym_eig", skewed_eig)
        mix = decompose(h, 2)  # column 0 carries the largest eigenvalue: component 0 uses it
        with pytest.raises(NotOrthonormal):
            mix.projector(0)
