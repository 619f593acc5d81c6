import numpy as np
import pytest

from subspace_bandits.domain import (
    DomainSpec,
    ProjectionMatrix,
    check_hull_membership,
    projector_from_basis,
    top_k_projector,
    validate_instance,
)
from subspace_bandits.errors import (
    DimMismatch,
    InfNormViolation,
    InvalidMatrix,
    NormViolation,
    NotOrthonormal,
)

from util import random_orthonormal, random_projector


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestDomainSpec:
    def test_valid(self):
        spec = DomainSpec(d=10, k=2, r=4, G=1.0)
        assert spec.d == 10

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(d=1, k=1, r=1, G=1.0),
            dict(d=4, k=4, r=2, G=1.0),
            dict(d=4, k=0, r=2, G=1.0),
            dict(d=4, k=1, r=0, G=1.0),
            dict(d=4, k=1, r=5, G=1.0),
            dict(d=4, k=1, r=2, G=0.0),
            dict(d=4, k=1, r=2, G=5.0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ValueError):
            DomainSpec(**kwargs)

    def test_warns_when_k_exceeds_sqrt_d(self):
        with pytest.warns(UserWarning, match="sqrt"):
            DomainSpec(d=4, k=3, r=2, G=1.0)


class TestValidateInstance:
    def test_basis_vector_ok(self):
        spec = DomainSpec(d=3, k=1, r=2, G=1.0)
        x = validate_instance([1.0, 0.0, 0.0], spec)
        assert x.dtype == np.float64 and np.array_equal(x, np.array([1.0, 0.0, 0.0]))

    def test_norm_violation_carries_value(self):
        spec = DomainSpec(d=2, k=1, r=2, G=1.0)
        with pytest.raises(NormViolation) as err:
            validate_instance([1.0, 1.0], spec)
        assert err.value.sq_norm == pytest.approx(2.0)

    def test_inf_norm_violation(self):
        # G=4 admits the squared norm, but the coordinate cap still rejects 2*e1
        with pytest.raises(InfNormViolation):
            validate_instance([2.0, 0.0, 0.0, 0.0], DomainSpec(d=4, k=1, r=2, G=4.0))

    def test_wrong_length(self):
        spec = DomainSpec(d=3, k=1, r=2, G=1.0)
        with pytest.raises(DimMismatch):
            validate_instance([1.0, 0.0], spec)


class TestProjectorFromBasis:
    def test_single_coordinate(self):
        pi = projector_from_basis(np.array([1.0, 0.0, 0.0]))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        assert np.array_equal(pi.matrix, expected)
        assert pi.rank == 1

    def test_two_coordinates(self):
        v = np.zeros((3, 2))
        v[0, 0] = 1.0
        v[1, 1] = 1.0
        pi = projector_from_basis(v)
        assert np.array_equal(pi.matrix, np.diag([1.0, 1.0, 0.0]))

    def test_random_basis_invariants(self):
        rng = rng_for(21)
        v = random_orthonormal(rng, 5, 2)
        pi = projector_from_basis(v)
        assert abs(np.trace(pi.matrix) - 2) <= 1e-9
        assert np.max(np.abs(pi.matrix @ pi.matrix - pi.matrix)) <= 1e-9

    def test_invariant_to_basis_rotation(self):
        rng = rng_for(22)
        v = random_orthonormal(rng, 5, 2)
        for _ in range(2):
            q = random_orthonormal(rng, 2, 2)
            assert np.max(np.abs(projector_from_basis(v @ q).matrix - projector_from_basis(v).matrix)) <= 1e-9

    def test_rejects_non_orthonormal(self):
        with pytest.raises(NotOrthonormal):
            projector_from_basis(np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))


class TestHullMembership:
    def test_initializer_passes(self):
        report = check_hull_membership((2 / 4) * np.eye(4), k=2)
        assert report.passed

    def test_eigenvalue_above_one_fails(self):
        report = check_hull_membership(np.diag([1.5, 0.5]), k=2)
        assert not report.passed
        assert report.max_eigenvalue > 1

    def test_any_projector_passes(self):
        rng = rng_for(23)
        for k in (1, 2):
            pi = random_projector(rng, 5, k)
            assert check_hull_membership(pi.matrix, k=k).passed


class TestProjectionMatrixType:
    # Columns pass the orthonormality check (off by 0.9e-8 <= STRUCT_TOL), yet
    # their products can leave the matrix checks' 1e-8, so those checks still bite.
    DELTA = 0.9e-8

    def test_rejects_non_idempotent(self):
        # V = H S / sqrt(2) with S^2 = I + delta J: V^T V - I = delta J, and
        # V V^T = diag(1 + 2 delta, 1) is 2 delta from idempotent.
        c = (np.sqrt(1 + 2 * self.DELTA) - 1) / 2
        v = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2) @ (np.eye(2) + c * np.ones((2, 2)))
        with pytest.raises(InvalidMatrix, match="not idempotent"):
            ProjectionMatrix(v)

    def test_rejects_wrong_trace(self):
        # two columns of squared norm 1 + delta: trace 2 + 2 delta, idempotent within delta
        with pytest.raises(InvalidMatrix, match="differs from rank 2"):
            ProjectionMatrix(np.sqrt(1 + self.DELTA) * np.eye(3, 2))

    def test_matrix_rank_and_dim_come_from_the_basis(self):
        v = random_orthonormal(rng_for(25), 5, 2)
        pi = ProjectionMatrix(v)
        m = v @ v.T
        assert np.array_equal(pi.matrix, 0.5 * (m + m.T))
        assert pi.basis is v
        assert (pi.rank, pi.dim) == (2, 5)

    def test_a_basis_that_is_not_orthonormal_is_named_before_the_matrix_checks(self):
        b = np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(NotOrthonormal):
            ProjectionMatrix(b)

    def test_a_basis_with_more_columns_than_rows_is_refused(self):
        with pytest.raises(DimMismatch):
            projector_from_basis(np.eye(2, 3))


class TestTopKProjector:
    def test_deterministic_under_ties(self):
        pi = top_k_projector(np.zeros((3, 3)), 1)
        assert np.array_equal(pi.matrix, np.diag([1.0, 0.0, 0.0]))

    def test_selects_leading_space(self):
        pi = top_k_projector(np.diag([1.0, 3.0, 2.0]), 2)
        assert np.array_equal(pi.matrix, np.diag([0.0, 1.0, 1.0]))
