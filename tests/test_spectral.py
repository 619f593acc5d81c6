import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_bandits.errors import DimMismatch, InvalidMatrix
from subspace_bandits.spectral import (
    frob_inner,
    sym_eig,
    sym_matrix,
)

from util import loop_sym_eig, random_orthonormal, spectral_norm


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=seed))


class TestSymMatrix:
    def test_symmetrizes_once(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        m = sym_matrix(a)
        assert np.array_equal(m, m.T)
        assert m[0, 1] == 1.0

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidMatrix):
            sym_matrix(np.zeros((2, 3)))

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            sym_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(3))
        assert np.array_equal(eig.values, np.ones(3))
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(3))) <= 1e-10

    def test_identity_tie_break_gives_standard_order(self):
        eig = sym_eig(np.eye(4))
        assert np.allclose(eig.vectors, np.eye(4))

    def test_diagonal(self):
        eig = sym_eig(np.diag([2.0, -1.0]))
        assert np.array_equal(eig.values, np.array([2.0, -1.0]))
        assert np.allclose(np.abs(eig.vectors), np.eye(2))

    def test_random_reconstruction(self):
        rng = rng_for(11)
        m = sym_matrix(rng.standard_normal((5, 5)))
        eig = sym_eig(m)
        assert np.max(np.abs(eig.reconstruct() - m)) <= 1e-8 * (1 + np.max(np.abs(m)))

    @pytest.mark.parametrize("d", [2, 8, 17, 64])
    def test_reconstruction_across_sizes(self, d):
        rng = rng_for(100 + d)
        m = sym_matrix(rng.standard_normal((d, d)) * 3.0)
        eig = sym_eig(m)
        assert np.all(np.diff(eig.values) <= 0)
        assert np.max(np.abs(eig.vectors.T @ eig.vectors - np.eye(d))) <= 1e-10
        assert np.max(np.abs(eig.reconstruct() - m)) <= 1e-8 * (1 + np.max(np.abs(m)))

    def test_tied_groups_ordered_by_lowest_coordinate(self):
        # within a tied group the descending-lex rule puts the lowest
        # coordinate first for diagonal input
        eig = sym_eig(np.diag([1.0, 2.0, 1.0, 2.0]))
        expected = np.zeros((4, 4))
        for col, coord in enumerate([1, 3, 0, 2]):
            expected[coord, col] = 1.0
        assert np.array_equal(eig.values, np.array([2.0, 2.0, 1.0, 1.0]))
        assert np.allclose(eig.vectors, expected)

    def test_bit_identical_to_loop_reference(self):
        rng = rng_for(7)
        block = sym_matrix(rng.standard_normal((3, 3)))
        cases = [np.eye(d) for d in (1, 2, 4, 16)]
        cases += [np.diag([1.0, 2.0, 1.0, 2.0]), np.zeros((3, 3))]
        # eigenvectors whose leading components vanish: the sign rule skips
        # to the first entry above TIE_TOL
        cases += [
            np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 1.0], [0.0, 1.0, 2.0]]),
            np.kron(np.diag([0.0, 1.0]), block),
        ]
        cases += [sym_matrix(rng.standard_normal((d, d))) for d in (2, 5, 8, 16, 17)]
        # tie groups in a rotated basis, where eigh's order within a group is arbitrary
        for d in (3, 6, 9):
            v = random_orthonormal(rng, d, d)
            cases.append((v * rng.integers(0, 3, d).astype(float)) @ v.T)
        cases += [np.diag(rng.integers(-2, 3, 12).astype(float)) for _ in range(3)]
        for i, m in enumerate(cases):
            got, want = sym_eig(m), loop_sym_eig(m)
            assert np.array_equal(got.values, want.values), i
            assert np.array_equal(got.vectors, want.vectors), i
            assert np.array_equal(np.signbit(got.vectors), np.signbit(want.vectors)), i

    def test_sign_canonicalization(self):
        eig = sym_eig(np.diag([3.0, 1.0]))
        assert eig.vectors[0, 0] > 0 and eig.vectors[1, 1] > 0

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidMatrix):
            sym_eig(np.full((2, 2), np.inf))


class TestFrobInner:
    def test_identity_pair(self):
        assert frob_inner(np.eye(4), np.eye(4)) == 4.0

    def test_disjoint_support(self):
        e11 = np.zeros((3, 3))
        e11[0, 0] = 1.0
        e22 = np.zeros((3, 3))
        e22[1, 1] = 1.0
        assert frob_inner(e11, e22) == 0.0

    def test_matches_trace_of_product(self):
        rng = rng_for(7)
        for _ in range(20):
            a = sym_matrix(rng.standard_normal((4, 4)))
            b = sym_matrix(rng.standard_normal((4, 4)))
            assert abs(frob_inner(a, b) - np.trace(a @ b)) <= 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            frob_inner(np.eye(2), np.eye(3))

    @given(st.integers(0, 2**32 - 1), st.floats(-3, 3), st.floats(-3, 3))
    @settings(max_examples=40, deadline=None)
    def test_bilinear_and_symmetric(self, seed, s, t):
        rng = rng_for(seed)
        a, b, c = (sym_matrix(rng.standard_normal((3, 3))) for _ in range(3))
        lhs = frob_inner(s * a + t * b, c)
        rhs = s * frob_inner(a, c) + t * frob_inner(b, c)
        scale = 1 + abs(lhs) + abs(rhs)
        assert abs(lhs - rhs) <= 1e-12 * scale
        assert abs(frob_inner(a, b) - frob_inner(b, a)) <= 1e-12


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -5.0])) == 5.0

    def test_projector(self):
        rng = rng_for(8)
        v = random_orthonormal(rng, 5, 2)
        assert abs(spectral_norm(v @ v.T) - 1.0) <= 1e-10

    def test_triangle_inequality(self):
        rng = rng_for(9)
        for _ in range(30):
            a = sym_matrix(rng.standard_normal((4, 4)))
            b = sym_matrix(rng.standard_normal((4, 4)))
            assert spectral_norm(a + b) <= spectral_norm(a) + spectral_norm(b) + 1e-12

    def test_split_half_estimate_bound(self):
        # symmetrized cross estimate stays within 4 d^2 G / r^2 = 16 for
        # d=4, r=2, G=1 (each half is a single scaled coordinate)
        rng = rng_for(10)
        d, G = 4, 1.0
        bound = 4 * d**2 * G / 4
        for _ in range(2000):
            x = rng.standard_normal(d)
            x /= np.linalg.norm(x)
            i, j = rng.integers(0, d, size=2)
            x_hat = np.zeros(d)
            y_hat = np.zeros(d)
            x_hat[i] = d * x[i]  # 2d/r = d at r=2
            y_hat[j] = d * x[j]
            est = 0.5 * np.outer(x_hat, y_hat) + 0.5 * np.outer(y_hat, x_hat)
            assert spectral_norm(est) <= bound + 1e-9
