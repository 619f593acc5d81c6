"""Dense symmetric-matrix kernels.

Everything downstream (learners, projections, loss evaluation) goes through
these few primitives: symmetric ingest, eigendecomposition with a
deterministic ordering, and the Frobenius inner product.
Matrices are plain float64 ``numpy`` arrays; ``sym_matrix`` is the single
ingest point that symmetrizes once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, InvalidMatrix

# Eigenvalues closer than this are treated as tied for ordering purposes.
TIE_TOL = 1e-12
# Spectrum floor applied before log: strictly positive iterates can underflow,
# and the clamp is invisible after any subsequent spectrum projection.
LOG_FLOOR = 1e-300


def sym_matrix(entries) -> np.ndarray:
    """Ingest a square array as symmetric storage: returns (A + A^T)/2.

    Raises :class:`InvalidMatrix` for non-square or non-finite input.
    """
    a = np.array(entries, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidMatrix(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix("matrix entries must be finite")
    return 0.5 * (a + a.T)


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigendecomposition with ``values`` non-increasing.

    ``vectors[:, j]`` pairs with ``values[j]``.  Within a group of eigenvalues
    tied to within ``TIE_TOL`` the pairing is interchangeable; the group is
    ordered deterministically (see :func:`sym_eig`).
    """

    values: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.values.size

    def reconstruct(self) -> np.ndarray:
        m = (self.vectors * self.values) @ self.vectors.T
        return 0.5 * (m + m.T)


def _canonicalize_signs(vecs: np.ndarray) -> None:
    """Flip each column so its first non-negligible component is positive."""
    # A column with no entry above TIE_TOL leads with vecs[0, j] >= -TIE_TOL.
    lead = vecs[(np.abs(vecs) > TIE_TOL).argmax(axis=0), np.arange(vecs.shape[1])]
    vecs *= np.where(lead < -TIE_TOL, -1.0, 1.0)


def sym_eig(m) -> EigenSystem:
    """Eigendecomposition of a symmetric matrix with a deterministic order.

    Eigenvalues are returned non-increasing.  Every eigenvector is
    sign-canonicalized (first non-negligible component positive), and groups
    of eigenvalues tied to within ``TIE_TOL`` have their eigenvectors sorted
    in descending lexicographic order, so repeated runs and reordered inputs
    produce the same basis for degenerate spectra (e.g. the identity yields
    the standard basis e_1, ..., e_d in order).
    """
    a = sym_matrix(m)
    vals, vecs = np.linalg.eigh(a)
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    _canonicalize_signs(vecs)

    # Tie groups are maximal runs whose consecutive gaps are at most TIE_TOL.
    # Within a group, a stable ascending lexsort of the negated columns (first
    # coordinate as primary key) is the stable descending lexicographic order.
    bounds = [0, *(np.flatnonzero(vals[:-1] - vals[1:] > TIE_TOL) + 1).tolist(), vals.size]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        if stop - start > 1:
            group = vecs[:, start:stop]
            vecs[:, start:stop] = group[:, np.lexsort(-group[::-1])]
    return EigenSystem(values=vals, vectors=vecs)


def frob_inner(a, b) -> float:
    """Entrywise inner product sum_ij A_ij B_ij (= tr(AB) for symmetric A, B)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimMismatch(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.sum(a * b))

