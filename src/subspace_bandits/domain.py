"""Problem parameters and solution-space types shared by all modules.

The instance domain is ``{x in R^d : ||x||^2 <= G, ||x||_inf <= 1}``.  A
learner outputs a rank-k projection matrix; its iterates live in the convex
hull of those projectors, i.e. symmetric matrices with spectrum in [0, 1]
and trace k.  Coordinate indices are 0-based throughout the package.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimMismatch,
    InfNormViolation,
    InvalidMatrix,
    NormViolation,
    NotOrthonormal,
)
from .spectral import EigenSystem, sym_eig, sym_matrix

# Structural invariants (orthonormality, idempotence, trace) are checked at
# 1e-8; a spectrum's distance from [0, 1] at 1e-9.  Both sit well above
# double-precision eig residuals.
STRUCT_TOL = 1e-8
MEMBER_TOL = 1e-9


@dataclass(frozen=True)
class DomainSpec:
    """Instance-domain and budget parameters.

    d: ambient dimension (>= 2); k: subspace dimension (1 <= k < d);
    r: attribute budget, the number of coordinates revealed per draw
    (1 <= r <= d); G: squared-norm bound (0 < G <= d).
    """

    d: int
    k: int
    r: int
    G: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"d must be >= 2, got {self.d}")
        if not 1 <= self.k < self.d:
            raise ValueError(f"k must satisfy 1 <= k < d, got k={self.k}, d={self.d}")
        if not 1 <= self.r <= self.d:
            raise ValueError(f"r must satisfy 1 <= r <= d, got r={self.r}, d={self.d}")
        if not 0 < self.G <= self.d:
            raise ValueError(f"G must satisfy 0 < G <= d, got G={self.G}")
        if self.k > math.sqrt(self.d):
            # Sample-size heuristics are calibrated for k <= sqrt(d); larger k
            # is well-defined but outside that regime.
            warnings.warn(
                f"k={self.k} exceeds sqrt(d)={math.sqrt(self.d):.3f}; "
                "sample-size heuristics assume k <= sqrt(d)",
                stacklevel=2,
            )


def validate_instance(x, spec: DomainSpec) -> np.ndarray:
    """Check a vector against the domain constraints and return it as a float array.

    Raises :class:`DimMismatch` for a wrong length, :class:`InvalidMatrix`
    for a non-finite entry, :class:`NormViolation` (carrying the squared
    norm) or :class:`InfNormViolation`.
    """
    v = np.asarray(x, dtype=float)
    if v.shape != (spec.d,):
        raise DimMismatch(f"expected a length-{spec.d} vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidMatrix("instance entries must be finite")
    sq = float(v @ v)
    if sq > spec.G + 1e-9:
        raise NormViolation(sq, spec.G)
    inf = float(np.max(np.abs(v))) if v.size else 0.0
    if inf > 1 + 1e-12:
        raise InfNormViolation(f"coordinate magnitude {inf:.12g} exceeds 1")
    return v


@dataclass(frozen=True, eq=False)
class ProjectionMatrix:
    """Rank-k orthogonal projector V V^T, built from V, a d x k basis of its range.

    ``matrix`` is derived from ``basis``: (V V^T + (V V^T)^T) / 2.  The
    columns are checked orthonormal first (:class:`NotOrthonormal`), then the
    matrix idempotent with trace k (:class:`InvalidMatrix`), all at
    ``STRUCT_TOL``.
    """

    basis: np.ndarray
    matrix: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        b = self.basis
        if b.ndim != 2 or b.shape[1] > b.shape[0]:
            raise DimMismatch(f"basis must be d x k with k <= d, got shape {b.shape}")
        if np.max(np.abs(b.T @ b - np.eye(self.rank))) > STRUCT_TOL:
            raise NotOrthonormal("projector basis columns are not orthonormal")
        m = b @ b.T
        m = 0.5 * (m + m.T)
        object.__setattr__(self, "matrix", m)
        if np.max(np.abs(m @ m - m)) > STRUCT_TOL:
            raise InvalidMatrix("projector is not idempotent to tolerance")
        if abs(float(np.trace(m)) - self.rank) > STRUCT_TOL:
            raise InvalidMatrix(
                f"trace {np.trace(m):.12g} differs from rank {self.rank} by more than {STRUCT_TOL}"
            )

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


@dataclass(frozen=True)
class HullMembershipReport:
    """Diagnostic from :func:`check_hull_membership`."""

    trace_error: float
    min_eigenvalue: float
    max_eigenvalue: float
    passed: bool

    def __str__(self):
        return (
            f"hull membership {'pass' if self.passed else 'FAIL'}: "
            f"trace error {self.trace_error:.3e} (tol {STRUCT_TOL:.1e}), "
            f"eigenvalues in [{self.min_eigenvalue:.6g}, {self.max_eigenvalue:.6g}] "
            f"(overshoot tol {MEMBER_TOL:.1e})"
        )


def within_hull(trace_error: float, lo: float, hi: float) -> bool:
    """The hull rule: |trace - k| <= ``STRUCT_TOL``, [lo, hi] in [0, 1] within ``MEMBER_TOL``."""
    return trace_error <= STRUCT_TOL and lo >= -MEMBER_TOL and hi <= 1 + MEMBER_TOL


def check_hull_membership(w, k: int) -> HullMembershipReport:
    """Report how far a symmetric matrix is from {spectrum in [0,1], trace k}.

    The verdict is :func:`within_hull`'s.  ``w`` is a symmetric matrix or an
    :class:`EigenSystem`, whose values are read as they are.  Purely
    diagnostic: never raises for a failing matrix.
    """
    vals = w.values if isinstance(w, EigenSystem) else np.linalg.eigvalsh(sym_matrix(w))
    trace_error = abs(float(np.sum(vals)) - k)
    lo = float(vals.min())
    hi = float(vals.max())
    return HullMembershipReport(
        trace_error=trace_error, min_eigenvalue=lo, max_eigenvalue=hi,
        passed=within_hull(trace_error, lo, hi),
    )


def projector_from_basis(v) -> ProjectionMatrix:
    """The projector V V^T of a d x k column-orthonormal matrix V; a vector is read as d x 1."""
    b = np.asarray(v, dtype=float)
    return ProjectionMatrix(b[:, None] if b.ndim == 1 else b)


def top_k_projector(m, k: int) -> ProjectionMatrix:
    """Projector onto the span of the k leading eigenvectors of a symmetric matrix.

    A square ``m`` is read as (m + m^T)/2, the symmetric part ``sym_eig``
    ingests.  Eigenvalue ties at the cut are resolved by the deterministic
    order of ``sym_eig``.
    """
    eig = sym_eig(m)
    if not 1 <= k <= eig.dim:
        raise DimMismatch(f"k={k} out of range for dimension {eig.dim}")
    return projector_from_basis(eig.vectors[:, :k])
