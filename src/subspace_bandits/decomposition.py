"""Decompose a hull element into a convex combination of rank-k projectors.

Any symmetric matrix with spectrum in [0, 1] and trace k is a convex
combination of at most d rank-k projectors sharing its eigenbasis.  The
procedure works on the spectrum normalized by k: repeatedly take the k
largest entries J, peel off weight

    alpha_i = min( k * min_{j in J} lambda_j,  sum(lambda) - k * max_{j not in J} lambda_j )

with the corresponding projector onto the J-eigenvectors, and subtract.  The
loop terminates in at most d iterations, the weights are a probability
vector, and the weighted projector sum reconstructs the input.  Sampling a
component with its weight yields a random projector whose expectation is the
input element.
"""

from __future__ import annotations

import numpy as np

from .domain import ProjectionMatrix, projector_from_basis
from .errors import NonTermination, NotInHull
from .seeding import pinned_cumsum
from .spectral import EigenSystem, sym_eig

# Residual spectrum entries at or below this count as zero.
ZERO_TOL = 1e-10
# Eigenvalues may leave [0, 1] by at most this much before decomposition refuses.
INPUT_TOL = 1e-8


class MixtureDecomposition:
    """Convex weights over at most d projectors sharing one eigenbasis.

    Component i is the projector onto ``basis[:, columns[i]]``.  It is built
    (by :func:`projector_from_basis`, which checks those columns orthonormal)
    on first access and cached, so a caller that samples one component pays
    for one projector, and repeated access returns the same object.
    """

    __slots__ = ("_weights", "basis", "columns", "_projectors")

    def __init__(self, weights, basis: np.ndarray, columns):
        w = np.array(weights, dtype=float)
        if w.size == 0:
            raise NotInHull("decomposition must have at least one component")
        if float(w.min()) < -1e-12:
            raise NotInHull(f"negative mixture weight {w.min():.3g}")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise NotInHull(f"mixture weights sum to {w.sum():.12g}, not 1")
        self._weights = w
        self.basis = basis
        self.columns = tuple(columns)
        self._projectors: list[ProjectionMatrix | None] = [None] * w.size

    @property
    def size(self) -> int:
        return self._weights.size

    @property
    def weights(self) -> np.ndarray:
        return self._weights.copy()

    def projector(self, i: int) -> ProjectionMatrix:
        """Component i's projector, built on first access."""
        proj = self._projectors[i]
        if proj is None:
            proj = self._projectors[i] = projector_from_basis(self.basis[:, self.columns[i]])
        return proj

    @property
    def components(self) -> tuple[tuple[float, ProjectionMatrix], ...]:
        """(weight, projector) pairs; builds every projector not yet built."""
        return tuple((float(w), self.projector(i)) for i, w in enumerate(self._weights))

    def reconstruct(self) -> np.ndarray:
        out = np.zeros((self.basis.shape[0],) * 2)
        for weight, proj in self.components:
            out += weight * proj.matrix
        return out


def decompose(w, k: int) -> MixtureDecomposition:
    """Decompose a hull element of trace k into at most d weighted rank-k projectors.

    ``w`` is a symmetric matrix or an :class:`EigenSystem`; an eigensystem
    is used as it is (non-increasing values), so a caller that already holds
    the element's spectrum and basis skips the eigendecomposition; a
    component's columns are checked orthonormal when it is built.
    Eigenvalues outside [0, 1] by at most 1e-8 are clipped and the spectrum
    rescaled to trace exactly k before the loop; larger violations raise
    :class:`NotInHull`.  Failure of the residual to vanish within d
    iterations raises :class:`NonTermination` (an internal tolerance bug,
    never silent truncation).
    """
    eig = w if isinstance(w, EigenSystem) else sym_eig(w)
    d = eig.dim
    vals = eig.values
    if float(vals.min()) < -INPUT_TOL or float(vals.max()) > 1 + INPUT_TOL:
        raise NotInHull(
            f"spectrum [{vals.min():.6g}, {vals.max():.6g}] leaves [0, 1] by more than {INPUT_TOL}"
        )
    if abs(float(vals.sum()) - k) > INPUT_TOL:
        raise NotInHull(f"trace {vals.sum():.12g} differs from k={k} by more than {INPUT_TOL}")

    clipped = np.clip(vals, 0.0, 1.0)
    clipped *= k / clipped.sum()
    lam = (clipped / k).tolist()  # normalized spectrum, sums to 1

    weights: list[float] = []
    columns: list[list[int]] = []

    # The peel runs on plain floats: the spectrum has only d entries, so one
    # sort per component in Python costs less than numpy's call overhead.
    positions = range(d)
    for _ in range(d):
        if max(lam) <= ZERO_TOL:
            break
        # Python's sort is stable, so ties go to the lowest index.
        order = sorted(positions, key=lam.__getitem__, reverse=True)
        top = order[:k]
        s = lam[order[k - 1]]  # smallest entry of the top k
        ell = lam[order[k]] if k < d else 0.0  # largest entry outside it
        total = sum(lam)
        alpha = min(s * k, total - ell * k)
        if alpha <= ZERO_TOL:
            raise NonTermination(
                f"stalled with residual l1={total:.3g} and step weight {alpha:.3g}"
            )
        step = alpha / k
        for j in top:
            lam[j] = max(lam[j] - step, 0.0)
        weights.append(alpha)
        columns.append(sorted(top))
    if max(lam) > ZERO_TOL:
        raise NonTermination(f"residual spectrum did not vanish in {d} iterations")

    return MixtureDecomposition(
        weights, eig.vectors, np.array(columns, dtype=np.intp).reshape(-1, k)
    )


def sample_component(mix: MixtureDecomposition, rng: np.random.Generator) -> ProjectionMatrix:
    """Draw one projector with the mixture's law (weights clipped at 0, renormalized)."""
    w = np.clip(mix.weights, 0.0, None)
    return mix.projector(int(pinned_cumsum(w / w.sum()).searchsorted(rng.random(), "right")))
