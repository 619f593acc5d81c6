"""Exact loss evaluation against known moments, and coin-identification scoring.

For a projector P and moments (C, E||x||^2) the expected squared distance is
E||x - P x||^2 = E||x||^2 - <P, C>, an identity for exact moments, so the
excess over the optimal projector is computed without sampling error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import ProjectionMatrix
from .errors import DimMismatch, InvalidMatrix, MissingBasis
from .oracles import DistributionSpec, Moments
from .spectral import frob_inner

# Excess this far below zero is floating-point noise and reported as 0;
# anything lower indicates inconsistent inputs.
NEG_EXCESS_TOL = 1e-9


@dataclass(frozen=True)
class LossReport:
    loss: float
    optimal_loss: float
    excess: float


@dataclass(frozen=True, eq=False)
class CoinReport:
    """Overlap scores for a coin fixture.

    ``theta[j]`` is the squared projection mass the candidate basis puts on
    direction j; coin j counts as identified when the mass favors the biased
    side; ``beta`` is the identified fraction.
    """

    theta: np.ndarray
    identified: frozenset[int]
    beta: float


def loss(pi: ProjectionMatrix, mom: Moments) -> float:
    """Expected squared distance E||x||^2 - <P, C>; ``frob_inner`` checks the dimensions."""
    return mom.mean_sq_norm - frob_inner(pi.matrix, mom.C)


def _optimal_loss(mom: Moments, k: int) -> float:
    """The optimal rank-k loss E||x||^2 - (top k eigenvalues of C)."""
    if not 1 <= k < mom.dim:
        raise DimMismatch(f"k={k} out of range for dimension {mom.dim}")
    return mom.mean_sq_norm - float(np.sum(mom.eig.values[:k]))


def excess_loss(pi: ProjectionMatrix, mom: Moments, k: int) -> LossReport:
    """Loss of ``pi`` minus the optimal loss; tiny negatives report as 0.

    The optimal loss comes from C's eigensystem, computed once per
    :class:`Moments`; the optimal projector itself is never built.
    """
    value = loss(pi, mom)
    best = _optimal_loss(mom, k)
    excess = value - best
    if excess < -NEG_EXCESS_TOL:
        raise InvalidMatrix(
            f"excess {excess:.3g} below -{NEG_EXCESS_TOL}: projector beats the exact optimum, "
            "inputs are inconsistent"
        )
    return LossReport(loss=value, optimal_loss=best, excess=max(excess, 0.0))


def identified_fraction(pi_hat: ProjectionMatrix, fixture: DistributionSpec) -> CoinReport:
    """Score a projector against a coin fixture.

    For each of the 2k fixture directions u_j (its support points), theta[j]
    sums the squared normalized overlaps |<u_hat_i, u_j>| / (||u_hat_i|| ||u_j||)
    over the projector's basis vectors; k is the number of signs.  Coin j is
    identified when the overlap mass sits on the side its bias favors:
    theta[j] > theta[j+k] for a +1 sign, theta[j] < theta[j+k] for a -1 sign.
    """
    if fixture.coin is None:
        raise MissingBasis(f"distribution {fixture.tag!r} carries no coin structure")
    signs = fixture.coin.signs
    basis = pi_hat.basis  # (d, k_hat)
    if basis.shape[0] != fixture.d:
        raise DimMismatch(f"projector dimension {basis.shape[0]} != fixture dimension {fixture.d}")

    directions = fixture.points  # (2k, d)
    u_norms = np.linalg.norm(directions, axis=1)
    b_norms = np.linalg.norm(basis, axis=0)
    overlaps = np.abs(directions @ basis) / (u_norms[:, None] * b_norms[None, :])
    theta = np.sum(overlaps**2, axis=1)  # (2k,)

    k = signs.size
    # the sign times theta[j] - theta[j + k] is positive on the favored side
    identified = frozenset(j for j in range(k) if signs[j] * (theta[j] - theta[j + k]) > 0)
    return CoinReport(theta=theta, identified=identified, beta=len(identified) / k)
