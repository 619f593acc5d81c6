"""Unbiased estimators of the correlation matrix from partial observations.

Two families:

* the uniform split-half estimator -- draw r coordinates uniformly with
  replacement, scale each half by 2d/r, and form the cross outer product;
  used by the uniform-sampling learners;
* the importance-weighted single-pair estimator -- draw an ordered coordinate
  pair (s, q) from a mixture of the iterate's diagonal and the uniform
  distribution, and divide the observed product by the pair probability;
  used by the exponentiated-gradient learner.

Both are exactly unbiased for E[x x^T]: the probability-weighted sum of the
single-pair estimate over all d^2 ordered pairs reproduces x x^T identically,
and averaging the split-half estimate over all index tuples does the same.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec
from .errors import BadAlpha, BadProbabilities, DimMismatch, OddBudget, ZeroProbability
from .oracles import PartialObservation

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class SplitHalves:
    """The two scaled half-sums x_hat, y_hat built from one observation.

    x_hat accumulates (2d/r) * value * e_index over the first r/2 draws
    (duplicate indices accumulate additively), y_hat over the second half.
    Each half is a dense length-d vector with at most r/2 nonzero entries.
    """

    x_hat: np.ndarray
    y_hat: np.ndarray

    @property
    def dim(self) -> int:
        return self.x_hat.size


@dataclass(frozen=True, eq=False)
class SparseEstimate:
    """Sparse rank <= 2 estimate stored as (row, col, value) terms.

    With ``symmetric=True`` an off-diagonal term (i, j, v) implies the mirror
    entry (j, i, v); diagonal terms are stored once at their full value.
    """

    dim: int
    terms: tuple[tuple[int, int, float], ...]
    symmetric: bool = True

    def to_dense(self) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for i, j, v in self.terms:
            m[i, j] += v
            if self.symmetric and i != j:
                m[j, i] += v
        return m


def draw_uniform_indices(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """r indices i.i.d. uniform on [0, d), duplicates allowed; r must be even."""
    if r < 2 or r % 2 != 0:
        raise OddBudget(f"split-half estimators need an even budget r >= 2, got r={r}")
    return rng.integers(0, d, size=r)


def split_halves(obs: PartialObservation, spec: DomainSpec) -> SplitHalves:
    """Scaled half-sums of one observation (budget = spec.r, even)."""
    r = spec.r
    if r < 2 or r % 2 != 0:
        raise OddBudget(f"split-half estimators need an even budget r >= 2, got r={r}")
    if obs.budget != r:
        raise DimMismatch(f"observation has {obs.budget} coordinates, expected r={r}")
    scale = 2.0 * spec.d / r
    half = r // 2
    x_hat = np.zeros(spec.d)
    y_hat = np.zeros(spec.d)
    for t in range(half):
        x_hat[obs.indices[t]] += scale * obs.values[t]
    for t in range(half, r):
        y_hat[obs.indices[t]] += scale * obs.values[t]
    return SplitHalves(x_hat=x_hat, y_hat=y_hat)


def estimate_asym(h: SplitHalves) -> SparseEstimate:
    """The raw cross term (1/2) x_hat y_hat^T, without symmetrization.

    The uniform-sampling spectral learner accumulates these and symmetrizes
    once at the end; the factor 1/2 rescales the spectrum but not the
    eigenvectors, so the output projector is unaffected.
    """
    terms = []
    for i in np.flatnonzero(h.x_hat):
        xi = h.x_hat[i]
        for j in np.flatnonzero(h.y_hat):
            terms.append((int(i), int(j), 0.5 * xi * h.y_hat[j]))
    return SparseEstimate(dim=h.dim, terms=tuple(terms), symmetric=False)


def estimate_sym(h: SplitHalves) -> SparseEstimate:
    """Symmetric split-half estimate (1/2) x_hat y_hat^T + (1/2) y_hat x_hat^T.

    Unbiased for E[x x^T] under uniform index draws.
    """
    terms = []
    for i in np.flatnonzero(h.x_hat):
        xi = h.x_hat[i]
        for j in np.flatnonzero(h.y_hat):
            if i == j:
                terms.append((int(i), int(i), xi * h.y_hat[j]))
            else:
                terms.append((int(i), int(j), 0.5 * xi * h.y_hat[j]))
    return SparseEstimate(dim=h.dim, terms=tuple(terms), symmetric=True)


@dataclass(frozen=True, eq=False)
class PairProbabilities:
    """Distribution over ordered coordinate pairs (s, q) with a uniform floor.

    Every entry is at least alpha / d^2 and the table sums to 1.
    """

    table: np.ndarray
    alpha: float

    def __post_init__(self):
        t = self.table
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise DimMismatch(f"pair table must be square, got {t.shape}")
        total = float(t.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise BadProbabilities(f"pair probabilities sum to {total:.15g}, not 1")
        floor = self.alpha / t.size
        if float(t.min()) < floor - 1e-15:
            raise BadProbabilities(
                f"pair probability {t.min():.3g} below the mixture floor {floor:.3g}"
            )

    @property
    def dim(self) -> int:
        return self.table.shape[0]


def mbeg_pair_probs(w, alpha: float, k: int) -> PairProbabilities:
    """Pair-sampling table p_{s,q} = (1-alpha)(W_ss + W_qq)/(2dk) + alpha/d^2.

    ``w`` may be a square matrix or its diagonal.  Mixing
    with the uniform distribution keeps every pair's probability at least
    alpha/d^2; since the diagonal sums to k, the table sums to 1.  alpha = 0
    is accepted for the bare diagonal-weighted table (the learner itself
    always mixes with alpha > 0).
    """
    arr = np.asarray(w, dtype=float)
    diag = np.diagonal(arr).astype(float) if arr.ndim == 2 else arr
    if not 0 <= alpha <= 0.5:
        raise BadAlpha(f"alpha must lie in [0, 1/2], got {alpha}")
    d = diag.size
    table = (1 - alpha) * (diag[:, None] + diag[None, :]) / (2 * d * k) + alpha / d**2
    return PairProbabilities(table=table, alpha=alpha)


def draw_pair(probs: PairProbabilities, rng: np.random.Generator) -> tuple[int, int]:
    """Ordered pair (s, q) with the table's law; zero-probability pairs never occur."""
    flat = np.cumsum(probs.table.ravel())
    flat[-1] = 1.0
    u = rng.random()
    pos = min(int(np.searchsorted(flat, u, side="right")), flat.size - 1)
    d = probs.dim
    return pos // d, pos % d


class MbegPairSampler:
    """Ordered pairs (s, q) with the law of ``mbeg_pair_probs(diag, alpha, k)``, and their probability.

    The table p_{s,q} = (1-alpha)(W_ss + W_qq)/(2dk) + alpha/d^2 is the
    mixture: with weight alpha a uniform pair; with weight (1-alpha)/2,
    s proportional to W_ss and q uniform; with weight (1-alpha)/2, s uniform
    and q proportional to W_qq.  ``diag`` is the diagonal of W, nonnegative
    and summing to k.  Building the sampler takes the diagonal's prefix sum
    once, in O(d); each ``draw`` consumes exactly one ``rng.random(3)``
    (branch, s, q), bisects that prefix sum at most once, and returns p as
    the table's own formula, so p equals the table entry exactly.
    """

    __slots__ = ("_d", "_k", "_alpha", "_split", "_diag", "_cum")

    def __init__(self, diag, alpha: float, k: int):
        if not 0 <= alpha <= 0.5:
            raise BadAlpha(f"alpha must lie in [0, 1/2], got {alpha}")
        diag = np.asarray(diag, dtype=float)
        self._d = diag.size
        self._k = k
        self._alpha = alpha
        self._split = 0.5 * (1 + alpha)
        self._diag = diag.tolist()
        self._cum = np.cumsum(diag).tolist()

    def draw(self, rng: np.random.Generator) -> tuple[int, int, float]:
        d, alpha, cum = self._d, self._alpha, self._cum
        branch, u_s, u_q = rng.random(3).tolist()
        s = min(int(u_s * d), d - 1)
        q = min(int(u_q * d), d - 1)
        if branch >= alpha:
            if branch < self._split:
                s = min(bisect.bisect_right(cum, u_s * cum[-1]), d - 1)
            else:
                q = min(bisect.bisect_right(cum, u_q * cum[-1]), d - 1)
        diag = self._diag
        p = (1 - alpha) * (diag[s] + diag[q]) / (2 * d * self._k) + alpha / d**2
        return s, q, p


def mbeg_estimate(
    s: int, q: int, x_s: float, x_q: float, p: float, d: int | None = None
) -> SparseEstimate:
    """Importance-weighted single-pair estimate (x_s x_q / (2p)) (E_sq + E_qs).

    For the coincident pair s == q the two terms add, giving
    (x_s^2 / p) E_ss; this convention is what makes the exact enumeration
    identity sum_{(s,q)} p_{s,q} C_hat(s,q) = x x^T hold.  ``d`` fixes the
    ambient dimension of the estimate (defaults to the smallest that fits).
    """
    if p <= 0:
        raise ZeroProbability(f"pair ({s}, {q}) has probability {p:g}")
    if s == q:
        terms = ((int(s), int(s), float(x_s) * float(x_q) / p),)
    else:
        terms = ((int(s), int(q), float(x_s) * float(x_q) / (2 * p)),)
    return SparseEstimate(dim=d if d is not None else max(s, q) + 1, terms=terms, symmetric=True)
