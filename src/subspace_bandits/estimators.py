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

The per-observation functions (``split_halves``, which returns the pair of
scaled halves, ``estimate_asym`` and ``estimate_sym``, which take that pair)
state the split-half estimator one step at a time;
``split_half_sum`` is its block engine, which sums m steps' cross terms by
pair key (at large r, as a product of half blocks) a chunk of steps at a time.
``pair_price`` and ``importance_weight`` state the single-pair estimator's
price and weight.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import DomainSpec
from .errors import BadIndex, DimMismatch, OddBudget, ZeroProbability
from .oracles import DistributionSpec, observe_block
from .seeding import pinned_cumsum

STEP_CHUNK = 1024  # steps whose random draws a block engine takes at once


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


def _check_split_budget(r: int) -> None:
    if r < 2 or r % 2 != 0:
        raise OddBudget(f"split-half estimators need an even budget r >= 2, got r={r}")


def draw_uniform_indices(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """r indices i.i.d. uniform on [0, d), duplicates allowed."""
    return rng.integers(0, d, size=r)


def split_halves(indices, values, spec: DomainSpec) -> tuple[np.ndarray, np.ndarray]:
    """The scaled half-sums (x_hat, y_hat) of one step's r = spec.r readings (r even).

    ``values[t]`` is the reading of coordinate ``indices[t]``.  x_hat
    accumulates (2d/r) * value * e_index over the first r/2 readings
    (duplicate indices accumulate additively), y_hat over the second half.
    Each half is a dense length-d vector with at most r/2 nonzero entries.
    """
    r = spec.r
    _check_split_budget(r)
    if len(indices) != r:
        raise DimMismatch(f"observation has {len(indices)} coordinates, expected r={r}")
    if len(values) != r:
        raise DimMismatch(f"observation has {len(values)} readings, expected r={r}")
    scale = 2.0 * spec.d / r
    half = r // 2
    x_hat = np.zeros(spec.d)
    y_hat = np.zeros(spec.d)
    for t in range(half):
        x_hat[indices[t]] += scale * values[t]
    for t in range(half, r):
        y_hat[indices[t]] += scale * values[t]
    return x_hat, y_hat


def estimate_asym(halves: tuple[np.ndarray, np.ndarray]) -> SparseEstimate:
    """The raw cross term (1/2) x_hat y_hat^T, without symmetrization.

    The uniform-sampling spectral learner accumulates these and symmetrizes
    once at the end; the factor 1/2 rescales the spectrum but not the
    eigenvectors, so the output projector is unaffected.
    """
    x_hat, y_hat = halves
    cols = y_hat.nonzero()[0].tolist()
    terms = [
        (i, j, 0.5 * x_hat[i] * y_hat[j]) for i in x_hat.nonzero()[0].tolist() for j in cols
    ]
    return SparseEstimate(dim=x_hat.size, terms=tuple(terms), symmetric=False)


def estimate_sym(halves: tuple[np.ndarray, np.ndarray]) -> SparseEstimate:
    """Symmetric split-half estimate (1/2) x_hat y_hat^T + (1/2) y_hat x_hat^T.

    Unbiased for E[x x^T] under uniform index draws.
    """
    x_hat, y_hat = halves
    cols = y_hat.nonzero()[0].tolist()  # scanned once, not once per row
    terms = []
    for i in x_hat.nonzero()[0].tolist():
        xi = x_hat[i]
        for j in cols:
            terms.append((i, j, xi * y_hat[j] if i == j else 0.5 * xi * y_hat[j]))
    return SparseEstimate(dim=x_hat.size, terms=tuple(terms), symmetric=True)


def split_half_sum(
    dist: DistributionSpec, spec: DomainSpec, m: int, rng: np.random.Generator, observed=None
) -> np.ndarray:
    """S = sum_t x_hat_t y_hat_t^T over m split-half steps, as one d x d array.

    Step t draws r uniform indices and one vector through the oracle; S is
    twice the sum of the steps' ``estimate_asym`` terms, and (S + S^T) / 2
    the sum of their ``estimate_sym`` terms.  Each chunk of n <= ``STEP_CHUNK``
    steps draws ``rng.integers(0, d, size=(n, r))``, then ``rng.random(n)``
    (``observe_block``).  While a step's r^2/4 cross terms number at most d/2,
    one bincount adds each x_hat_a y_hat_b at key a * d + b, in time and memory
    growing with n r^2/4; past that, X_hat^T Y_hat over (n, 2, d) half blocks
    costs less.  A list ``observed`` receives each chunk's (indices, values).
    """
    d, r = spec.d, spec.r
    _check_split_budget(r)
    half = r // 2
    scale = 2.0 * d / r
    a, b = np.divmod(np.arange(half * half), half)  # cross pair p joins readings a[p], b[p]
    b += half
    total = np.zeros(d * d)
    for start in range(0, m, STEP_CHUNK):
        n = min(STEP_CHUNK, m - start)
        idx = rng.integers(0, d, size=(n, r))
        values = observe_block(dist, idx, rng.random(n)[:, None])
        if 2 * half * half <= d:
            i, x = idx.T, scale * values.T  # (r, n): the inner loops run over the steps
            keys = (i[a] * d + i[b]).ravel()
            total += np.bincount(keys, weights=(x[a] * x[b]).ravel(), minlength=d * d)
        else:  # reading j lands in step t's x_hat (offset 0) or y_hat (offset d) half
            where = (idx + np.repeat((0, d), half) + (2 * d) * np.arange(n)[:, None]).ravel()
            halves = np.bincount(where, weights=scale * values.ravel(), minlength=2 * d * n)
            halves = halves.reshape(n, 2, d)
            total += (halves[:, 0].T @ halves[:, 1]).ravel()
        if observed is not None:
            observed.append((idx, values))
    return total.reshape(d, d)


def pair_price(w_s, w_q, d: int, alpha: float, k: int):
    """p_{s,q} = (1-alpha)(W_ss + W_qq)/(2dk) + alpha/d^2 from W_ss = ``w_s``, W_qq = ``w_q``.

    Scalars or arrays that broadcast: the whole table, or the drawn pairs.
    """
    return (1 - alpha) * (w_s + w_q) / (2 * d * k) + alpha / d**2


def importance_weight(s, q, prod, p):
    """The single-pair estimate's entry at (s, q): x_s x_q / p if s == q, x_s x_q / (2p) if not.

    ``prod`` = x_s x_q, ``p`` = p_{s,q} = p_{q,s}; scalars or arrays.  Off the
    diagonal, (s, q) and (q, s) give one estimate, so it divides by their 2p.
    """
    return prod / (p * (1 + (s != q)))


def mbeg_pair_probs(w, alpha: float, k: int) -> np.ndarray:
    """The (d, d) pair-sampling table: ``pair_price`` at every ordered pair (s, q).

    ``w`` may be a square matrix or its diagonal.  Mixing with the uniform
    distribution keeps every pair's probability at least alpha/d^2; since a
    hull element's diagonal sums to k, the table sums to 1.  alpha = 0 gives
    the bare diagonal-weighted table (the learner itself always mixes with
    alpha > 0).
    """
    arr = np.asarray(w, dtype=float)
    diag = np.diagonal(arr).astype(float) if arr.ndim == 2 else arr
    return pair_price(diag[:, None], diag[None, :], diag.size, alpha, k)


def draw_pair(table, rng: np.random.Generator) -> tuple[int, int]:
    """Ordered pair (s, q) drawn from a square ``table``; zero-probability pairs never occur."""
    pos = int(pinned_cumsum(table.ravel()).searchsorted(rng.random(), "right"))
    return divmod(pos, table.shape[0])


class MbegPairSampler:
    """Ordered pairs (s, q) from a block of uniforms, with the law of ``mbeg_pair_probs``.

    The table of ``pair_price`` is the mixture: with weight alpha a uniform
    pair; with weight (1-alpha)/2, s proportional to W_ss and q uniform; with
    weight (1-alpha)/2, s uniform and q proportional to W_qq.  Row t of ``u``
    holds pair t's three uniforms (branch, s, q).  A coordinate drawn uniformly is
    ``min(int(u * d), d - 1)``; one drawn in proportion to the diagonal is the
    first index whose prefix sum exceeds ``u * sum(diag)``, or d - 1 if none
    does.  The branches and the uniform coordinates do not depend on W, so
    they are mapped once, when the block is built; ``coordinates`` resolves
    the weighted coordinates of a run of rows under the prefix sums it is
    given, so one block serves every iterate that draws from it, and
    ``price`` is ``pair_price`` at given pairs.  A caller that keeps
    an iterate for many runs of rows takes the prefix sums once and prices
    only the pairs it needs.
    """

    __slots__ = ("_d", "_k", "_alpha", "_keys", "_uniform", "_weighted")

    def __init__(self, u, d: int, alpha: float, k: int):
        u = np.asarray(u, dtype=float)
        self._d, self._k, self._alpha = d, k, alpha
        self._keys = u[:, 1:3]
        # Counting the grid points 1 .. d-1 at or below u * d clamps the index at d - 1.
        self._uniform = np.arange(1.0, d).searchsorted(self._keys * d, "right")
        # branch below alpha: uniform pair; below (1+alpha)/2: s weighted; above: q weighted
        branch = np.array([alpha, 0.5 * (1 + alpha)]).searchsorted(u[:, 0], "right")
        self._weighted = branch[:, None] == (1, 2)

    def coordinates(self, cum, start: int = 0, stop: int | None = None):
        """(s, q) arrays for rows ``start:stop`` under the prefix sums ``cum`` of W's diagonal."""
        rows = slice(start, stop)
        # Searching all but the last prefix sum clamps the index at d - 1.
        weighted = cum[:-1].searchsorted(self._keys[rows] * cum[-1], "right")
        s, q = np.where(self._weighted[rows], weighted, self._uniform[rows]).T
        return s, q

    def price(self, diag, s, q):
        """The table entries p_{s,q} under the diagonal ``diag`` of W, at scalar or array (s, q)."""
        return pair_price(diag[s], diag[q], self._d, self._alpha, self._k)


def mbeg_estimate(s: int, q: int, x_s: float, x_q: float, p: float, d: int) -> SparseEstimate:
    """Importance-weighted single-pair estimate: ``importance_weight`` at (s, q) and (q, s).

    For the coincident pair s == q the two entries are one; this convention
    is what makes the exact enumeration identity
    sum_{(s,q)} p_{s,q} C_hat(s,q) = x x^T hold.  ``d`` is the ambient
    dimension of the estimate.
    """
    if not (0 <= s < d and 0 <= q < d):
        raise BadIndex(f"pair ({s}, {q}) outside [0, {d})")
    if p <= 0:
        raise ZeroProbability(f"pair ({s}, {q}) has probability {p:g}")
    terms = ((int(s), int(q), float(importance_weight(s, q, float(x_s) * float(x_q), p))),)
    return SparseEstimate(dim=d, terms=terms, symmetric=True)
