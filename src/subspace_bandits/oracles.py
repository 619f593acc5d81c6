"""Finite-support distributions, the partial-information oracle, and fixtures.

All distributions here have finite support, which makes the correlation
matrix and expected squared norm exactly computable; loss evaluation is then
exact.  The oracle never hands a caller more than the requested coordinates
of a draw.

The fixture library contains the adversarial constructions used in the
lower-bound demonstrations:

* ``impossibility_fixture`` -- a pair ``{u, -u}`` whose every single-coordinate
  marginal is the same regardless of the planted coordinate, so one attribute
  per draw carries no information about the subspace.
* ``dyadic_fixture`` -- mass ``1 - c*eps`` on the zero vector and ``c*eps`` on a
  planted standard basis vector; split-half learners see a nonzero signal
  only when both halves hit the planted coordinate on a non-zero draw.
* ``coin_fixture`` -- 2k orthogonal directions paired into k biased coins;
  subspace accuracy maps to identifying the bias signs.
"""

from __future__ import annotations

import bisect
import json
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import DomainSpec, validate_instance
from .errors import (
    BadBasis,
    BadIndex,
    BadParams,
    BadProbabilities,
    DimMismatch,
    InfeasibleBasis,
    InfNormViolation,
    InvalidMatrix,
)
from .seeding import pinned_cumsum
from .spectral import EigenSystem, sym_eig

PROB_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class CoinMetadata:
    """A coin fixture's signs and bias; its 2k directions are its support points."""

    signs: np.ndarray  # (k,) entries in {-1, +1}
    alpha: float


@dataclass(frozen=True, eq=False)
class DistributionSpec:
    """A finite-support distribution over instance vectors.

    ``points`` is (n, d); ``probs`` is (n,), nonnegative, summing to 1 within
    1e-12.  ``tag`` names the construction.  Immutable and shareable across
    threads; sampling consumes only the caller's generator.
    """

    d: int
    points: np.ndarray
    probs: np.ndarray
    tag: str
    coin: CoinMetadata | None = None

    def __post_init__(self):
        pts = self.points
        pr = self.probs
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise DimMismatch(f"support points must be (n, {self.d}), got {pts.shape}")
        if pr.shape != (pts.shape[0],):
            raise DimMismatch("one probability per support point required")
        if not np.all(np.isfinite(pts)):
            raise InvalidMatrix("support points must be finite")
        if np.any(pr < 0):
            raise BadProbabilities(f"negative probability: min={pr.min():.3g}")
        total = float(pr.sum())
        if abs(total - 1.0) > PROB_TOL:
            raise BadProbabilities(f"probabilities sum to {total:.15g}, not 1")
        inf = float(np.max(np.abs(pts))) if pts.size else 0.0
        if inf > 1 + 1e-12:
            raise InfNormViolation(f"support coordinate magnitude {inf:.12g} exceeds 1")
        if self.coin is not None and pts.shape[0] != 2 * self.coin.signs.size:
            raise DimMismatch(f"a coin fixture needs two support points per sign, got {pts.shape}")

    @property
    def size(self) -> int:
        return self.points.shape[0]

    @cached_property
    def _cum_probs(self) -> np.ndarray:
        return pinned_cumsum(self.probs)

    @cached_property
    def _cum_list(self) -> list:
        # plain-float copy for the scalar draw path (bisect beats np.searchsorted
        # by several hundred ns per call on small supports)
        return [float(v) for v in self._cum_probs]

    @cached_property
    def _rows(self) -> tuple:
        # per-row views for the scalar draw path (saves a view per call)
        return tuple(self.points)

    @cached_property
    def moments(self) -> Moments:
        """:func:`exact_moments` of this distribution, computed once and shared.

        The shared correlation matrix is read-only, so no caller can alter
        another caller's moments.
        """
        mom = exact_moments(self)
        mom.C.flags.writeable = False
        return mom


@dataclass(frozen=True, eq=False)
class Moments:
    """Exact second moments: C = E[x x^T] and E||x||^2."""

    C: np.ndarray
    mean_sq_norm: float

    def __post_init__(self):
        low = self.eig.values[-1]
        if low < -1e-10:
            raise InvalidMatrix(f"correlation matrix not PSD: min eigenvalue {low:.3g}")
        if abs(float(np.trace(self.C)) - self.mean_sq_norm) > 1e-10:
            raise InvalidMatrix("trace of C must equal the mean squared norm")

    @property
    def dim(self) -> int:
        return self.C.shape[0]

    @cached_property
    def eig(self) -> EigenSystem:
        """``sym_eig(C)``, computed once and shared, its arrays read-only."""
        eig = sym_eig(self.C)
        eig.values.flags.writeable = False
        eig.vectors.flags.writeable = False
        return eig


def observe(dist: DistributionSpec, indices, rng: np.random.Generator) -> np.ndarray:
    """Draw one vector from the distribution and return its requested coordinates.

    The result is the (r,) array of readings, in the order of ``indices``.
    Duplicated indices are allowed and all refer to the same single draw.
    Indices must be integers (Python or numpy); anything else, a float
    included, raises :class:`BadIndex` rather than being truncated.  The
    full vector is never exposed.  Consumes exactly one uniform from ``rng``.
    """
    try:
        idx = tuple(map(operator.index, indices))
    except TypeError as exc:
        raise BadIndex(f"indices must be integers, got {indices!r}") from exc
    d = dist.d
    for i in idx:
        if i < 0 or i >= d:
            raise BadIndex(f"index {i} outside [0, {d})")
    # The cumulative probabilities end at exactly 1.0 (``pinned_cumsum``): no row is out of range.
    row = bisect.bisect_right(dist._cum_list, rng.random())
    return dist._rows[row].take(idx)


def observe_block(dist: DistributionSpec, indices, u) -> np.ndarray:
    """Block form of :func:`observe`: the requested coordinates of n draws at once.

    Each uniform in ``u`` draws one vector, exactly as ``observe`` does with
    its one uniform, and ``indices``, broadcast against ``u``, names the
    coordinates revealed of it; the result has the broadcast shape.  So
    ``observe_block(dist, (s, q), u)`` reads coordinates s[t] and q[t] of
    draw t, and ``observe_block(dist, idx, u[:, None])`` the r entries of row
    t of an (n, r) index block.  Indices that are not integers in [0, d)
    raise :class:`BadIndex`, as in ``observe``.
    """
    rows = dist._cum_probs.searchsorted(u, "right")
    try:
        at = np.ravel_multi_index((rows, indices), dist.points.shape)
    except (TypeError, ValueError) as exc:
        raise BadIndex(
            f"indices must be integer arrays in [0, {dist.d}) broadcasting against "
            "uniforms in [0, 1)"
        ) from exc
    return dist.points.ravel()[at]


def sample_instances(dist: DistributionSpec, size: int, rng: np.random.Generator) -> np.ndarray:
    """Draw ``size`` full vectors (full-information access).

    Used by the batch-PCA baseline and Monte-Carlo checks only; budgeted
    learners must go through :func:`observe`.
    """
    rows = dist._cum_probs.searchsorted(rng.random(size), "right")
    return dist.points[rows]  # fancy indexing copies


def make_finite_support(points, spec: DomainSpec, tag: str = "custom") -> DistributionSpec:
    """Build a distribution from (vector, probability) pairs, validated against ``spec``."""
    if not points:
        raise BadParams("support must be non-empty")
    vecs = []
    probs = []
    for x, p in points:
        vecs.append(validate_instance(x, spec))
        probs.append(float(p))
    return DistributionSpec(
        d=spec.d, points=np.array(vecs), probs=np.array(probs), tag=tag
    )


def validate_distribution(dist: DistributionSpec, spec: DomainSpec) -> None:
    """Check every support point against a domain (dimension, norms)."""
    if dist.d != spec.d:
        raise DimMismatch(f"distribution dimension {dist.d} != domain dimension {spec.d}")
    for row in dist.points:
        validate_instance(row, spec)


def impossibility_fixture(d: int, G: float, s: int) -> DistributionSpec:
    """Uniform two-point distribution {u, -u} with u = sqrt(G/d) (1,...,1,-1,1,...).

    The sign flip sits at coordinate ``s``.  Every single-coordinate marginal
    is uniform on {-sqrt(G/d), +sqrt(G/d)} no matter where the flip is, so
    observing one attribute per draw reveals nothing about the subspace,
    while the rank-1 projector onto u achieves zero loss.
    """
    if not 0 <= s < d:
        raise BadIndex(f"planted coordinate {s} outside [0, {d})")
    if not 0 < G <= d:
        raise BadParams(f"G must satisfy 0 < G <= d, got {G}")
    u = np.full(d, np.sqrt(G / d))
    u[s] = -u[s]
    return DistributionSpec(
        d=d,
        points=np.array([u, -u]),
        probs=np.array([0.5, 0.5]),
        tag=f"impossibility(d={d},G={G:g},s={s})",
    )


def dyadic_fixture(d: int, s: int, eps: float, c: float = 4.0) -> DistributionSpec:
    """Zero vector with probability 1 - c*eps, basis vector e_s with probability c*eps.

    Requires 0 < eps <= 1/4, c > 2 and c*eps <= 1 (eps = 1/4 with c = 4 gives
    the point-mass edge case).  The optimal rank-1 loss is 0; a projector
    missing the planted coordinate pays c*eps.
    """
    if not 0 <= s < d:
        raise BadIndex(f"planted coordinate {s} outside [0, {d})")
    if not 0 < eps <= 0.25:
        raise BadParams(f"eps must lie in (0, 1/4], got {eps}")
    if c <= 2:
        raise BadParams(f"c must exceed 2, got {c}")
    if c * eps > 1 + PROB_TOL:
        raise BadParams(f"c*eps = {c * eps:g} exceeds 1")
    spike = min(c * eps, 1.0)
    e_s = np.zeros(d)
    e_s[s] = 1.0
    return DistributionSpec(
        d=d,
        points=np.array([np.zeros(d), e_s]),
        probs=np.array([1.0 - spike, spike]),
        tag=f"dyadic(d={d},s={s},eps={eps:g},c={c:g})",
    )


def coin_fixture(d: int, k: int, G: float, alpha: float, b, U) -> DistributionSpec:
    """k biased coins over 2k orthogonal directions.

    Direction j < k is drawn with probability (1 + b_j alpha) / (2k), its
    partner j + k with probability (1 - b_j alpha) / (2k): a coin j is chosen
    uniformly and its outcome picks the favored or disfavored direction.
    ``U`` is a (2k, d) array of pairwise-orthogonal rows with ||u_j||^2 = G
    inside the unit cube.
    """
    if k < 1 or 2 * k > d:
        raise BadParams(f"need 1 <= k and 2k <= d, got k={k}, d={d}")
    if not 0 < alpha < 1:
        raise BadParams(f"alpha must lie in (0, 1), got {alpha}")
    signs = np.asarray(b, dtype=float)
    if signs.shape != (k,) or not np.all(np.isin(signs, (-1.0, 1.0))):
        raise BadParams("b must be a length-k vector of +-1 signs")
    basis = np.asarray(U, dtype=float)
    if basis.shape != (2 * k, d):
        raise BadBasis(f"basis must be ({2 * k}, {d}), got {basis.shape}")
    gram = basis @ basis.T
    if np.max(np.abs(gram - G * np.eye(2 * k))) > 1e-8 * max(1.0, G):
        raise BadBasis("rows must be pairwise orthogonal with squared norm G")
    if np.max(np.abs(basis)) > 1 + 1e-12:
        raise BadBasis("basis coordinates exceed the unit cube")

    probs = np.empty(2 * k)
    probs[:k] = (1 + signs * alpha) / (2 * k)
    probs[k:] = (1 - signs * alpha) / (2 * k)
    return DistributionSpec(
        d=d,
        points=basis.copy(),
        probs=probs,
        tag=f"coin(d={d},k={k},G={G:g},alpha={alpha:g})",
        coin=CoinMetadata(signs=signs, alpha=alpha),
    )


def _sylvester_hadamard(n: int) -> np.ndarray:
    """Hadamard sign matrix of a power-of-two order n."""
    h = np.ones((1, 1))
    while h.shape[0] < n:
        h = np.block([[h, h], [h, -h]])
    return h


def default_coin_basis(d: int, k: int, G: float) -> np.ndarray:
    """2k orthogonal vectors with squared norm G and coordinates in [-1, 1].

    For G <= 1 the scaled standard basis sqrt(G) e_j works.  For G > 1 the
    mass must spread out: rows of a Hadamard-type sign matrix (tiled to
    length d) scaled by sqrt(G/d) keep the max coordinate at sqrt(G/d) <= 1.
    That route needs d divisible by the smallest power of two >= 2k.
    """
    if 2 * k > d:
        raise BadParams(f"need 2k <= d, got k={k}, d={d}")
    if G > d:
        raise InfeasibleBasis(f"G={G:g} exceeds d={d}: no domain vector has squared norm G")
    if G <= 1:
        basis = np.zeros((2 * k, d))
        for j in range(2 * k):
            basis[j, j] = np.sqrt(G)
        return basis
    order = 1
    while order < 2 * k:
        order *= 2
    if d % order != 0:
        raise InfeasibleBasis(
            f"d={d} is not a multiple of {order} (smallest power of two >= 2k); "
            "no tiled sign design available for G > 1"
        )
    h = _sylvester_hadamard(order)[: 2 * k]
    return np.tile(h, d // order) * np.sqrt(G / d)


def exact_moments(dist: DistributionSpec) -> Moments:
    """Exact C = sum_i p_i x_i x_i^T and E||x||^2 from the finite support."""
    weighted = dist.points * dist.probs[:, None]
    c = weighted.T @ dist.points
    msn = float(np.sum(dist.probs * np.einsum("ij,ij->i", dist.points, dist.points)))
    return Moments(C=0.5 * (c + c.T), mean_sq_norm=msn)


def to_jsonable(dist: DistributionSpec) -> dict:
    """Plain-dict form of a distribution: {"d", "tag", "support": [{"x", "p"}]}.

    Coin fixtures carry their signs and bias under an optional "coin" key,
    {"signs", "alpha"}; their directions are the support points.
    """
    doc = {
        "d": dist.d,
        "tag": dist.tag,
        "support": [
            {"x": [float(v) for v in row], "p": float(p)}
            for row, p in zip(dist.points, dist.probs)
        ],
    }
    if dist.coin is not None:
        doc["coin"] = {"signs": [int(s) for s in dist.coin.signs], "alpha": dist.coin.alpha}
    return doc


def from_jsonable(doc: dict) -> DistributionSpec:
    """Inverse of :func:`to_jsonable`; an older coin block's "basis", "G" and "k" go unread.

    A ``d`` that is not an integer (a float, JSON true/false) raises ``TypeError``.
    """
    d = doc["d"]
    if isinstance(d, bool) or not hasattr(type(d), "__index__"):
        raise TypeError(f"fixture field 'd' must be an integer, got {d!r}")
    d = operator.index(d)
    support = doc["support"]
    points = np.array([entry["x"] for entry in support], dtype=float)
    probs = np.array([entry["p"] for entry in support], dtype=float)
    coin = doc.get("coin")
    if coin is not None:
        coin = CoinMetadata(signs=np.array(coin["signs"], dtype=float), alpha=float(coin["alpha"]))
    return DistributionSpec(
        d=d, points=points, probs=probs, tag=str(doc.get("tag", "custom")), coin=coin
    )


def save_distribution(dist: DistributionSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(to_jsonable(dist), fh, indent=2)
        fh.write("\n")


def load_distribution(path) -> DistributionSpec:
    with open(path, encoding="utf-8") as fh:
        return from_jsonable(json.load(fh))
