"""Budgeted subspace learners and the spectrum projections they need.

Four learners, all consuming a finite-support distribution through the
partial-information oracle (except the full-information baseline):

* ``bandit_pca`` -- averages split-half cross estimates and returns the top-k
  projector of the symmetrized average.
* ``mbgd`` (matrix bandit gradient descent) -- lazy additive updates with the
  symmetric split-half estimate; one spectrum projection onto the capped
  simplex at the end, then randomized rounding to a projector.
* ``mbeg`` (matrix bandit exponentiated gradient) -- non-uniform pair
  sampling biased toward strong diagonal directions, multiplicative update
  exp(log W + eta C_hat), spectrum projection onto the capped simplex in
  relative entropy, rounding applied to the iterate average.
* ``full_info_pca`` -- top-k projector of the empirical correlation matrix.

Default step sizes: mbgd uses eta = sqrt(k / (d^2 G^2 m)); mbeg uses
eta = sqrt(log(d/k) / (d m G^2)) with mixing weight alpha = eta d^2 / 2,
which requires m >= d^3 log(d/k) / G^2 so that alpha <= 1/2.

Each learner owns a counter-based generator stream derived from its config
seed; index draws, oracle draws, and the final component sampling all consume
from that one stream, so runs are reproducible end to end and independent
runs can execute concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import decompose, sample_component
from .domain import (
    DomainSpec, ProjectionMatrix, check_hull_membership, top_k_projector, within_hull
)
from .errors import (
    AlphaTooLarge,
    BudgetNotTwo,
    DimMismatch,
    EmptySample,
    InfeasibleK,
    InvalidMatrix,
    NotInHull,
)
from .estimators import (
    STEP_CHUNK,
    MbegPairSampler,
    _check_split_budget,
    draw_uniform_indices,
    estimate_sym,
    importance_weight,
    split_half_sum,
    split_halves,
)
from .oracles import DistributionSpec, observe, observe_block
from .seeding import make_rng
from .spectral import LOG_FLOOR, EigenSystem, sym_eig


# ---------------------------------------------------------------------------
# Spectrum projections
# ---------------------------------------------------------------------------

def capped_simplex_project(lam, k: float) -> np.ndarray:
    """Euclidean projection onto the capped simplex {0 <= v <= 1, sum(v) = k}.

    The plain scaled-simplex projection can emit entries above 1 when k >= 2
    (e.g. (10, 0, 0) with k = 2 maps to (2, 0, 0)), which is outside the
    spectrum set of projector mixtures; the cap restores membership and the
    two projections coincide whenever the cap is inactive.

    The output is v = clip(lam - theta, 0, 1) for the shift theta with
    f(theta) = sum(clip(lam - theta, 0, 1)) = k.  f is non-increasing and
    piecewise linear with breakpoints at lam and lam - 1, so theta is found
    exactly: evaluate f at the sorted breakpoints, take the last one where
    f >= k, and solve the linear piece after it.  On that piece the entries
    with lam - theta >= 1 are capped and those strictly between the two
    breakpoint kinds are free, so theta = (sum(free) + #capped - k) / #free.
    """
    v = np.asarray(lam, dtype=float)
    d = v.size
    if k > d:
        raise InfeasibleK(f"target trace {k} exceeds dimension {d}")
    s = np.sort(v)
    prefix = np.concatenate(([0.0], np.cumsum(s)))

    def pieces(theta):
        # per theta: (first free, first capped) positions in s
        return np.searchsorted(s, theta, side="right"), np.searchsorted(s, theta + 1.0)

    bps = np.sort(np.concatenate((s - 1.0, s)))
    lo, hi = pieces(bps)
    f = (d - hi) + (prefix[hi] - prefix[lo]) - (hi - lo) * bps
    j = int(np.count_nonzero(f >= k)) - 1  # f is non-increasing along bps
    if j < 0:  # only k = d, within rounding of f at the first breakpoint
        theta = float(bps[0])
    elif j == bps.size - 1:  # only k <= 0: every entry zeroed
        theta = float(bps[-1])
    else:
        mid = 0.5 * (bps[j] + bps[j + 1])
        lo, hi = pieces(mid)
        free = int(hi - lo)
        # A piece with no free entry is flat (f = #capped = k): any shift in it works.
        theta = (float(s[lo:hi].sum()) + (d - hi) - k) / free if free else float(mid)
    return np.clip(v - theta, 0.0, 1.0)


def entropic_project(mu, k: int) -> np.ndarray:
    """Relative-entropy projection of a positive spectrum onto the capped simplex.

    Minimizes sum_j (v_j log(v_j / mu_j) - v_j + mu_j) subject to
    0 <= v <= 1, sum(v) = k.  The minimizer is v = min(t * mu, 1) for the
    scale t matching the trace; equivalently, cap the largest c entries at 1
    for the smallest c that leaves every rescaled remaining entry at most 1.
    Output entries are strictly positive and order-preserving.  A spectrum
    with an entry that is not positive, or whose sum is not finite, raises
    :class:`InvalidMatrix`.
    """
    v = np.asarray(mu, dtype=float)
    d = v.size
    if not 1 <= k <= d:
        raise InfeasibleK(f"target trace {k} must lie in [1, {d}]")
    ascending = np.sort(v)
    lo, hi = float(ascending[0]), float(ascending[-1])
    # Capping the c largest entries leaves the d - c smallest to rescale; their
    # sum is the ascending running sum up to position d - 1 - c.
    running = np.cumsum(ascending)
    # An infinite sum (an overflowed exp) would scale every entry to 0; NaN fails both tests.
    if not lo > 0 or not math.isfinite(running[-1]):
        raise InvalidMatrix(
            f"spectrum must be strictly positive with a finite sum, got min {lo:.3g}, "
            f"max {hi:.3g}, sum {running[-1]:.3g}"
        )
    # c = k - 1 always satisfies the cap condition, so the loop cannot fall through.
    for c in range(k):
        t = (k - c) / float(running[d - 1 - c])
        if t * float(ascending[d - 1 - c]) <= 1 + 1e-15:
            out = t * v
            if c:
                out[np.argsort(-v, kind="stable")[:c]] = 1.0
            return out
    raise AssertionError("cap search failed on a positive spectrum")


# ---------------------------------------------------------------------------
# Learner configuration and diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LearnerConfig:
    """Domain, sample budget, optional step-size overrides, and the trial seed."""

    spec: DomainSpec
    m: int
    eta_override: float | None = None
    alpha_override: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.m < 1:
            raise ValueError(f"sample budget needs m >= 1, got {self.m}")
        if self.eta_override is not None and not 0 < self.eta_override < math.inf:
            raise ValueError(f"eta override must be positive and finite, got {self.eta_override}")
        if self.alpha_override is not None and not 0 < self.alpha_override <= 0.5:
            raise ValueError(f"alpha override must lie in (0, 1/2], got {self.alpha_override}")


def mbgd_step_size(spec: DomainSpec, m: int) -> float:
    return math.sqrt(spec.k / (spec.d**2 * spec.G**2 * m))


def mbeg_step_size(spec: DomainSpec, m: int) -> float:
    return math.sqrt(math.log(spec.d / spec.k) / (spec.d * m * spec.G**2))


def mbeg_min_budget(spec: DomainSpec) -> int:
    """Smallest m for which the default mixing weight stays at or below 1/2."""
    return math.ceil(spec.d**3 * math.log(spec.d / spec.k) / spec.G**2)


def mbeg_rates(cfg: LearnerConfig) -> tuple[float, float]:
    """mbeg's step size eta and mixing weight alpha, each its override or its default.

    The default alpha = eta d^2 / 2 is taken from the eta actually used and
    must not exceed 1/2; with the default eta that needs
    m >= ``mbeg_min_budget``.  This states mbeg's own budget rules: r = 2
    (:class:`BudgetNotTwo`) and alpha <= 1/2 (:class:`AlphaTooLarge`);
    ``LearnerConfig`` owns m >= 1, the rule every learner shares.
    """
    spec = cfg.spec
    if spec.r != 2:
        raise BudgetNotTwo(f"the attribute budget must be r = 2, got r={spec.r}")
    eta = cfg.eta_override if cfg.eta_override is not None else mbeg_step_size(spec, cfg.m)
    if cfg.alpha_override is not None:
        return eta, cfg.alpha_override
    alpha = 0.5 * eta * spec.d**2
    if alpha > 0.5:
        need = f"eta <= {spec.d**-2:.4g}" if cfg.eta_override else f"m >= {mbeg_min_budget(spec)}"
        raise AlphaTooLarge(
            f"default alpha = eta d^2 / 2 = {alpha:.4f} exceeds 1/2 at m={cfg.m}, eta={eta:.4g}; "
            f"need {need} or an explicit alpha override"
        )
    return eta, alpha


@dataclass
class LearnerTrace:
    """Per-step columns, one row per step; collected only when requested.

    ``indices`` (m, r) ``np.intp`` and ``values`` (m, r) float hold the
    coordinates step t asked for and the oracle's readings of them.  mbeg
    only: ``estimate`` (m,) float is step t's ``importance_weight`` (zero on
    a skipped step), and ``hull`` (m, 3) float
    the trace error and smallest and largest eigenvalue of the iterate after it.
    """

    indices: np.ndarray
    values: np.ndarray
    estimate: np.ndarray | None = None
    hull: np.ndarray | None = None
    final_matrix: np.ndarray | None = None        # hull element handed to the rounding step
    pre_projection_matrix: np.ndarray | None = None  # mbgd: W before the spectrum projection


def _check_oracle_setup(dist: DistributionSpec, cfg: LearnerConfig) -> None:
    if dist.d != cfg.spec.d:
        raise DimMismatch(f"distribution dimension {dist.d} != domain dimension {cfg.spec.d}")


# ---------------------------------------------------------------------------
# Learners
# ---------------------------------------------------------------------------

def bandit_pca(dist: DistributionSpec, cfg: LearnerConfig, return_trace: bool = False):
    """Average m split-half cross estimates, symmetrize, return the top-k projector.

    The m steps run through the block engine ``split_half_sum``, which refuses an odd r;
    their average (1/2m) S is the mean of the ``estimate_asym`` terms.
    """
    _check_oracle_setup(dist, cfg)
    spec = cfg.spec
    rng = make_rng(cfg.seed)
    observed = [] if return_trace else None

    acc = split_half_sum(dist, spec, cfg.m, rng, observed) / (2 * cfg.m)
    pi = top_k_projector(acc, spec.k)  # sym_eig's ingest symmetrizes
    if not return_trace:
        return pi
    indices, values = map(np.concatenate, zip(*observed))
    return pi, LearnerTrace(indices, values, final_matrix=0.5 * (acc + acc.T))


def mbgd(dist: DistributionSpec, cfg: LearnerConfig, return_trace: bool = False):
    """Matrix bandit gradient descent with lazy updates.

    The loss is linear in the iterate, so all m additive updates commute and
    only the final matrix W = (k/d) I + eta * sum_i C_hat_i is projected:
    eigendecompose, project the spectrum onto the capped simplex, decompose
    the projected spectrum over W's eigenbasis into projectors, and sample
    one.  Every step draws its indices and its oracle uniform; a step whose
    estimate is zero (a half that reads only zeros) skips building it.
    """
    _check_oracle_setup(dist, cfg)
    spec = cfg.spec
    _check_split_budget(spec.r)
    rng = make_rng(cfg.seed)
    eta = cfg.eta_override if cfg.eta_override is not None else mbgd_step_size(spec, cfg.m)
    shape = (cfg.m, spec.r)
    trace = LearnerTrace(np.empty(shape, np.intp), np.empty(shape)) if return_trace else None

    half = spec.r // 2
    acc = np.zeros((spec.d, spec.d))
    for i in range(cfg.m):
        idx = draw_uniform_indices(spec.d, spec.r, rng)
        values = observe(dist, idx, rng)
        # A half that reads only zeros makes x_hat or y_hat zero, so the
        # estimate has no terms: only steps with a nonzero reading in each
        # half build it.  Duplicate indices repeat one reading, so a nonzero
        # reading always leaves its half-sum nonzero.
        if values[:half].any() and values[half:].any():
            for a, b, v in estimate_sym(split_halves(idx, values, spec)).terms:
                acc[a, b] += v
                if a != b:
                    acc[b, a] += v
        if trace is not None:
            trace.indices[i] = idx
            trace.values[i] = values
    w_end = (spec.k / spec.d) * np.eye(spec.d) + eta * acc
    if trace is not None:
        trace.pre_projection_matrix = w_end.copy()

    eig = sym_eig(w_end)
    # The projection keeps the values non-increasing, as an EigenSystem's are.
    hull = EigenSystem(capped_simplex_project(eig.values, spec.k), eig.vectors)
    if trace is not None:
        trace.final_matrix = hull.reconstruct()
    pi = sample_component(decompose(hull, spec.k), rng)
    return (pi, trace) if return_trace else pi


def _check_iterate(stats, step: int) -> None:
    if not within_hull(*stats):
        trace_err, w_min, w_max = stats
        raise NotInHull(
            f"iterate left the hull at step {step}: trace error {trace_err:.3g}, "
            f"spectrum [{w_min:.6g}, {w_max:.6g}]"
        )


def mbeg(dist: DistributionSpec, cfg: LearnerConfig, return_trace: bool = False):
    """Matrix bandit exponentiated gradient with non-uniform pair sampling.

    Supports attribute budget r = 2 only.  Each step draws an ordered pair
    (s, q) from the iterate-weighted mixture (``MbegPairSampler``, the law of
    ``mbeg_pair_probs``), queries the oracle at (s, q),
    forms the importance-weighted estimate, applies the multiplicative update
    U = exp(log W + eta C_hat) and projects U's spectrum back onto the capped
    simplex in relative entropy.  A zero estimate makes that update the
    identity, so such steps skip it and keep the iterate.  A diagonal pair
    (s, s) whose row s of the eigenbasis has exactly one nonzero entry j
    touches only eigenvector j, so its update adds eta C_hat_ss V_sj^2 to
    log w_j and keeps the basis; every other update re-diagonalises
    log W + eta C_hat.  The returned projector is sampled from the
    decomposition of the iterate average.

    Every step takes four uniforms from the stream: branch, s and q for the
    pair, then the oracle's.  They are drawn in blocks of up to
    ``STEP_CHUNK`` steps, and the steps up to the next nonzero estimate are
    mapped as a window under the current iterate, so a run of skipped steps
    costs a few array operations.  What depends only on the iterate -- its
    diagonal and the diagonal's prefix sums -- is taken once per iterate; a
    window resolves its pairs under those prefix sums and prices only the
    pair that ends it (every row is priced only for a trace).  After an
    update the next window is twice as long as the gap between the last two
    informative steps, and each window without one doubles the next; the
    window length sets how many windows run, never the result.
    """
    _check_oracle_setup(dist, cfg)
    spec = cfg.spec
    eta, alpha = mbeg_rates(cfg)  # refuses r != 2 and alpha > 1/2
    rng = make_rng(cfg.seed)
    windows = [] if return_trace else None  # each mapped window's trace rows

    d, k = spec.d, spec.k
    w = np.full(d, k / d)      # iterate spectrum
    basis = np.eye(d)          # iterate eigenbasis, columns in eigh's order
    w_now = np.diag(w)         # the iterate V diag(w) V^T
    stats = (abs(float(w.sum()) - k), k / d, k / d)  # trace error, smallest and largest eigenvalue
    # Each iterate is checked at the step that makes it, where a per-step
    # check would first see it.
    _check_iterate(stats, 0)
    diag = w_now.diagonal()
    cum = diag.cumsum()
    w_bar = np.zeros((d, d))
    held = 0  # steps W_now has been the iterate, not yet added to w_bar
    last = -1  # the last informative step
    window = 1

    for block_start in range(0, cfg.m, STEP_CHUNK):
        block = rng.random((min(STEP_CHUNK, cfg.m - block_start), 4))
        sampler = MbegPairSampler(block[:, :3], d, alpha, k)
        a = 0  # the block's next row to map
        while a < block.shape[0]:
            s, q = sampler.coordinates(cum, a, a + window)
            x_s, x_q = observe_block(dist, (s, q), block[a : a + window, 3])
            prod = x_s * x_q
            # The first nonzero estimate ends the window.  Its importance
            # weight divides by at most 1, so it is nonzero where prod is.
            hit = prod.nonzero()[0]
            n = int(hit[0]) + 1 if hit.size else s.size
            held += n  # the average runs over W_1 .. W_m, each pre-update
            if windows is not None:
                est = importance_weight(s[:n], q[:n], prod[:n], sampler.price(diag, s[:n], q[:n]))
                before = stats
            # A zero estimate makes exp(log W + eta * 0) = W, already in the
            # hull, so the projection keeps it: the window's skipped steps keep
            # the iterate and its hull statistics.
            if hit.size:
                step = block_start + a + n - 1
                s_j, q_j = int(s[n - 1]), int(q[n - 1])
                p_j = sampler.price(diag, s_j, q_j)
                v = float(importance_weight(s_j, q_j, prod[n - 1], p_j))
                w_bar += held * w_now
                held = 0
                log_w = np.log(np.maximum(w, LOG_FLOOR))
                support = np.flatnonzero(basis[s_j]) if s_j == q_j else ()
                if len(support) == 1:
                    # Row s of V is V_sj e_j^T, so e_s = V_sj V e_j and
                    # eta v e_s e_s^T = V (eta v V_sj^2 e_j e_j^T) V^T: the update shifts
                    # eigenvalue j and keeps the basis, re-sorted ascending as eigh orders it.
                    j = int(support[0])
                    log_w[j] += eta * v * basis[s_j, j] ** 2
                    order = np.argsort(log_w, kind="stable")
                    vals, basis = log_w[order], basis[:, order]
                else:
                    m_update = (basis * log_w) @ basis.T
                    m_update[s_j, q_j] += eta * v
                    if s_j != q_j:
                        m_update[q_j, s_j] += eta * v
                    # Raw eigh: W = V diag(w) V^T ignores eigenvector signs, and the
                    # projection maps tied values to tied values, so order is irrelevant.
                    vals, basis = np.linalg.eigh(0.5 * (m_update + m_update.T))
                # The projection is invariant to scaling and keeps vals' ascending
                # order: shifted by the largest of vals, every exp stays finite.
                w = entropic_project(np.maximum(np.exp(vals - vals[-1]), LOG_FLOOR), k)
                w_now = (basis * w) @ basis.T
                stats = (abs(float(w.sum()) - k), float(w[0]), float(w[-1]))
                _check_iterate(stats, step)
                diag = w_now.diagonal()
                cum = diag.cumsum()
                window = 2 * (step - last)
                last = step
            else:
                window *= 2
            if windows is not None:
                # Skipped steps keep the iterate before the window; only its
                # last step can have made a new one.
                hull_rows = np.tile(before, (n, 1))
                hull_rows[-1] = stats
                windows.append((s[:n], q[:n], x_s[:n], x_q[:n], est, hull_rows))
            a += n

    w_bar += held * w_now
    w_bar /= cfg.m
    # One eigendecomposition of the average serves the hull gate and the rounding.
    hull = sym_eig(w_bar)
    report = check_hull_membership(hull, k)
    if not report.passed:
        raise NotInHull(str(report))
    pi = sample_component(decompose(hull, k), rng)
    if windows is None:
        return pi
    s, q, x_s, x_q, est, hull_rows = map(np.concatenate, zip(*windows))
    return pi, LearnerTrace(
        np.column_stack((s, q)), np.column_stack((x_s, x_q)), est, hull_rows,
        final_matrix=0.5 * (w_bar + w_bar.T),
    )


def full_info_pca(samples, k: int) -> ProjectionMatrix:
    """Top-k projector of the empirical correlation matrix (1/m) sum x x^T.

    ``samples`` is an (m, d) array, used as it is, or a list of m vectors,
    stacked into one.
    """
    if len(samples) == 0:
        raise EmptySample("batch PCA needs at least one sample")
    x = np.asarray(samples, dtype=float)
    if x.ndim != 2:
        raise DimMismatch(f"samples must form an (m, d) array, got shape {x.shape}")
    return top_k_projector(x.T @ x / x.shape[0], k)
