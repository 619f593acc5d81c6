"""Shared test helpers: independent brute-force oracles and random generators.

The oracles here deliberately take different algorithmic routes from the
library code they check (exhaustive active-set enumeration instead of
thresholding; scalar root bisection instead of cap counting or an exact
breakpoint solve).  The scalar references at the end are earlier versions
of vectorised library code, kept so tests can demand identical bytes.
``simplex_project_scaled`` and ``spectral_norm`` were library functions that
no learner calls; they live here as references.
"""

import bisect
import itertools

import numpy as np

from subspace_bandits import learners
from subspace_bandits.decomposition import ZERO_TOL, decompose, sample_component
from subspace_bandits.domain import check_hull_membership, projector_from_basis, within_hull
from subspace_bandits.errors import NotInHull
from subspace_bandits.estimators import (
    estimate_asym,
    estimate_sym,
    mbeg_estimate,
    mbeg_pair_probs,
    split_halves,
)
from subspace_bandits.oracles import impossibility_fixture, observe
from subspace_bandits.seeding import make_rng
from subspace_bandits.spectral import LOG_FLOOR, TIE_TOL, EigenSystem, sym_eig, sym_matrix


def random_orthonormal(rng, d, k):
    """d x k matrix with orthonormal columns (QR of a Gaussian)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    q = q * np.sign(np.where(np.diag(r) == 0, 1.0, np.diag(r)))
    return q[:, :k]


def random_projector(rng, d, k):
    return projector_from_basis(random_orthonormal(rng, d, k))


def random_hull_spectrum(rng, d, k):
    """Spectrum in [0, 1] summing to k, sampled away from the extreme points."""
    from subspace_bandits.learners import capped_simplex_project

    return capped_simplex_project(rng.random(d) * 1.5, k)


def random_hull_element(rng, d, k):
    """A symmetric matrix with spectrum in [0, 1] and trace k, in a random basis."""
    v = random_orthonormal(rng, d, d)
    lam = random_hull_spectrum(rng, d, k)
    m = (v * lam) @ v.T
    return 0.5 * (m + m.T)


def brute_force_capped_projection(lam, k):
    """Euclidean projection onto {0 <= v <= 1, sum v = k} by exhaustive active sets.

    Every coordinate is assigned capped (v=1), zeroed (v=0), or free
    (v = lam - theta); consistent assignments are enumerated and the closest
    candidate wins.  Exponential in d; fine for d <= 6.
    """
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    best = None
    best_obj = np.inf
    for pattern in itertools.product((0, 1, 2), repeat=d):
        capped = [i for i in range(d) if pattern[i] == 0]
        zeroed = [i for i in range(d) if pattern[i] == 1]
        free = [i for i in range(d) if pattern[i] == 2]
        v = np.zeros(d)
        v[capped] = 1.0
        if free:
            theta = (lam[free].sum() + len(capped) - k) / len(free)
            vals = lam[free] - theta
            if vals.min() < -1e-9 or vals.max() > 1 + 1e-9:
                continue
            # consistency of the inactive constraints
            if capped and (lam[capped] - theta).min() < 1 - 1e-9:
                continue
            if zeroed and (lam[zeroed] - theta).max() > 1e-9:
                continue
            v[free] = np.clip(vals, 0.0, 1.0)
        else:
            if len(capped) != k:
                continue
            lo = lam[zeroed].max() if zeroed else -np.inf  # need theta >= lo and theta <= hi
            hi = lam[capped].min() - 1 if capped else np.inf
            if lo > hi + 1e-9:
                continue
        obj = float(np.sum((v - lam) ** 2))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best = v
    assert best is not None, "no consistent active set found"
    return best


def bisection_capped_projection(lam, k, iters=200):
    """Euclidean projection onto {0 <= v <= 1, sum v = k} by bisection on the shift.

    v = clip(lam - theta, 0, 1) and sum(v) is non-increasing in theta, equal
    to d at theta = min(lam) - 1 and to 0 at theta = max(lam); halve that
    bracket ``iters`` times.
    """
    v = np.asarray(lam, dtype=float)
    lo = float(v.min()) - 1.0
    hi = float(v.max())
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.clip(v - mid, 0.0, 1.0).sum() >= k:
            lo = mid
        else:
            hi = mid
    return np.clip(v - 0.5 * (lo + hi), 0.0, 1.0)


def simplex_project_scaled(lam, k):
    """Euclidean projection onto the scaled simplex {v >= 0, sum(v) = k}.

    Threshold form: find the largest prefix size rho of the sorted values for
    which the shifted value stays positive, set theta to the prefix mean
    excess, and return max(lam - theta, 0).  No learner needs it: the tests
    use it as the reference the capped-simplex projection meets when no cap binds.
    """
    v = np.asarray(lam, dtype=float)
    sorted_desc = np.sort(v)[::-1]
    cumsum = np.cumsum(sorted_desc)
    js = np.arange(1, v.size + 1)
    positive = sorted_desc - (cumsum - k) / js > 0
    rho = int(js[positive][-1])
    theta = (cumsum[rho - 1] - k) / rho
    return np.maximum(v - theta, 0.0)


def spectral_norm(m):
    """Largest absolute eigenvalue of an exactly symmetric matrix."""
    if not (m == m.T).all():
        raise ValueError("spectral_norm takes an exactly symmetric matrix")
    vals = np.linalg.eigvalsh(m)  # ascending
    return float(max(-vals[0], vals[-1]))


def brute_force_scaled_simplex(lam, k):
    """Euclidean projection onto {v >= 0, sum v = k} by active-set enumeration."""
    lam = np.asarray(lam, dtype=float)
    d = lam.size
    best = None
    best_obj = np.inf
    for pattern in itertools.product((0, 1), repeat=d):
        free = [i for i in range(d) if pattern[i] == 1]
        zeroed = [i for i in range(d) if pattern[i] == 0]
        if not free:
            continue
        theta = (lam[free].sum() - k) / len(free)
        vals = lam[free] - theta
        if vals.min() < -1e-9:
            continue
        if zeroed and (lam[zeroed] - theta).max() > 1e-9:
            continue
        v = np.zeros(d)
        v[free] = np.maximum(vals, 0.0)
        obj = float(np.sum((v - lam) ** 2))
        if obj < best_obj - 1e-15:
            best_obj = obj
            best = v
    assert best is not None
    return best


def entropic_objective(v, mu):
    """sum v log(v/mu) - v + mu with the v log v -> 0 limit at zero."""
    v = np.asarray(v, dtype=float)
    mu = np.asarray(mu, dtype=float)
    terms = np.where(v > 0, v * (np.log(np.maximum(v, 1e-300)) - np.log(mu)), 0.0)
    return float(np.sum(terms - v + mu))


def bisection_entropic(mu, k, iters=300):
    """Relative-entropy projection onto the capped simplex via scalar bisection.

    The minimizer has the form v = min(t * mu, 1); the trace sum(min(t mu, 1))
    is nondecreasing in t, so bisect t until it matches k.
    """
    mu = np.asarray(mu, dtype=float)
    lo = 0.0
    hi = 1.0
    while np.minimum(hi * mu, 1.0).sum() < k:
        hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.minimum(mid * mu, 1.0).sum() < k:
            lo = mid
        else:
            hi = mid
    return np.minimum(0.5 * (lo + hi) * mu, 1.0)


def loop_sym_eig(m):
    """``sym_eig`` by per-column loops: the sign fix and the tie sort in plain Python.

    Flips each eigenvector so its first component above ``TIE_TOL`` in
    magnitude is positive, then sorts every group of eigenvalues tied within
    ``TIE_TOL`` by descending lexicographic order of the eigenvectors.
    """
    vals, vecs = np.linalg.eigh(sym_matrix(m))
    vals = vals[::-1].copy()
    vecs = vecs[:, ::-1].copy()
    for j in range(vecs.shape[1]):
        col = vecs[:, j]
        nz = np.flatnonzero(np.abs(col) > TIE_TOL)
        if nz.size and col[nz[0]] < 0:
            vecs[:, j] = -col
    d = vals.size
    start = 0
    while start < d:
        stop = start + 1
        while stop < d and vals[stop - 1] - vals[stop] <= TIE_TOL:
            stop += 1
        if stop - start > 1:
            order = sorted(range(start, stop), key=lambda j: tuple(vecs[:, j]), reverse=True)
            vecs[:, start:stop] = vecs[:, order]
        start = stop
    return EigenSystem(values=vals, vectors=vecs)


def argsort_peel(vals, k):
    """``decompose``'s peel as it was: numpy calls on every component.

    Clips the spectrum ``vals`` to [0, 1], rescales it to trace k and
    normalizes it by k, exactly as ``decompose`` does, then peels with a
    stable descending argsort (ties to the lowest index), a numpy sum of the
    residual, a clip and an ``np.sort`` of the columns per component.
    Returns the weights and the column arrays.
    """
    clipped = np.clip(np.asarray(vals, dtype=float), 0.0, 1.0)
    clipped *= k / clipped.sum()
    lam = clipped / k
    d = lam.size
    weights, columns = [], []
    for _ in range(d):
        if float(lam.max()) <= ZERO_TOL:
            break
        order = np.argsort(-lam, kind="stable")
        top = order[:k]
        s = float(lam[order[k - 1]])
        ell = float(lam[order[k]]) if k < d else 0.0
        total = float(lam.sum())
        alpha = min(s * k, total - ell * k)
        assert alpha > ZERO_TOL
        lam[top] -= alpha / k
        np.clip(lam, 0.0, None, out=lam)
        weights.append(alpha)
        columns.append(np.sort(top))
    assert float(lam.max()) <= ZERO_TOL
    return weights, columns


def dense_mbeg_replay(dist, cfg, trace):
    """Replay a traced ``mbeg`` run through the dense reference update.

    Only each step's pair (s, q) is taken from the trace's ``indices``.  The
    pair probability comes from the ``mbeg_pair_probs`` table of the iterate
    diagonal, the observation from replaying the seed's stream in the
    documented order (``rng.random(3)`` for the pair, then the oracle's
    uniform), the estimate from ``mbeg_estimate``, and the update
    exp(log W + eta C_hat) from ``sym_eig`` with its canonical basis.  The
    table and W are built once per iterate, and each table is checked to sum
    to 1 within 1e-12.  A step whose replayed estimate
    is exactly zero keeps the iterate: its update is exp(log W) = W followed
    by the projection, so keeping it is exact when w is a fixed point of
    ``entropic_project``, which is checked the first time an iterate is kept.
    Returns the symmetrized iterate average, the largest relative gap
    between the replayed and the traced ``estimate``, the largest gap
    between the replayed iterate's hull statistics (trace error, smallest and
    largest eigenvalue) and the traced ``hull`` rows, and the largest move
    of a kept spectrum under ``entropic_project``.
    """
    from subspace_bandits.learners import entropic_project, mbeg_rates

    d, k = cfg.spec.d, cfg.spec.k
    eta, alpha = mbeg_rates(cfg)
    rng = make_rng(cfg.seed)
    w = np.full(d, k / d)
    basis = np.eye(d)
    w_bar = np.zeros((d, d))
    worst_gap = worst_stat_gap = worst_fixed_gap = 0.0
    new_iterate = True
    for (s, q), v_traced, traced in zip(trace.indices.tolist(), trace.estimate, trace.hull):
        if new_iterate:
            w_now = (basis * w) @ basis.T
            table = mbeg_pair_probs((basis**2) @ w, alpha, k=k)
            assert abs(table.sum() - 1) <= 1e-12, table.sum()
            stats = (abs(float(w.sum()) - k), float(w.min()), float(w.max()))
            new_iterate = kept = False
        w_bar += w_now
        rng.random(3)
        x_s, x_q = observe(dist, (s, q), rng)
        est = mbeg_estimate(s, q, x_s, x_q, float(table[s, q]), d=d)
        v = est.terms[0][2]
        worst_gap = max(worst_gap, abs(v - v_traced) / max(1.0, abs(v)))
        if v != 0.0:
            m_update = (basis * np.log(np.maximum(w, LOG_FLOOR))) @ basis.T
            m_update = 0.5 * (m_update + m_update.T) + eta * est.to_dense()
            eig = sym_eig(m_update)
            w = entropic_project(np.maximum(np.exp(eig.values), LOG_FLOOR), k)
            basis = eig.vectors
            stats = (abs(float(w.sum()) - k), float(w.min()), float(w.max()))
            new_iterate = True
        elif not kept:
            fixed = entropic_project(np.maximum(w, LOG_FLOOR), k)
            worst_fixed_gap = max(worst_fixed_gap, float(np.max(np.abs(fixed - w))))
            kept = True
        worst_stat_gap = max(worst_stat_gap, *(abs(a - b) for a, b in zip(stats, traced)))
    w_bar /= len(trace.estimate)
    return 0.5 * (w_bar + w_bar.T), worst_gap, worst_stat_gap, worst_fixed_gap


# ---------------------------------------------------------------------------
# Scalar references for the vectorised mbeg step loop
# ---------------------------------------------------------------------------

def argsort_entropic_project(mu, k):
    """``learners.entropic_project`` as it was: a stable descending argsort on every call."""
    v = np.asarray(mu, dtype=float)
    d = v.size
    order = np.argsort(-v, kind="stable")
    sorted_desc = v[order]
    tail = np.cumsum(sorted_desc[::-1])[::-1]  # tail[c] = sum over sorted_desc[c:]
    for c in range(k):
        t = (k - c) / tail[c]
        if t * sorted_desc[c] <= 1 + 1e-15:
            out_sorted = np.concatenate([np.ones(c), t * sorted_desc[c:]])
            out = np.empty(d)
            out[order] = out_sorted
            return out
    raise AssertionError("cap search failed on a positive spectrum")


class ScalarPairSampler:
    """One pair per call with the law of ``mbeg_pair_probs(diag, alpha, k)``.

    Each ``draw`` consumes one ``rng.random(3)`` (branch, s, q) and bisects
    the diagonal's prefix sum at most once; p is the table's own formula.
    """

    def __init__(self, diag, alpha, k):
        diag = np.asarray(diag, dtype=float)
        self._d = diag.size
        self._k = k
        self._alpha = alpha
        self._split = 0.5 * (1 + alpha)
        self._diag = diag.tolist()
        self._cum = np.cumsum(diag).tolist()

    def draw(self, rng):
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


def _scalar_mbeg_iterate(w, basis, alpha, k):
    w_now = (basis * w) @ basis.T
    stats = (abs(float(w.sum()) - k), float(w.min()), float(w.max()))
    return w_now, ScalarPairSampler(np.diagonal(w_now), alpha, k), stats


def scalar_mbeg(dist, cfg, return_trace=False):
    """``learners.mbeg`` as a loop of one scalar pair draw and one ``observe`` per step.

    The same stream order (``rng.random(3)``, then the oracle's uniform), the
    same update and the same hull rule (``domain.within_hull``) as the library.  ``learners.entropic_project`` is looked
    up on every update, so a test that patches it patches both loops.  The
    trace columns are filled one row per step.
    """
    eta, alpha = learners.mbeg_rates(cfg)
    rng = make_rng(cfg.seed)
    rows = []  # (s, q, x_s, x_q, estimate, trace error, smallest, largest eigenvalue)

    d, k = cfg.spec.d, cfg.spec.k
    w = np.full(d, k / d)
    basis = np.eye(d)
    w_now, sampler, stats = _scalar_mbeg_iterate(w, basis, alpha, k)
    w_bar = np.zeros((d, d))
    held = 0

    for i in range(cfg.m):
        held += 1
        s, q, p = sampler.draw(rng)
        x_s, x_q = observe(dist, (s, q), rng).tolist()
        v = x_s * x_q / p if s == q else x_s * x_q / (2 * p)
        if v != 0.0:
            w_bar += held * w_now
            held = 0
            log_w = np.log(np.maximum(w, LOG_FLOOR))
            support = [j for j in range(d) if basis[s, j] != 0.0] if s == q else []
            if len(support) == 1:
                # (s, s) on a row with one nonzero entry j: shift eigenvalue j
                j = support[0]
                log_w[j] += eta * v * basis[s, j] ** 2
                order = np.argsort(log_w, kind="stable")
                vals, basis = log_w[order], basis[:, order]
            else:
                m_update = (basis * log_w) @ basis.T
                m_update[s, q] += eta * v
                if s != q:
                    m_update[q, s] += eta * v
                vals, basis = np.linalg.eigh(0.5 * (m_update + m_update.T))
            w = learners.entropic_project(np.maximum(np.exp(vals - vals[-1]), LOG_FLOOR), k)
            w_now, sampler, stats = _scalar_mbeg_iterate(w, basis, alpha, k)

        if not within_hull(*stats):
            trace_err, w_min, w_max = stats
            raise NotInHull(
                f"iterate left the hull at step {i}: trace error {trace_err:.3g}, "
                f"spectrum [{w_min:.6g}, {w_max:.6g}]"
            )
        rows.append((s, q, x_s, x_q, v, *stats))

    w_bar += held * w_now
    w_bar /= cfg.m
    hull = sym_eig(w_bar)
    report = check_hull_membership(hull, k)
    if not report.passed:
        raise NotInHull(str(report))
    pi = sample_component(decompose(hull, k), rng)
    if not return_trace:
        return pi
    s, q, x_s, x_q, v, *stats = zip(*rows)
    return pi, learners.LearnerTrace(
        np.array((s, q), dtype=np.intp).T, np.array((x_s, x_q)).T, np.array(v), np.array(stats).T,
        final_matrix=0.5 * (w_bar + w_bar.T),
    )


# ---------------------------------------------------------------------------
# Scalar reference for the split-half block engine
# ---------------------------------------------------------------------------

class StubDraws:
    """Stands in for a generator: serves given index rows and uniforms in order.

    ``integers(low, high, size=(n, r))`` returns the next n rows of ``idx``
    and ``random(n)`` the next n entries of ``u``; every call is logged in
    ``calls`` as ("integers", (n, r)) or ("random", n).
    """

    def __init__(self, idx, u):
        self.idx = np.asarray(idx)
        self.u = np.asarray(u, dtype=float)
        self.calls = []
        self._row = 0
        self._pos = 0

    def integers(self, low, high, size):
        n, r = size
        assert low == 0 and self.idx.shape[1] == r
        assert self.idx[self._row : self._row + n].max() < high
        self.calls.append(("integers", (n, r)))
        self._row += n
        return self.idx[self._row - n : self._row].copy()

    def random(self, n):
        self.calls.append(("random", n))
        self._pos += n
        return self.u[self._pos - n : self._pos].copy()


class UniformQueue:
    """Stands in for a generator whose successive ``random()`` calls return the given uniforms."""

    def __init__(self, uniforms):
        self.uniforms = iter(np.asarray(uniforms, dtype=float).tolist())

    def random(self):
        return next(self.uniforms)


def scalar_split_half_sum(dist, spec, idx, u):
    """The split-half sums of the steps with index rows ``idx`` and oracle uniforms ``u``.

    Step t reads ``observe(dist, idx[t], .)`` with the uniform u[t] and
    forms ``split_halves``.  Returns the dense sums of the steps'
    ``estimate_asym`` terms and of their ``estimate_sym`` terms.
    """
    stream = UniformQueue(u)
    asym = np.zeros((spec.d, spec.d))
    sym = np.zeros((spec.d, spec.d))
    for row in np.asarray(idx).tolist():
        halves = split_halves(row, observe(dist, row, stream), spec)
        asym += estimate_asym(halves).to_dense()
        sym += estimate_sym(halves).to_dense()
    return asym, sym


# ---------------------------------------------------------------------------
# Scalar reference for the marginal-identity Monte Carlo
# ---------------------------------------------------------------------------

def scalar_marginal_mc_deviation(d, G, mc_draws, seed):
    """Worst |frequency - 1/2| of a positive reading over the impossibility fixtures.

    For each planted coordinate s and each coordinate i, in that order, one
    generator seeded with ``seed`` serves ``mc_draws`` scalar ``observe``
    calls of coordinate i, one uniform each.
    """
    rng = make_rng(seed)
    worst = 0.0
    for s in range(d):
        dist = impossibility_fixture(d, G, s)
        for i in range(d):
            hits = sum(1 for _ in range(mc_draws) if observe(dist, (i,), rng)[0] > 0)
            worst = max(worst, abs(hits / mc_draws - 0.5))
    return worst
