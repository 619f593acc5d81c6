"""Span tracer that wraps library functions from outside the library.

Each traced layer is a public function of ``subspace_bandits``.  Installing
the tracer replaces every module-level binding of that function object (the
defining module and every module that imported it by name, e.g.
``learners.observe`` and ``harness.observe``) with a wrapper; removing it puts
the original objects back, so with tracing off the library runs unmodified.

A wrapper records one span per call: layer id, start and end (ns), the index
of the enclosing span (-1 at top level) and the trial id set by the caller.
Spans are kept in memory in one flat int64 array and analysed or saved when
the run ends.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np

PACKAGE = "subspace_bandits"

STEP_LOOP = "step_loop"
SPECTRAL = "spectral"
FIXED_COST = "fixed_cost"
GROUPS = (STEP_LOOP, SPECTRAL, FIXED_COST)

# (defining module, function, group).  Group membership follows the layer,
# except that everything called under a fixed-cost layer (other than the
# trial root) counts as fixed cost: decompose's sym_eig is per-trial work.
LAYERS = (
    ("oracles", "observe", STEP_LOOP),
    ("estimators", "draw_uniform_indices", STEP_LOOP),
    ("estimators", "split_halves", STEP_LOOP),
    ("estimators", "estimate_sym", STEP_LOOP),
    ("estimators", "estimate_asym", STEP_LOOP),
    ("learners", "mbgd", STEP_LOOP),
    ("learners", "bandit_pca", STEP_LOOP),
    ("spectral", "sym_eig", SPECTRAL),
    ("learners", "entropic_project", SPECTRAL),
    ("estimators", "mbeg_pair_probs", SPECTRAL),
    ("estimators", "draw_pair", SPECTRAL),
    ("estimators", "mbeg_estimate", SPECTRAL),
    ("learners", "mbeg", SPECTRAL),
    ("decomposition", "decompose", FIXED_COST),
    ("decomposition", "sample_component", FIXED_COST),
    ("learners", "capped_simplex_project", FIXED_COST),
    ("learners", "full_info_pca", FIXED_COST),
    ("oracles", "exact_moments", FIXED_COST),
    ("oracles", "sample_instances", FIXED_COST),
    ("evaluation", "excess_loss", FIXED_COST),
    ("domain", "check_hull_membership", FIXED_COST),
    ("domain", "projector_from_basis", FIXED_COST),
    ("seeding", "make_rng", FIXED_COST),
    ("harness", "run_trial", FIXED_COST),
    ("harness", "emit_csv", FIXED_COST),
)
LAYER_NAMES = tuple(f"{mod}.{fn}" for mod, fn, _ in LAYERS)
# Fixed-cost layers whose children inherit the fixed-cost group.  The trial
# root and the CSV writer are excluded: they enclose the learners.
_FIXED_ROOTS = frozenset(
    i for i, (_, fn, group) in enumerate(LAYERS)
    if group == FIXED_COST and fn not in ("run_trial", "emit_csv")
)
_ESTIMATES = frozenset(("estimate_sym", "estimate_asym", "mbeg_estimate"))

FIELDS = 5  # layer, start_ns, end_ns, parent, trial


def library_modules() -> list:
    """Every imported module of the library package, the package itself included."""
    return [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]


def originals() -> list:
    """The original function object of each layer, in ``LAYERS`` order."""
    return [getattr(sys.modules[f"{PACKAGE}.{mod}"], fn) for mod, fn, _ in LAYERS]


def bindings(funcs) -> list[tuple[object, str, int]]:
    """(module, attribute, layer id) for every module-level name bound to a layer function."""
    by_id = {id(f): i for i, f in enumerate(funcs)}
    return [
        (mod, attr, by_id[id(value)])
        for mod in library_modules()
        for attr, value in vars(mod).items()
        if id(value) in by_id
    ]


class Tracer:
    """Installs span-recording wrappers; use as a context manager."""

    def __init__(self):
        self.spans = array("q")
        self.trial = -1
        self.estimates = 0
        self.informative = 0
        self.terms = 0
        self.decompositions = 0
        self.components = 0
        self.origin = 0
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        self.origin = time.perf_counter_ns()
        funcs = originals()
        for mod, attr, layer in bindings(funcs):
            self._saved.append((mod, attr, funcs[layer]))
            setattr(mod, attr, self._wrap(layer, funcs[layer]))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def _wrap(self, layer: int, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        name = LAYERS[layer][1]
        hook = self._count_estimate if name in _ESTIMATES else (
            self._count_components if name == "decompose" else None
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.extend((layer, 0, 0, stack[-1], self.trial))
            stack.append(idx // FIELDS)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx + 1] = start
                spans[idx + 2] = end
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _count_estimate(self, est) -> None:
        self.estimates += 1
        self.terms += len(est.terms)
        self.informative += any(v != 0 for _, _, v in est.terms)

    def _count_components(self, mix) -> None:
        self.decompositions += 1
        self.components += mix.size

    def table(self) -> np.ndarray:
        """Spans as an (n, 5) int64 array: layer, start_ns, end_ns, parent, trial.

        Times count from the moment the tracer was installed.  Call once the
        tracer is removed: the in-memory spans are released.
        """
        table = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, FIELDS).copy()
        del self.spans[:]
        table[:, 1:3] -= self.origin
        return table


@dataclass(frozen=True)
class LayerTimes:
    """Per-layer totals over a span table, with the group split of self time."""

    calls: np.ndarray       # per layer
    total_ns: np.ndarray    # per layer, inclusive
    self_ns: np.ndarray     # per layer
    group_ns: dict          # group -> self ns
    top_ns: int             # summed duration of top-level spans


def analyse(table: np.ndarray) -> LayerTimes:
    """Self time per layer (duration minus direct children) and per group."""
    n_layers = len(LAYERS)
    layer = table[:, 0]
    dur = table[:, 2] - table[:, 1]
    parent = table[:, 3]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=len(table))
    self_ns = dur - child

    # Inherit the fixed-cost flag from any fixed-root ancestor.  Parents come
    # before children in the table, so depth-many passes settle it.
    fixed = np.isin(layer, list(_FIXED_ROOTS))
    while True:
        inherited = fixed | (nested & fixed[np.where(nested, parent, 0)])
        if np.array_equal(inherited, fixed):
            break
        fixed = inherited
    own_group = np.array([GROUPS.index(group) for _, _, group in LAYERS])
    group = np.where(fixed, GROUPS.index(FIXED_COST), own_group[layer])

    return LayerTimes(
        calls=np.bincount(layer, minlength=n_layers),
        total_ns=np.bincount(layer, weights=dur, minlength=n_layers),
        self_ns=np.bincount(layer, weights=self_ns, minlength=n_layers),
        group_ns={g: float(self_ns[group == i].sum()) for i, g in enumerate(GROUPS)},
        top_ns=int(dur[~nested].sum()),
    )
