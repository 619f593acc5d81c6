"""Deterministic seeding utilities.

Trial seeds are derived with a published 64-bit mixing function (the
splitmix64 finalizer) so that adding sweep points never perturbs the
randomness of existing trials.  Generators are counter-based (Philox), which
makes per-trial streams independent and safe to run concurrently.
"""

from __future__ import annotations

import numpy as np

MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One output of the splitmix64 generator (reference constants)."""
    z = (state + 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return (z ^ (z >> 31)) & MASK64


def mix64(*parts: int) -> int:
    """Fold integers into a single 64-bit seed; order-sensitive."""
    h = 0
    for p in parts:
        h = splitmix64(h ^ (int(p) & MASK64))
    return h


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based generator; distinct seeds give independent streams."""
    return np.random.Generator(np.random.Philox(key=int(seed) & MASK64))


def pinned_cumsum(probs) -> np.ndarray:
    """The inverse-CDF table of a probability vector: its cumulative sums, the last run at 1.0.

    The last run is the sums equal to the total: the last positive entry's and
    every one after it.  For any uniform u in [0, 1), ``searchsorted(c, u,
    "right")`` is then a valid index, and never that of a trailing zero entry.
    """
    c = np.cumsum(probs)
    c[c >= c[-1]] = 1.0
    return c
