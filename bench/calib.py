"""Drift reference: a fixed loop that never touches the library.

The benchmark shares a 2-vCPU guest with other tenants, and the speed of a
vCPU drifts by up to 1.6x over seconds to minutes (CPU time stays equal to
wall time, so the loss is in execution speed, not in scheduling).  The two
vCPUs drift independently.  The trial loop therefore takes a calibration
sample between trials, at least every ``INTERVAL_S``, on the same vCPU as
the trials, and timing metrics are reported at the reference speed:
``time * REF_MS / sample_ms``.  The chunk mixes interpreter work and a small
``eigh``, as the library does.  Each sample is the fastest of
``CHUNKS_PER_SAMPLE`` back-to-back chunks, which drops a chunk that was
interrupted but keeps the vCPU's current speed.  ``REF_MS`` is fixed once;
changing it rescales every recorded timing.
"""

from __future__ import annotations

import time

import numpy as np

REF_MS = 0.6
INTERVAL_S = 0.1
CHUNKS_PER_SAMPLE = 3

_A = np.random.default_rng(12345).standard_normal((16, 16))
_A = _A + _A.T


def chunk() -> float:
    """Seconds taken by one fixed calibration chunk (about 0.6 ms on a quiet core)."""
    start = time.perf_counter()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    for _ in range(10):
        np.linalg.eigh(_A)
    return time.perf_counter() - start


class Sampler:
    """Calibration samples taken between trials, and the time they cost."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0
        self._last = -float("inf")

    def take(self) -> None:
        start = time.perf_counter()
        self.samples.append(min(chunk() for _ in range(CHUNKS_PER_SAMPLE)))
        self._last = time.perf_counter()
        self._spent += self._last - start

    def take_if_due(self) -> None:
        if time.perf_counter() - self._last >= INTERVAL_S:
            self.take()

    @property
    def total(self) -> float:
        """Seconds spent in calibration, all chunks included."""
        return self._spent

    @property
    def mean(self) -> float:
        """Mean sample in seconds: the run's time-averaged vCPU speed."""
        return sum(self.samples) / len(self.samples)

    def scale(self) -> float:
        """Multiply a measured duration by this to get it at the reference speed."""
        return REF_MS / (self.mean * 1e3)
