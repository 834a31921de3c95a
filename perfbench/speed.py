"""Machine-speed gauge: a fixed reference kernel timed between operations.

The shared hosts this benchmark runs on change speed by 20-60 % over seconds
to minutes, and a pure-Python loop and numpy slow down together, so raw wall
times of two runs of the same code can differ by more than any useful bound.
``SpeedGauge`` times ``reference_kernel`` (plain Python arithmetic, numpy
complex exponentials on a cache-sized and a 4 MB array; no ``levyexotic``
code, so a change to the engine cannot move it) at most every ``interval``
seconds.  ``scale(t)`` is ``REFERENCE_S`` over the median kernel time of the
samples nearest to ``t``; multiplying a duration measured at ``t`` by it gives
the duration on a machine where the kernel takes ``REFERENCE_S``.
"""
from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Median reference_kernel() time on a 2-vCPU x86-64 VM (23.1 ms over ten runs
# of each workload); it only fixes the unit of the scaled times.
REFERENCE_S = 0.023
NEIGHBOURS = 4  # samples whose median gives the speed at one instant

_rng = np.random.default_rng(20100318)
_SMALL = np.exp(1j * _rng.random(1 << 13)) * _rng.random(1 << 13)
_LARGE = np.exp(1j * _rng.random(1 << 18))


class SpeedGauge:
    def __init__(self, interval: float = 0.2):
        self.interval = interval
        self.times: list[float] = []  # midpoints of the samples, increasing
        self.kernels: list[float] = []
        self._last = -math.inf
        # The kernel writes into these, so its time does not depend on the
        # state of the allocator, which the engine's large arrays change.
        self._small = np.empty_like(_SMALL)
        self._large = np.empty_like(_LARGE)

    def reference_kernel(self) -> float:
        """Seconds taken by a fixed mix of interpreter and numpy work."""
        t0 = time.perf_counter()
        s = 0.0
        for i in range(40000):
            s += math.sqrt(i) * 1.0001
        for _ in range(12):
            np.multiply(_SMALL, 0.5, out=self._small)
            np.exp(self._small, out=self._small)
            self._small.sum()
        np.multiply(_LARGE, 0.3, out=self._large)
        np.exp(self._large, out=self._large)
        np.multiply(self._large, _LARGE, out=self._large)
        self._large.sum()
        return time.perf_counter() - t0

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = time.perf_counter()
            k = self.reference_kernel()
            self.times.append(t0 + k / 2)
            self.kernels.append(k)
        self._last = time.perf_counter()

    def tick(self) -> None:
        """Sample if ``interval`` seconds have passed since the last sample."""
        if time.perf_counter() - self._last >= self.interval:
            self.sample()

    def scale(self, t: float) -> float:
        i = bisect.bisect_left(self.times, t)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.times) - NEIGHBOURS))
        return REFERENCE_S / statistics.median(self.kernels[lo:lo + NEIGHBOURS])
