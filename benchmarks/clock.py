"""Timing scaled to a fixed host speed.

On a shared host the speed of one core drifts by tens of percent within
seconds, so raw round times spread by 20% or more across runs, while their
ratio to an adjacent fixed computation spreads far less. `Clock.time` follows
every timed section with `host_slowdown`, which runs fixed computations that
do not touch dradder: a pure-Python heap and dict loop, like the simulator's
event loop, and, with weight `numpy_share`, numpy boolean passes over arrays
larger than L2, like the steady-state evaluator. Each part is timed against
its time on a quiet host, and the section's time is divided by the weighted
slowdown measured just before and after it. Times are thus reported in
seconds at the speed of a quiet host. In measurements on a shared 2-vCPU
host, the Python part alone tracked the simulator-bound workload best, and
an even blend tracked the numpy-bound and the allocation-heavy workloads
best.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

import numpy as np

# Times of the two parts on a quiet 2-vCPU x86_64 host (Python 3.11, numpy 2.4).
PYTHON_REFERENCE_S = 0.015
NUMPY_REFERENCE_S = 0.021


class Clock:
    def __init__(self, numpy_share: float):
        self.numpy_share = numpy_share
        if numpy_share:
            # Three 4 MiB buffers: larger than L2, and written in place so
            # the reference adds no transient memory to the peak RSS.
            a = np.random.default_rng(0).integers(0, 2, size=1 << 22, dtype=bool)
            self._bufs = (a, ~a, np.empty_like(a))
        self._last = self.host_slowdown()

    def host_slowdown(self) -> float:
        """How many times slower than a quiet host the reference runs.

        The cyclic garbage collector is off meanwhile: a collection here
        would traverse the workload's live objects and make the reference
        depend on them.
        """
        gc.disable()
        try:
            t0 = perf_counter()
            heap, counts = [], {}
            for i in range(15_000):
                heapq.heappush(heap, (i * 7919 % 10007, i))
                counts[i & 1023] = counts.get(i & 1023, 0) + 1
            while heap:
                heapq.heappop(heap)
            t1 = perf_counter()
            if self.numpy_share:
                a, b, c = self._bufs
                for _ in range(16):
                    np.bitwise_xor(a, b, out=c)
                    np.bitwise_and(c, a, out=c)
                    np.bitwise_or(c, b, out=c)
            t2 = perf_counter()
        finally:
            gc.enable()
        return ((1 - self.numpy_share) * (t1 - t0) / PYTHON_REFERENCE_S
                + self.numpy_share * (t2 - t1) / NUMPY_REFERENCE_S)

    def time(self, fn, *args, **kwargs):
        """Call fn; return (its result, raw seconds, scaled seconds)."""
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        raw = perf_counter() - t0
        after = self.host_slowdown()
        scaled = raw * 2 / (self._last + after)
        self._last = after
        return result, raw, scaled
