"""Machine-speed samples taken while a workload runs, to steady its times.

On a small shared machine the speed at which one process executes Python
changes by tens of percent from second to second and from one run to the
next, because other processes share the cores. Every REF_INTERVAL_S of wall
time, a timer signal runs ``reference_kernel``: a fixed amount of work with
the solvers' instruction mix (a small coordinate-descent loop in Python over
numpy slices, independent of ``l0rcd``). A time measured over an interval is
scaled by REF_NOMINAL_S over the mean kernel time of the samples taken in
that interval: the time the work would have taken at a speed where the
kernel takes REF_NOMINAL_S. Only the scale depends on REF_NOMINAL_S; ratios
between runs do not. The mean, not the median, matches how a pass's wall
time adds up slow and fast stretches. Time spent in the handler is left out
of ``clock``.
"""
from __future__ import annotations

import signal
from contextlib import contextmanager
from statistics import mean
from time import perf_counter

import numpy as np

REF_INTERVAL_S = 0.05
REF_STEPS = 360
# The kernel's time on an uncontended core of a 2-core x86-64 box, Python 3.11.
REF_NOMINAL_S = 0.9e-3


class SpeedSampler:
    """Collects reference-kernel times from a periodic timer signal."""

    def __init__(self) -> None:
        rng = np.random.Generator(np.random.Philox(7))
        self._A = rng.uniform(-1.0, 1.0, size=(16, 32))
        self._b = rng.uniform(-1.0, 1.0, size=16)
        self._col_sq = np.einsum("ij,ij->j", self._A, self._A)
        self.samples: list[float] = []
        self.handler_s = 0.0  # wall time spent inside the handler

    def reference_kernel(self) -> int:
        """Hard-thresholded coordinate descent steps on a fixed 16x32 problem."""
        A, col_sq = self._A, self._col_sq
        x = np.zeros(A.shape[1])
        r = -self._b.copy()
        for k in range(REF_STEPS):
            j = (7 * k) % A.shape[1]
            g = float(A[:, j] @ r)
            t = x[j] - g / (2.0 * col_sq[j])
            new = t if col_sq[j] * t * t > 0.05 else 0.0
            if new != x[j]:
                r += A[:, j] * (new - x[j])
                x[j] = new
        return int(np.count_nonzero(x))

    def _sample(self, signum, frame) -> None:
        t0 = perf_counter()
        self.reference_kernel()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += perf_counter() - t0

    @contextmanager
    def running(self):
        """Sample every REF_INTERVAL_S inside the block."""
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def clock(self) -> float:
        """perf_counter without the time spent in the handler."""
        return perf_counter() - self.handler_s

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, start: int = 0, stop: int | None = None) -> float:
        """Scale for a time measured between two marks.

        An interval too short to hold a sample takes the mean of all samples.
        """
        window = self.samples[start:stop] or self.samples
        return REF_NOMINAL_S / mean(window) if window else 1.0
