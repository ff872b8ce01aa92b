"""Host speed along a run, read by a fixed calibration kernel.

The benchmark host is shared: its speed drifts by 10-30% within seconds and
between runs, and the drift reaches every process on it, the set-up probes of
one run included.  A run of the same operations therefore reads 10-25%
faster or slower from one run to the next.  ``SpeedProbe`` runs a small fixed
kernel between operations, once every ``EVERY_S`` seconds of operation time,
and keeps its timings.  An operation's latency at nominal speed is its
measured latency times ``NOMINAL_S`` over the median kernel time in a window
around the operation, so runs compare the program's work rather than the
host's load.  Set-up time is brought to nominal speed the same way, by kernel
runs made right after it.

The kernel mixes what the package spends its time on: short numpy calls on
small vectors, rank-one updates of a small dense matrix, plain interpreter
work, and rank-one updates of a dense matrix too large for the core's own
caches.  The host's slow phases cost interpreter-bound code 50-80% and the
large dense simplex updates about 7%, so a kernel of either kind alone
over- or under-corrects the other; the mix keeps both within the bounds.  It
never calls the package, so no change to the package changes it.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter

import numpy as np

EVERY_S = 0.05  # operation time between two kernel runs
WINDOW_S = 0.5  # kernel runs this far before and after an operation count for it
SETUP_RUNS = 15  # kernel runs that follow a set-up sample
BIG_N = 384  # order of the large matrix: 1.2 MB
# About the kernel's median time on a shared 2-vCPU Intel Xeon host, so that a
# time at nominal speed reads close to what that host measures.
NOMINAL_S = 2.5e-3


class SpeedProbe:
    """Kernel timings of one run, and the speed factor they give an operation."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._v = rng.random(8)
        self._m0 = rng.standard_normal((64, 64))
        self._m = np.empty_like(self._m0)
        self._t = np.empty_like(self._m0)
        self._u = rng.standard_normal(64) * 1e-3
        self._big0 = rng.standard_normal((BIG_N, BIG_N))
        self._big = np.empty_like(self._big0)
        self._big_t = np.empty_like(self._big0)
        self._big_u = rng.standard_normal(BIG_N) * 1e-3
        self._due = 0.0
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def _kernel(self) -> float:
        y = self._v
        for _ in range(40):
            y = np.maximum(y - y.mean(), 0.0) + self._v
        np.copyto(self._m, self._m0)
        for i in range(16):
            np.multiply.outer(self._m[:, i], self._u, out=self._t)
            np.subtract(self._m, self._t, out=self._m)
        total = 0
        for i in range(4000):
            total += (i * i) % 7
        counts: dict[int, int] = {}
        for i in range(300):
            counts[i % 17] = counts.get(i % 17, 0) + 1
        np.copyto(self._big, self._big0)
        for i in range(3):
            np.multiply.outer(self._big[:, i], self._big_u, out=self._big_t)
            np.subtract(self._big, self._big_t, out=self._big)
        return float(y.sum() + self._m[0, 0] + self._big[0, 0]) + total + len(counts)

    def before_op(self):
        """Run the kernel if ``EVERY_S`` of operation time passed since the last run."""
        if self._due <= 0.0:
            start = perf_counter()
            self._kernel()
            self.starts.append(start)
            self.seconds.append(perf_counter() - start)
            self._due = EVERY_S

    def after_op(self, seconds: float):
        self._due -= seconds

    def setup_to_nominal(self, seconds: float) -> float:
        """Set-up ``seconds`` just measured, at nominal host speed."""
        runs = []
        for _ in range(SETUP_RUNS):
            start = perf_counter()
            self._kernel()
            runs.append(perf_counter() - start)
        return seconds * NOMINAL_S / statistics.median(runs)

    def to_nominal(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start`` on, at nominal host speed.  A
        kernel run precedes every operation by at most ``EVERY_S`` of
        operation time, so the window is never empty."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + seconds + WINDOW_S)
        return seconds * NOMINAL_S / statistics.median(self.seconds[lo:hi])
