"""How fast the machine runs Python right now, to put timings on one scale.

On a shared host the same work can take 1.5-2x longer for tens of
seconds at a time, because other tenants load the same cores and caches.
Process CPU time moves with wall time there (nothing is descheduled; each
instruction is slower), so neither clock removes it, and no median inside
one run removes a slow phase that spans the whole run.

So a run samples a fixed calibration kernel between its ops: Fraction
work on small matrices, like slicelab's own, but stdlib code only, which
no change to slicelab can make faster or slower.  A time measured at
moment t is scaled by ``REFERENCE_S / c(t)``, where c(t) is the median
kernel time over the samples within ``WINDOW_S`` of the measurement.  The
result is the time the same work would take on a machine where the kernel
takes ``REFERENCE_S``.  The kernel runs with the cyclic garbage collector
off, so that a larger heap left by the program under test (a cache, say)
does not slow the kernel and make the program look faster.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# About the kernel time on the 2-vCPU shared VM the benchmark was written on,
# in its fast phases; times are reported as if the kernel took this long.
REFERENCE_S = 0.012
WINDOW_S = 2.0  # samples this close to a measurement set its scale
INTERVAL_S = 0.25  # a sample at most this often, between ops


def kernel():
    """A fixed piece of Fraction work on small matrices, as slicelab does,
    about 12 ms; its value is unused."""
    n = 7
    m = [[Fraction(1, i + j + 1) + Fraction(i * j % 5, 3) for j in range(n)]
         + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):  # Gauss-Jordan: grows numerators and denominators
        pivot = next(i for i in range(c, n) if m[i][c])
        m[c], m[pivot] = m[pivot], m[c]
        m[c] = [a / m[c][c] for a in m[c]]
        for i in range(n):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    rows = [[Fraction(i - j, (i * j) % 4 + 1) for j in range(8)] for i in range(8)]
    for _ in range(4):  # products of small entries, reduced to keep them small
        rows = [[sum((a * b for a, b in zip(r, c)), Fraction(0)) / 7 for c in zip(*rows)]
                for r in rows]
        rows = [[Fraction(x.numerator % 13 - 6, x.denominator % 5 + 1) for x in r] for r in rows]
    return m, rows


def kernel_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speed:
    """Kernel samples of one run, taken between its measurements."""

    def __init__(self):
        self.times: list = []  # perf_counter at each sample, increasing
        self.samples: list = []  # kernel seconds of each sample

    def sample(self):
        at = time.perf_counter()
        self.samples.append(kernel_seconds())
        self.times.append(at)

    def maybe_sample(self):
        """Sample unless the last sample is younger than INTERVAL_S."""
        if not self.times or time.perf_counter() - self.times[-1] >= INTERVAL_S:
            self.sample()

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time over the samples within WINDOW_S of [start, end].

        Every measurement starts within about INTERVAL_S of a sample, well
        inside WINDOW_S, so the window is never empty."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        return statistics.median(self.samples[lo:hi])

    def scale(self, start: float, end: float) -> float:
        """What a time measured over [start, end] is multiplied by."""
        return REFERENCE_S / self.kernel_s(start, end)
