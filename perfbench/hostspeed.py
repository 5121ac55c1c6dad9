"""Host speed, measured with a fixed kernel between the benchmark's ops.

On a shared machine the speed of the same code drifts with other tenants'
load: in 40-second runs of one repeated round, the round's wall time moved
by a factor of up to 1.6 within a run, and the medians of two sets of ten
runs of the same code differed by up to 38%.  The benchmark therefore times
a fixed kernel, which calls nothing of cutofflab, every ``EVERY_S`` seconds
between ops, and scales each op's wall time by ``REF_S`` over the kernel's
median time around that op.  A scaled time is the op's time on the host at
the speed where the kernel takes ``REF_S``.  A change to the library moves
op times and not the kernel, so it shows in the scaled times in full.
"""

from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

import numpy as np

REF_S = 2.5e-3   # the kernel's median time on the reference host
EVERY_S = 0.1    # the loop samples the kernel at least this often
WINDOW_S = 0.5   # kernel samples this close to an op scale its time
BURST = 40       # kernel samples that scale a set-up time

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random((6, 6))
_MATRIX = _RNG.random((40, 40))
_GRID = np.linspace(0.0, 1.0, 4000)


def kernel() -> None:
    """A fixed mix of the kinds of work the library does: dicts of tuples,
    exact fractions, small dense linear algebra and vectorised sums."""
    table: dict = {}
    for i in range(3000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i * i
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i, i + 7)
    for _ in range(60):
        q, _r = np.linalg.qr(_SMALL)
        _SMALL @ q
    for _ in range(8):
        np.exp(-3.0 * _GRID).sum()
        (_MATRIX @ _MATRIX).trace()


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speed:
    """Kernel samples taken during a run, with the time each ended."""

    def __init__(self) -> None:
        self.at: list[float] = []
        self.took: list[float] = []

    def sample(self) -> None:
        took = time_kernel()
        self.at.append(time.perf_counter())
        self.took.append(took)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= EVERY_S

    def scale(self, start: float, end: float) -> float:
        """REF_S over the median kernel time within WINDOW_S of the interval
        [start, end], or of the nearest sample when none is that close."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, end + WINDOW_S)
        if lo == hi:
            lo, hi = max(0, lo - 1), min(len(self.at), lo + 1)
        return REF_S / statistics.median(self.took[lo:hi])


def burst() -> list:
    """BURST kernel times taken in a row, after one untimed pass that loads
    what the kernel's first call loads lazily."""
    kernel()
    return [time_kernel() for _ in range(BURST)]
