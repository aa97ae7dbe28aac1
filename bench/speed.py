"""Host-speed correction of the times the benchmark reports.

The benchmark runs on shared hosts whose speed drifts: a fixed pure-Python
loop can take anywhere from 0.7x to 1.3x its usual time, in phases that last
from seconds to minutes, and the process's CPU time drifts the same way.  Two
runs of the same ops can then differ by 25% in wall time, which no statistic
inside one run removes.

So the runner times two fixed reference loops between ops (at most every
``SAMPLE_EVERY_S``): one of small-int arithmetic and one of ``Fraction``
sums, the library's own kind of work.  Each time it measures is scaled to a
nominal host speed, the speed at which the loops take ``NOMINAL_INT_S`` and
``NOMINAL_FRACTION_S``: the scale is the geometric mean of the two loops'
nominal-to-measured ratios, each loop timed as the median of the
``NEAREST`` samples nearest in time.  The garbage collector is off while the
``Fraction`` loop runs, so that neither loop's time depends on what the
library holds in memory; a change in the library's speed moves the reported
times, a change in the host's speed mostly does not.
"""

from __future__ import annotations

import bisect
import gc
import math
import statistics
from fractions import Fraction
from time import perf_counter

# about the loops' median times on a 2-core Xeon at 2.1 GHz
NOMINAL_INT_S = 0.004
NOMINAL_FRACTION_S = 0.00085
SAMPLE_EVERY_S = 0.05
NEAREST = 7


def int_loop() -> int:
    x = 0
    for k in range(40_000):
        x += k * k % 7
    return x


def fraction_loop() -> Fraction:
    enabled = gc.isenabled()
    gc.disable()
    try:
        s = Fraction(0)
        for i in range(1, 200):
            s += Fraction(i % 13 + 1, i)
        return s
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Timed samples of the reference loops, in the order they were taken."""

    def __init__(self):
        self.times: list[float] = []     # midpoint of each sample
        self.int_s: list[float] = []
        self.fraction_s: list[float] = []
        self.last = float("-inf")

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = perf_counter()
            int_loop()
            middle = perf_counter()
            fraction_loop()
            end = perf_counter()
            self.times.append(middle)
            self.int_s.append(middle - start)
            self.fraction_s.append(end - middle)
            self.last = end

    def sample_if_due(self) -> None:
        if perf_counter() - self.last >= SAMPLE_EVERY_S:
            self.sample()

    @staticmethod
    def _scale(int_s, fraction_s) -> float:
        return math.sqrt(NOMINAL_INT_S / statistics.median(int_s)
                         * NOMINAL_FRACTION_S / statistics.median(fraction_s))

    def scale(self, start: float, end: float) -> float:
        """Factor that turns seconds measured from ``start`` to ``end`` into nominal seconds."""
        if not self.times:
            raise ValueError("no speed sample taken")
        i = bisect.bisect(self.times, (start + end) / 2)
        lo = max(0, min(i - NEAREST // 2, len(self.times) - NEAREST))
        return self._scale(self.int_s[lo:lo + NEAREST], self.fraction_s[lo:lo + NEAREST])

    def host_factor(self) -> float:
        """How much slower than nominal the host ran, over all samples: above 1 when slow."""
        return 1 / self._scale(self.int_s, self.fraction_s)
