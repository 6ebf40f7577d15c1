"""Machine-speed calibration for the timed runs.

The benchmark runs on shared virtual machines whose speed drifts by up to
2x within a minute, for CPU time as much as for wall time. A fixed
pure-Python calibration pass (permutation products, an inverse and an
orbit search, the same kind of work the package does) is timed between
the decisions, at most ``EVERY_S`` apart. Each decision's time is then
scaled by ``REF_S`` over the calibration time measured around it: the
result is the decision's time at the speed where one calibration pass
takes ``REF_S`` seconds. The pass is the benchmark's own code, so a
change to the package cannot move it.
"""

from __future__ import annotations

import gc
import random
from bisect import bisect_right
from time import perf_counter

N = 3000
PRODUCTS = 40
# Nominal time of one pass: close to its time on an otherwise idle core of
# the 2-vCPU x86-64 VM the bounds were fixed on.
REF_S = 0.003
EVERY_S = 0.05

_rng = random.Random(0)
_PERMS = []
for _ in range(3):
    _p = list(range(N))
    _rng.shuffle(_p)
    _PERMS.append(_p)


def calibration_pass() -> float:
    """Time one fixed pass of pure-Python permutation work. The collector
    is off and the pass's data is touched first, so the heap and caches
    left by the package change it as little as possible."""
    perms = _PERMS
    enabled = gc.isenabled()
    gc.disable()
    try:
        for p in perms:
            sum(p)
        start = perf_counter()
        cur = list(range(N))
        for k in range(PRODUCTS):
            p = perms[k % 3]
            cur = [p[v] for v in cur]
        inv = [0] * N
        for i, v in enumerate(cur):
            inv[v] = i
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for p in perms:
                y = p[x]
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Speedometer:
    """Calibration samples over a run, and the scaling of timed intervals."""

    def __init__(self):
        self.at: list[float] = []  # end of each calibration pass
        self.took: list[float] = []

    def sample(self) -> None:
        took = calibration_pass()
        self.at.append(perf_counter())
        self.took.append(took)

    def maybe(self) -> None:
        """Sample unless the last sample is less than ``EVERY_S`` old."""
        if not self.at or perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds``, timed from ``start``, at the reference speed: scaled
        by the mean of the calibration samples just before and just after
        the interval. Needs a sample on each side."""
        i = bisect_right(self.at, start)
        if i == 0 or i == len(self.at):
            raise ValueError("interval is not bracketed by calibration samples")
        local = (self.took[i - 1] + self.took[i]) / 2
        return seconds * REF_S / local
