"""The machine's speed, measured by a fixed reference computation.

The shared machines the benchmark runs on change speed by up to 1.9x,
in phases from a few seconds to minutes long, and every part of the
program slows alike.  So times are reported at a fixed reference
speed: each measured time is multiplied by REF_SECONDS over the time a
reference computation took around it.  The reference is an exact
determinant by the benchmark's own standard-library code, in the same
exact rational arithmetic as the program; no change to the program
changes its cost.  The raw times are reported beside the scaled ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time
from fractions import Fraction as F
from typing import List

import gen

REF_SECONDS = 1e-3      # times are reported as if the reference took this
EVERY_S = 0.1           # at most one sample per this much wall time
WINDOW_S = 1.5          # samples this close to a job set its scale

_rng = random.Random(0)
_MATRIX = [[F(_rng.randint(-9, 9), _rng.randint(1, 9)) for _ in range(7)]
           for _ in range(7)]


def sample() -> float:
    """Seconds the reference computation takes now."""
    t0 = time.perf_counter()
    gen.bareiss_det(_MATRIX)
    return time.perf_counter() - t0


def scale_now(samples: int = 10) -> float:
    """REF_SECONDS over the mean of a few samples taken now."""
    return REF_SECONDS / statistics.fmean(sample() for _ in range(samples))


class Gauge:
    """Reference samples taken between jobs, at most one per EVERY_S."""

    def __init__(self):
        self.starts: List[float] = []
        self.seconds: List[float] = []

    def tick(self) -> None:
        now = time.perf_counter()
        if not self.starts or now - self.starts[-1] >= EVERY_S:
            self.starts.append(now)
            self.seconds.append(sample())

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS over the mean sample within WINDOW_S of the
        interval [start, end].  The machine flips between a fast and a
        slow state faster than a job runs; the mean of the samples
        weighs the two states as the job meets them."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return REF_SECONDS / statistics.fmean(self.seconds[lo:hi] or
                                              self.seconds)
