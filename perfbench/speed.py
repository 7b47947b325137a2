"""Timing on a machine whose speed swings.

On the shared 2-vCPU machine this benchmark was built on, the same
pure-Python loop runs up to 40% slower from one second to the next, and
its typical speed drifted by 20-40% within an hour.  A run therefore
interleaves a fixed reference task (Fraction sums and tuple-keyed dict
stores, the kind of work the program's inner loops do) with the
operations, and reports each duration scaled by REFERENCE_S over the
reference task's local median duration: what the duration would have
been had the machine run the reference task at REFERENCE_S.  The
program cannot influence the reference task, so a faster or slower
program still reads faster or slower; the raw totals go to the result
file as well.
"""
from __future__ import annotations

import bisect
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.0015  # the reference task's typical duration on that machine
SAMPLE_EVERY_S = 0.1
NEIGHBOURS = 5


def reference_task() -> int:
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 17 + 1, i + 1)
        table[(i, i % 7)] = acc.numerator % 1000003
    return len(table)


class Speed:
    """Reference-task samples keyed by position in the run."""

    def __init__(self):
        self.positions: list[int] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self, position: int) -> None:
        start = time.perf_counter()
        reference_task()
        end = time.perf_counter()
        self.positions.append(position)
        self.durations.append(end - start)
        self._last = end

    def maybe_sample(self, position: int) -> None:
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample(position)

    def scale(self, position: int) -> float:
        """REFERENCE_S over the median of the samples nearest `position`."""
        i = bisect.bisect_left(self.positions, position)
        lo = max(0, min(i - NEIGHBOURS // 2, len(self.durations) - NEIGHBOURS))
        return REFERENCE_S / statistics.median(self.durations[lo:lo + NEIGHBOURS])


def current_scale() -> float:
    """The scale from three reference samples taken now."""
    speed = Speed()
    for _ in range(3):
        speed.sample(0)
    return speed.scale(0)
