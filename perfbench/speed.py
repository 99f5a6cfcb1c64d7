"""Machine-speed normalisation of measured times.

On a shared machine the speed of the same fixed pure-Python work drifts
by a third and more over a few seconds (a fixed loop ran 24-33 ms per
iteration across 5 s windows of one 40 s run, CPU time alike), which
swamps any change to the program under test.  A :class:`Speedometer`
therefore runs a short fixed calibration workload (:func:`calibration`:
integer arithmetic, calls, attribute access, allocation and a sort;
none of it in the package under test) between the jobs of a run, and
rescales every measured time to the speed the calibration shows around
it::

    normalised = measured * REFERENCE_S / (median calibration time near it)

So a normalised time reads as the time the work would have taken on a
machine where one calibration takes :data:`REFERENCE_S`.  Interleaved
this way over 150 s of one process, the 10-second-window medians of
three job kinds (MH on closures, parse + slice, numpy likelihood
weighting) spread 3-4% (IQR/median) where the raw times spread 12-14%.
"""

from __future__ import annotations

import bisect
import math
import random
import statistics
import time
from typing import List

__all__ = ["REFERENCE_S", "Speedometer", "calibration"]

#: Seconds one :func:`calibration` takes on the reference machine (a
#: nominal constant: it scales every normalised time alike).
REFERENCE_S = 0.003
#: Calibrations less than this far apart are skipped.
TICK_EVERY_S = 0.2
#: Calibrations within this many seconds of a measured interval set its
#: speed (at least :data:`MIN_TICKS` nearest ones).
WINDOW_S = 1.5
MIN_TICKS = 5


class _Node:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: int) -> None:
        self.a = a
        self.b = b


def _score(node: _Node) -> float:
    return node.a * 2.0 + math.log1p(node.b)


def calibration() -> int:
    """The fixed calibration workload (about 3 ms of pure Python)."""
    total = 0
    for i in range(20_000):
        total += i * i % 7
    rng = random.Random(1)
    nodes = [_Node(rng.random(), i) for i in range(1_500)]
    total += int(sum(map(_score, nodes)))
    nodes.sort(key=lambda n: n.a)
    return total + nodes[0].b


class Speedometer:
    """Calibration times over one run, and the speed factor they give
    any interval of it (``time.perf_counter`` seconds, or any clock the
    caller passes consistently)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self._mids: List[float] = []
        self._took: List[float] = []

    def tick(self, force: bool = False) -> None:
        """Run one calibration, unless one ran less than
        :data:`TICK_EVERY_S` ago (``force`` runs it regardless)."""
        now = self.clock()
        if not force and self._mids and now - self._mids[-1] < TICK_EVERY_S:
            return
        t0 = time.perf_counter()
        calibration()
        took = time.perf_counter() - t0
        self._mids.append(now + took / 2)
        self._took.append(took)

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median calibration time near
        ``[start, end]``: multiply a time measured in that interval by it."""
        if not self._took:
            return 1.0
        lo = bisect.bisect_left(self._mids, start - WINDOW_S)
        hi = bisect.bisect_right(self._mids, end + WINDOW_S)
        while hi - lo < min(MIN_TICKS, len(self._took)):
            # Widen towards whichever side has the nearer calibration.
            left = start - self._mids[lo - 1] if lo > 0 else math.inf
            right = self._mids[hi] - end if hi < len(self._mids) else math.inf
            if left <= right:
                lo -= 1
            else:
                hi += 1
        return REFERENCE_S / statistics.median(self._took[lo:hi])

    def normalise(self, seconds: float, start: float, end: float) -> float:
        return seconds * self.factor(start, end)
