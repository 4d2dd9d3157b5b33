"""Drift-corrected timing.

The CPU speed of a small shared machine drifts on a scale of seconds and
below: a stdlib ``Fraction`` loop's 2-second medians ranged 18.7-33.8 ms
within one minute, and one qp command repeated in one process spread 20 %
(quartile distance over median).  So a fixed reference loop runs beside the
commands throughout a run: an interval timer interrupts the main thread
every ``PERIOD_S`` and the signal handler times one reference loop (the
process stays on one thread; Python runs signal handlers between bytecodes).
A command that ran from t0 to t1 is then corrected by the loops timed during
it:  corrected = (t1 - t0 - handler time) * mean(NOMINAL_REFERENCE_S / loop),
which is its time at a fixed nominal machine speed.  Raw wall-clock figures
(handler time removed) are kept beside the corrected ones.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Median time of one reference loop on the machine the benchmark was written
# on (2 shared cores, Python 3.11).  A constant, so corrected figures from
# different runs and commits compare directly.
NOMINAL_REFERENCE_S = 0.00045

PERIOD_S = 0.01      # interval between reference loops
MIN_SAMPLES = 3      # a short command borrows the nearest loops around it


def reference_loop() -> int:
    """Fixed stdlib-only work: Fraction and int arithmetic, no cone_audit code."""
    acc = Fraction(0)
    step = Fraction(3, 7)
    for i in range(1, 40):
        acc += step * Fraction(i, i + 2) - Fraction(1, i)
        if acc > 10:
            acc -= 10
    total = 0
    for i in range(400):
        total = (total * 31 + i * i) % 1000003
    return total + acc.denominator % 7


class DriftClock:
    """Reference loops timed from a SIGALRM handler, and the correction they give."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        self.ends.append(time.perf_counter())
        self.starts.append(start)

    def __enter__(self) -> "DriftClock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """(raw, corrected) seconds of the interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        # handlers run on this thread, so each one lies wholly inside or outside
        handler = sum(self.ends[k] - self.starts[k] for k in range(lo, hi))
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        loops = [self.ends[k] - self.starts[k] for k in range(lo, hi)]
        raw = end - start - handler
        return raw, raw * statistics.mean(NOMINAL_REFERENCE_S / loop for loop in loops)

    def reference_median(self) -> float:
        return statistics.median(e - s for s, e in zip(self.starts, self.ends))


def percentile(values: list[float], share: float) -> float:
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(share * len(ordered)))
    return ordered[index]
