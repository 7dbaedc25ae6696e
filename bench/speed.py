"""Machine-speed probes, for timing on a shared machine.

Other tenants of the machine slow this process down by up to about 2x,
in phases that last from a fraction of a second to minutes.  Taking the
fastest of several passes cannot remove a phase that outlasts the run.
So a timer runs a short fixed pure-Python kernel, the probe, every
PROBE_EVERY_S while instances run, and every timed interval is reported
in *reference seconds*:

    reference = wall * REFERENCE_PROBE_S / (mean probe time over the interval)

That is the wall time the interval would have taken at the speed the
probe ran at on the reference machine.  The kernel does what tropibound
does (exact fraction arithmetic, hashing of small tuples), so both slow
down together.  Time spent in probes is left out of every interval, and
the record keeps the raw wall times too.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

# The probe's fastest time on the reference machine: a 2-vCPU Xeon VM at
# 2.1 GHz, CPython 3.11.7.  This constant only fixes the unit; changing it
# rescales every reported time by one factor.
REFERENCE_PROBE_S = 0.0044
PROBE_EVERY_S = 0.2
WINDOW_PROBES = 1.5  # probe periods either side of an interval whose probes count for it


def _kernel() -> int:
    from fractions import Fraction

    acc = Fraction(0)
    for k in range(1, 1200):
        acc += Fraction(k % 7 - 3, k % 11 + 1)
    seen = set()
    for k in range(12000):
        seen.add(((k * 7919) % 1009, k % 3))
    return acc.numerator + len(seen)


def probe() -> float:
    """Seconds the kernel takes now: the best of two runs."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


def to_reference(wall_s: float, probes: list[float]) -> float:
    return wall_s * REFERENCE_PROBE_S / statistics.fmean(probes)


class Speedometer:
    """Probes the machine's speed on a timer while active (main thread only).

    ``clock()`` is perf_counter minus the time spent in probes, so
    intervals measured with it exclude the probes.
    """

    def __init__(self, every: float = PROBE_EVERY_S):
        self.every = every
        self.times: list[float] = []  # clock() at each probe
        self.probes: list[float] = []  # probe seconds
        self.stolen = 0.0
        self._previous_handler = None

    def clock(self) -> float:
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if stolen == self.stolen:  # no probe ran in between
                return now - stolen

    def _tick(self, _signum=None, _frame=None) -> None:
        start = time.perf_counter()
        self.times.append(start - self.stolen)
        self.probes.append(probe())
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "Speedometer":
        self._tick()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.every, self.every)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._tick()

    def reference(self, start: float, end: float) -> float:
        """Reference seconds for the clock() interval [start, end], from
        the probes within WINDOW_PROBES probe periods of it, and at least
        the nearest one on each side."""
        margin = WINDOW_PROBES * self.every
        lo = bisect.bisect_left(self.times, start - margin)
        lo = min(lo, max(bisect.bisect_left(self.times, start) - 1, 0))
        hi = bisect.bisect_right(self.times, end + margin)
        hi = max(hi, bisect.bisect_right(self.times, end) + 1)
        return to_reference(end - start, self.probes[lo:hi])
