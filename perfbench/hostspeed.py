"""Wall times corrected for the speed of a shared host.

On a few cores of a shared machine the speed of one core drifts by tens
of percent within seconds, and by as much again from one minute to the
next, as other tenants come and go.  Raw wall times of the same code
then spread more than any useful regression bound.

`Sampler` interrupts the measuring process every PERIOD_S seconds (a
SIGALRM timer) and times `reference()`, a fixed pure-Python kernel that
uses none of ringcat.  `seconds(t0, t1)` takes the wall time of an
interval, removes the time the samples inside it took, and scales the
rest by NOMINAL_S over the mean of the reference times taken in the
interval (or, for a short one, of the MIN_SAMPLES nearest to it).  The
mean, not the median, because the work is slowed by the slow stretches
too: the median misses them and leaves most of the drift in.  The result reads as the seconds the interval would take on
this host when it runs `reference()` in NOMINAL_S.  A change to ringcat
moves the interval and leaves the reference alone, so it shows in full.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import statistics
import time

PERIOD_S = 0.05
MIN_SAMPLES = 7
CHILD_SAMPLES = 5
# About the time of reference() on a quiet 2.1 GHz Xeon vCPU under
# Python 3.11; the corrected times read as seconds at that speed.
NOMINAL_S = 0.001
REFERENCE_LOOPS = 6_000


def reference() -> int:
    """Interpreter-bound work of the kind ringcat does between numpy calls."""
    table: dict[int, int] = {}
    acc = 0
    for i in range(REFERENCE_LOOPS):
        k = (i * 7919) % 1009
        table[k] = table.get(k, 0) + (i & 7)
        acc ^= k
    return acc


class Sampler:
    """Reference samples of one process: start times and durations."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.running = False
        self._busy = False

    def _sample(self, signum=None, frame=None):
        if self._busy:  # a signal that arrived during a sample
            return
        self._busy = True
        t0 = time.perf_counter()
        reference()
        self.starts.append(t0)
        self.times.append(time.perf_counter() - t0)
        self._busy = False

    def start(self):
        self.running = True
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextlib.contextmanager
    def child_at_work(self):
        """Hold the timer while a child process does the work.

        A sample taken meanwhile would not delay the child, so its time
        must not be taken off the interval.  Instead the sampler, if
        running, takes CHILD_SAMPLES samples just before the child starts."""
        if not self.running:
            yield
            return
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(CHILD_SAMPLES):
            self._sample()
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def top_up(self):
        """Sample until there are MIN_SAMPLES, for a run too short to have them."""
        while len(self.times) < MIN_SAMPLES:
            self._sample()

    def factor(self, t0: float, t1: float) -> float:
        """NOMINAL_S over the mean reference time in or nearest [t0, t1)."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.times)):
            if lo > 0:
                lo -= 1
            if hi < len(self.times) and hi - lo < MIN_SAMPLES:
                hi += 1
        return NOMINAL_S / statistics.fmean(self.times[lo:hi])

    def seconds(self, t0: float, t1: float) -> float:
        """Host-corrected seconds of [t0, t1); see the module docstring."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_left(self.starts, t1)
        busy = t1 - t0 - sum(self.times[lo:hi])
        return max(busy, 0.0) * self.factor(t0, t1)

