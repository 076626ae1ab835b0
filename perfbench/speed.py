"""The machine's speed, sampled on a timer throughout a run.

The benchmark runs on a shared host whose speed drifts by up to half
again, within seconds as well as over minutes, on the wall clock and on
CPU time alike: the cause is the host, not waiting, so a run of ten
seeds one after another would measure the host as much as the program.
A :class:`SpeedProbe` times a fixed pure-Python loop (tuples, sorting,
dicts and ``Fraction``s, the objects ``carrays`` works with) from a
``SIGALRM`` handler every :data:`EVERY_S` seconds of wall time, so an
operation that runs for seconds is sampled while it runs, not only at
its ends.  A timed interval is taken between two :meth:`SpeedProbe.mark`
calls; :meth:`SpeedProbe.reference` turns it into *reference seconds*:
its time less the loop's own, on a machine on which the loop takes
:data:`REFERENCE_S`, judged by the samples from the last one before the
interval to the first one after it.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# the loop's time on this benchmark's reference machine
REFERENCE_S = 0.005
# wall time between samples
EVERY_S = 0.1


def probe_work():
    """The fixed loop; its result is never used."""
    counts: dict = {}
    total = Fraction(0)
    for i in range(3000):
        key = tuple(sorted(((i * 7) % 13, (i * 5) % 11, i % 3)))
        counts[key] = counts.get(key, 0) + 1
        if i % 6 == 0:
            total += Fraction(i % 5 + 1, i % 7 + 2)
    return len(counts), total


class SpeedProbe:
    def __init__(self):
        self.times: list = []
        # wall time spent in samples so far, bookkeeping included
        self.spent = 0.0
        self._busy = False

    def sample(self, *_signal) -> None:
        """Time the loop once, with the collector off so that garbage
        the workload left does not land on it."""
        if self._busy:
            return
        self._busy = True
        began = perf_counter()
        enabled = gc.isenabled()
        gc.disable()
        probe_work()
        took = perf_counter() - began
        if enabled:
            gc.enable()
        self.times.append(took)
        self.spent += perf_counter() - began
        self._busy = False

    def start(self) -> None:
        """Take a sample now and one every :data:`EVERY_S` seconds."""
        signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        """Stop the timer and take the sample that closes every
        interval still open."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()

    def mark(self) -> tuple:
        """One end of a timed interval."""
        return len(self.times), self.spent, perf_counter()

    def measured(self, begin: tuple, end: tuple) -> float:
        """Seconds between two marks, less the samples taken between."""
        return end[2] - begin[2] - (end[1] - begin[1])

    def reference(self, begin: tuple, end: tuple) -> float:
        """Reference seconds between two marks, once a sample has been
        taken after ``end`` (``stop`` takes one)."""
        nearby = self.times[begin[0] - 1:end[0] + 1]
        return self.measured(begin, end) * REFERENCE_S / statistics.fmean(nearby)
