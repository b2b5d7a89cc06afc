"""Machine-speed reference for the benchmark's timings.

The benchmark runs on a shared machine whose speed for the same fixed work
switches between levels about 1.6x apart, for seconds to minutes at a time
(the load of other tenants on the host).  A single process cannot avoid
that, and no estimator inside a run of half a minute removes it.

So the benchmark measures the machine's speed while the program runs: a
timer signal interrupts the run every ``INTERVAL_S`` seconds, and the
handler times a fixed reference kernel (pure Python dict, tuple, set,
Fraction and sort work, the kind of work the package does).  Timed
regions are read on ``clock()``, which leaves the samples' time out, and
a region's raw time is scaled by the samples taken during it and the
``NEIGHBOURS`` on either side:

    reference seconds = raw seconds * mean(REF_NOMINAL_S / sample)

so the reported times read as seconds on a machine on which the reference
kernel takes ``REF_NOMINAL_S``.  The kernel is fixed benchmark code, so a
change to the package moves the scaled time exactly as it moves the raw
time.  The raw times stay in the report file.
"""

from __future__ import annotations

import gc
import signal
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

REF_NOMINAL_S = 0.001  # nominal time of one kernel call
# The machine's speed also moves within a tenth of a second, so samples
# are short and frequent (about 5% of the run) and a region is scaled by
# the samples closest to it.
INTERVAL_S = 0.025
NEIGHBOURS = 1


def kernel():
    d, s, x = {}, set(), Fraction(0)
    for i in range(1000):
        k = (i % 97, i % 13, "p%d" % (i % 31))
        d[k] = d.get(k, 0) + i
        s.add(frozenset((i % 7, i % 11)))
        if i % 50 == 0:
            x += Fraction(i, 7)
    return sorted(d.values())[:3], len(s), x


class Meter:
    """Reference samples taken every ``INTERVAL_S`` seconds of one run,
    from ``start()`` to ``stop()``."""

    def __init__(self):
        self.at = array("d")  # when each sample began, on clock()
        self.samples = array("d")
        self.spent = 0.0  # seconds spent taking samples

    def sample(self, *_signal_args):
        a = perf_counter()
        enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not the kernel's time
        try:
            kernel()
        finally:
            if enabled:
                gc.enable()
        b = perf_counter()
        self.at.append(a - self.spent)
        self.samples.append(b - a)
        self.spent += b - a

    def start(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self):
        """Seconds of the run less the time spent taking samples."""
        return perf_counter() - self.spent

    def region(self, begin, end):
        """(raw seconds, reference seconds) of the region between two
        ``clock()`` readings; a sample must have been taken after it."""
        raw = end - begin
        lo = bisect_left(self.at, begin) - NEIGHBOURS
        hi = bisect_right(self.at, end) + NEIGHBOURS
        near = self.samples[max(lo, 0) : hi]
        return raw, raw * sum(REF_NOMINAL_S / s for s in near) / len(near)
