"""Host speed meter: scales host times to a reference host speed.

The benchmark's host is a few cores of a shared machine whose speed
changes by up to about three times, in phases from seconds to minutes long.
While a `Meter` runs, a SIGALRM timer interrupts the benchmark every
PERIOD_S seconds and times a fixed pure-Python task that touches no casim
code.  `Meter.clock()` is the host clock less the time spent in those
samples, so timings taken with it leave the samples out, and
`Meter.scale()` is REF_S over the mean sample since its last call: the
factor that turns host seconds measured meanwhile into seconds on this
host at its reference speed.  `Meter.scale_at()` is the same factor from
the samples near one span.  Changes of host speed between and within
runs largely cancel out; a change to casim does not alter the task, so
it shows in full.

The task reads random rows of a table of small dicts built once (about
17 MB, more than a core's private caches hold), the way casim chases
references through its traces, views and object store.  On the reference
host its time follows the host's slow phases as closely as the
benchmark's own iterations do; a task whose data stays in cache slows
less than they do.  The table counts in the process's peak memory.
"""

import gc
import random
import signal
from time import perf_counter

PERIOD_S = 0.05
WINDOW_S = 0.25
TABLE_ROWS = 60000
READS = 1500

# Mean sample on the reference host, a 2-vCPU Intel Xeon virtual machine
# with Python 3.11.7, in its fastest phase, taken from a running benchmark.
REF_S = 0.0008


class Meter:
    """Samples host speed while in a `with` block; see the module doc."""

    def __init__(self):
        self.spent = 0.0        # host seconds spent in samples
        self.samples = []       # (clock(), seconds) of each sample since
                                # the last scale()
        self._saved = None
        rng = random.Random(0)
        self._rows = [{"v": i, "s": "x%d" % i} for i in range(TABLE_ROWS)]
        self._order = [rng.randrange(TABLE_ROWS) for _ in range(READS)]

    def _task(self):
        rows = self._rows
        total = 0
        for i in self._order:
            total += rows[i]["v"]
        return total

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)

    def _sample(self, _signum=None, _frame=None):
        collecting = gc.isenabled()
        gc.disable()
        t0 = perf_counter()
        self._task()
        took = perf_counter() - t0
        if collecting:
            gc.enable()
        self.samples.append((t0 - self.spent, took))
        self.spent += took

    def clock(self):
        """Host seconds, less the time spent in samples."""
        return perf_counter() - self.spent

    def scale(self):
        """REF_S over the mean sample since the last call; takes one more
        sample, so that there is at least one."""
        self._sample()
        factor = _factor(self.samples)
        self.samples = []
        return factor

    def scale_at(self, start, end):
        """The factor for a span from clock() start to end, before the
        round's scale(): REF_S over the mean of the samples taken within
        WINDOW_S of the span, or of every sample since scale()."""
        if not self.samples:
            self._sample()
        near = [s for s in self.samples
                if start - WINDOW_S <= s[0] <= end + WINDOW_S]
        return _factor(near or self.samples)


def _factor(samples):
    return REF_S * len(samples) / sum(took for _at, took in samples)
