"""Host-speed probe: scales measured CPU times to a nominal host speed.

The benchmark shares its CPUs' cores, caches and clock with other tenants.
On a 2-CPU shared host the same pure-Python code was seen to take one or
two times its quiet CPU time, in spells of a few to a few hundred
milliseconds whose mix drifts over minutes; a run of any affordable length
does not average that out, and measuring thread CPU time instead of wall
time does not remove it.

So while a run measures, an interval timer on the process's CPU time
(``ITIMER_PROF``) fires every ``EVERY_S`` and its handler times a fixed
probe: the reference permanent of a fixed 7x7 matrix (``reference.py``,
no library code, about 0.2 ms).  A thread CPU time measured over
``[t0, t1]`` has the probes' own time taken out and is multiplied by
``NOMINAL_NS / median(probes)``, over the probes inside the interval and the
nearest two on each side (a median, because a probe now and then takes
several times its usual time): the time it would have taken on a host where the
probe takes ``NOMINAL_NS``.  The probe does not depend on the seed or on the
package, so a change to the package moves the scaled times as it moves the
raw ones.  The raw times are kept in the result file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import reference as ref

# Probe time on a quiet 2-CPU host (Python 3.11); the scaled times read in
# the seconds of that host.
NOMINAL_NS = 200_000

# Process CPU time between probes.
EVERY_S = 0.01

_ROWS = tuple(
    tuple(None if (3 * i + 5 * j) % 11 == 0 else ((7 * i + 3 * j) % 9 - 3, (i * j) % 4 == 1)
          for j in range(7))
    for i in range(7)
)


class Speed:
    """Probe log on the thread-CPU-time axis of the main thread."""

    def __init__(self):
        # (thread time at the end of a probe, probe time); one append per
        # probe, so a signal arriving inside a probe cannot split an entry
        self.log = []
        self.spent_ns = 0   # thread time spent in probes so far
        self._factors = {}

    def probe(self, signum=None, frame=None):
        t0 = time.thread_time_ns()
        ref.permanent(_ROWS)
        t1 = time.thread_time_ns()
        self.log.append((t1, t1 - t0))
        self.spent_ns += t1 - t0

    def start(self):
        self.probe()
        signal.signal(signal.SIGPROF, self.probe)
        signal.setitimer(signal.ITIMER_PROF, EVERY_S, EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)
        self.probe()

    def factor(self, t0, t1):
        """Scale for a time measured over [t0, t1]."""
        lo = max(0, bisect.bisect_right(self.log, t0, key=_end) - 2)
        hi = bisect.bisect_left(self.log, t1, key=_end) + 2
        f = self._factors.get((lo, hi))
        if f is None:
            f = self._factors[lo, hi] = NOMINAL_NS / statistics.median(p for _, p in self.log[lo:hi])
        return f

    def summary(self):
        probes = [p for _, p in self.log]
        return {"probes": len(probes),
                "probe_median_ns": statistics.median(probes),
                "probe_min_ns": min(probes),
                "probe_max_ns": max(probes),
                "spent_s": self.spent_ns / 1e9}


def _end(entry):
    return entry[0]
