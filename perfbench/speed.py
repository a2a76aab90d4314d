"""Host seconds on a reference clock, from a CPU-speed probe.

The benchmark runs on cores it shares with other tenants, and the speed
of such a core drifts by 10-30 % over seconds to minutes (a busy
hyperthread sibling, frequency changes): a fixed pure-Python loop timed
over and over shows the same drift as the workloads.  Wall seconds of two
runs of the same code therefore differ by more than most regressions.

The probe measures the drift where the workload runs.  While installed,
a ``SIGALRM`` interval timer fires every ``PERIOD`` seconds; the handler
runs in the main thread, between two bytecodes of the workload, and
times ``probe()``, a fixed interpreter-bound piece of work (dict, list
and heap operations, like the engine's simulator and task manager).  A
probe that takes ``d`` seconds says the core runs at ``REF_PROBE_S / d``
of the reference speed.

A timed interval reports two figures:

* *wall* -- wall seconds minus the time spent in probe handlers;
* *ref* -- wall seconds times the mean relative speed of the probes taken
  inside the interval (the probe just before it when the interval is
  shorter than a period): the seconds the interval would have taken on
  a core of the reference speed.

Code that becomes slower moves both figures alike; only the core's
speed, which the probe measures, is taken out of *ref*.
"""

from __future__ import annotations

import heapq
import signal
import time
from array import array

clock = time.perf_counter

#: Seconds between probes.
PERIOD = 0.025

#: Probe seconds at the reference speed: about the median probe time on
#: a shared 2.1 GHz Xeon vCPU with CPython 3.11, so reference seconds
#: there read close to wall seconds.
REF_PROBE_S = 6.0e-5


def probe() -> None:
    """A fixed interpreter-bound piece of work: dict, list and heap
    operations on small ints and tuples."""
    d = {}
    heap = []
    out = []
    for i in range(120):
        d[i] = (i, i + 1)
        heapq.heappush(heap, (i * 7919) % 121)
        out.append(d.get(i - 1))
    while heap:
        heapq.heappop(heap)


class SpeedProbe:
    """Times ``probe()`` every ``PERIOD`` seconds while installed."""

    def __init__(self) -> None:
        #: duration of each probe
        self.took = array("d")
        #: seconds spent in the handler so far
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        t0 = clock()
        # The first call brings the probe's code and data back into the
        # caches the workload evicted; only the second call is timed, so
        # the probe measures the core, not what the workload last touched.
        probe()
        t1 = clock()
        probe()
        t2 = clock()
        self.took.append(t2 - t1)
        self.spent += clock() - t0

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        # One probe up front, so every interval has a probe to go by.
        self._handler(signal.SIGALRM, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def start(self) -> tuple:
        """Mark the start of an interval; pass the mark to ``stop``."""
        return (len(self.took), self.spent, clock())

    def stop(self, mark: tuple) -> tuple[float, float]:
        """``(wall, ref)`` seconds of the interval since ``mark``."""
        t1 = clock()
        first, spent0, t0 = mark
        last = len(self.took)
        wall = (t1 - t0) - (self.spent - spent0)
        if not self.took:
            return wall, wall
        if last == first:
            first -= 1
        took = self.took[first:last]
        speed = sum(REF_PROBE_S / d for d in took) / len(took)
        return wall, wall * speed


#: The probe the workloads time their intervals with; ``run.py`` installs
#: it for a whole run.  Until it has taken a probe, ``ref`` equals wall.
SPEED = SpeedProbe()
