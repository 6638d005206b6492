"""Interval timing in reference seconds.

The host this benchmark was built on runs the same pure-Python code up to
40% faster or slower from one minute to the next, and switches between
such states within seconds, as other tenants come and go. A fixed probe,
a short loop of stdlib Fraction arithmetic (the kind of work euclidmin
does), samples the host's speed: between intervals, and inside
`sampling()` also every PROBE_EVERY seconds from a timer signal, so that
long operations are sampled while they run. Each interval's wall time,
less the probes that ran inside it, is scaled by PROBE_REF over the median
duration of the probes inside it and the two on either side, so a reported
second is a second at the host speed where the probe takes PROBE_REF.
The probe does not touch the program under test, so a change to the
program moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
from fractions import Fraction
from time import perf_counter

PROBE_EVERY = 0.25   # seconds between two probes
PROBE_REF = 0.010    # probe duration that defines one reference second


def probe_work() -> int:
    acc = 0
    for i in range(1, 1201):
        x = Fraction(i % 17 - 8, i % 13 + 1) * Fraction(i % 5 + 1, i % 7 + 1) \
            + Fraction(1, i % 11 + 1)
        acc += x.numerator % 7
    return acc


class SpeedClock:
    def __init__(self):
        self.starts = []      # probe start times
        self.durations = []   # probe durations
        # context in which probes run; a tracer pauses itself there
        self.quiet = contextlib.nullcontext
        self._busy = False    # a timer probe never runs inside another probe

    def probe(self, times: int = 1):
        if self._busy:
            return
        self._busy = True
        try:
            with self.quiet():
                for _ in range(times):
                    started = perf_counter()
                    probe_work()
                    self.starts.append(started)
                    self.durations.append(perf_counter() - started)
        finally:
            self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Probe every PROBE_EVERY seconds while the block runs. Only for
        blocks that run Python code in this process: the probe interrupts
        it between two bytecodes and is later subtracted."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def start(self) -> float:
        """Probe when one is due, then return the interval's start time."""
        if not self.starts or perf_counter() - self.starts[-1] > PROBE_EVERY:
            self.probe()
        return perf_counter()

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds for the interval [t0, t1]; needs two probes
        after t1 (call probe(2) once the last interval has ended)."""
        first = bisect.bisect_left(self.starts, t0)
        after = bisect.bisect_left(self.starts, t1)
        inside = sum(self.durations[first:after])
        near = sorted(self.durations[max(first - 2, 0):after + 2])
        mid = len(near) // 2
        probe = (near[mid] + near[~mid]) / 2
        return (t1 - t0 - inside) * PROBE_REF / probe
