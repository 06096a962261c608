"""The host's momentary interpreter speed, sampled while a pass runs, so
pass times can be given at one fixed reference speed.

The shared host this benchmark was tuned on switches between speed modes
about 1.7x apart, for seconds to a minute at a time, and within its fast
mode the speed flickers from one second to the next.  A run's median pass
time therefore lands on whichever mode held most of that run.  A fixed
pure-Python probe loop, timed every ``INTERVAL_S`` while the pass runs,
tracks the same drift: over ten 24-second windows the raw median pass
time of ``thm2-refute`` spread by 0.20 (quartile distance over median),
the probe-scaled one by 0.02.

The probe is run from a SIGALRM handler in the benchmark's only thread,
between two bytecodes of whatever the library is doing.  No thread or
process is started.  The probe's own time is taken out of the span it
interrupted.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.05
PROBE_LOOPS = 1500
# the probe's duration at the reference speed: a scaled time is the time
# the span would have taken had every probe in it taken this long
REFERENCE_PROBE_S = 0.0005


def probe() -> float:
    """Time one fixed loop of integer, bigint, dict and list work."""
    start = perf_counter()
    table = {}
    kept = []
    mask = 0
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i % 7
        table[i & 511] = total
        mask |= 1 << (i & 255)
        if i & 3 == 0:
            kept.append(total & mask)
    kept.sort()
    return perf_counter() - start


class Timed:
    """One timed span: its wall time, the probe time taken out of it,
    and the probe samples from just before, inside and just after it."""

    __slots__ = ("wall", "probe_s", "samples")

    def __init__(self, wall, probe_s, samples):
        self.wall = wall
        self.probe_s = probe_s
        self.samples = samples

    @property
    def net(self) -> float:
        """Wall time less the probes that ran inside the span."""
        return self.wall - self.probe_s

    @property
    def factor(self) -> float:
        """Mean speed over the span relative to the reference speed."""
        return statistics.fmean(REFERENCE_PROBE_S / s for s in self.samples)

    @property
    def scaled(self) -> float:
        """Seconds the span would take at the reference speed."""
        return self.net * self.factor


def timed(fn):
    """Run fn() with the probe sampling; returns (Timed, fn's result).

    An exception from fn propagates after the timer is stopped; its
    Timed is lost with it.
    """
    inside = []

    def sample(signum, frame):
        start = perf_counter()
        inside.append(probe())
        overhead.append(perf_counter() - start)

    overhead = []
    before = probe()
    previous = signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
    try:
        start = perf_counter()
        result = fn()
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        wall = perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    after = probe()
    return Timed(wall, sum(overhead), [before, *inside, after]), result
