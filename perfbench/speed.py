"""Machine-speed probe, for scaling measured times to a reference speed.

The shared 2-CPU machine the benchmark was tuned on runs the same code at
speeds up to 50% apart, in phases of seconds to minutes: a fixed
pure-Python loop spread 16% (interquartile range over median) even in its
fastest time per 36 s window.  So the benchmark runs a short probe before,
during (``Ticker``) and after each span it measures, in the same process,
and multiplies the span's time by ``REF_PROBE_S`` over the mean probe
time.  A change to the program moves the scaled time as it moves the raw
one; a change of machine speed moves both the span and the probe.

Pure Python, without numpy, so that ``generate.py`` can probe before it
imports anything whose import time it measures.
"""

from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter

# The probe's time at the reference speed: its fastest phase on the shared
# 2-CPU machine the benchmark was tuned on.
REF_PROBE_S = 0.003
PROBE_EVERY_S = 0.2


def _probe() -> int:
    """A fixed few milliseconds of the kind of work the package does:
    dict updates and frozenset hashing."""
    d = {}
    for i in range(20000):
        k = i & 1023
        d[k] = d.get(k, 0) + i
    s = {frozenset((i, i + 1)) for i in range(3000)}
    return len(d) + len(s)


def probe_s() -> float:
    """Fastest of three runs of the probe, in seconds.  The collector is
    off meanwhile, so the probe's short-lived objects set off no
    collection of the objects of a span it interrupts."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(3):
            start = perf_counter()
            _probe()
            best = min(best, perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return best


def scaled(seconds: float, probes) -> float:
    """``seconds`` at the reference speed, given the probe's times taken
    just before, during and just after the measured span."""
    return seconds * REF_PROBE_S / statistics.mean(probes)


class Ticker:
    """Runs the probe every PROBE_EVERY_S seconds between ``start`` and
    ``stop`` (from SIGALRM, in the measuring thread), so that the speed is
    sampled all through a long span and not only at its ends.  The time
    the probes take is kept in ``spent``, for the caller to take off the
    span's time; they add about 5% to it."""

    def __init__(self) -> None:
        self.samples: list = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(probe_s())
        self.spent += perf_counter() - start

    def start(self) -> None:
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
