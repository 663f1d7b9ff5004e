"""Machine speed, measured while the timed code runs.

The benchmark runs on shared machines whose speed drifts by a factor of
1.5 or more, over seconds as well as minutes, which swamps the differences
a change to kpalg makes. So while a timed section runs, a wall-clock
timer interrupts it every INTERVAL_S and runs a fixed pure-Python loop in
the signal handler. The time spent in the handler is taken out of the
section, and the section's time is rescaled by the mean loop time seen
during it:

    reported = (elapsed - handler time) * REFERENCE_S / mean(loop time)

A reported time is what the section would have taken had the loop run in
REFERENCE_S, a fixed constant of the order of the loop's time on the
machine where the seed numbers were taken. The mean, not the median, is used so that time the process loses
to other processes slows the loop as it slows the section. Sections too
short to hold MIN_SAMPLES loops are rescaled together with their
neighbours, or else with the mean over the whole run. The loop
uses only the standard library, never kpalg, and runs with the cyclic
garbage collector switched off: a collection inside it would scan
kpalg's live heap, so kpalg's own collection cost would both leave the
section and slow the loop. The loop frees all it allocates, so it makes
no collection due either; collections run in the section's own time. So
a change to kpalg, its heap included, cannot move the loop; the run
prints measured times next to reported ones.

The timer is a signal in the one thread of the process: no thread or
process is started.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from contextlib import contextmanager
from typing import List

REFERENCE_S = 0.0006
INTERVAL_S = 0.02
MIN_SAMPLES = 10
clock = time.perf_counter


def _unit() -> int:
    # tuples, dicts, strings and calls: the kind of work kpalg does
    acc = {}
    for i in range(1500):
        key = (i % 97, i % 89, str(i % 50))
        acc[key] = acc.get(key, 0) + len(key)
    return len(acc)


def _timed_unit() -> float:
    """The loop's time, with no garbage collection inside it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        _unit()
        return clock() - t0
    finally:
        if enabled:
            gc.enable()


class Section:
    """A timed section: measured time without the handler's, and the loop
    times sampled during it."""

    def __init__(self):
        self.elapsed = 0.0
        self.samples: List[float] = []


@contextmanager
def unsampled():
    """A section timed without interrupting it."""
    sec = Section()
    t0 = clock()
    try:
        yield sec
    finally:
        sec.elapsed = clock() - t0


class Speed:
    def __init__(self):
        self.samples: List[float] = []
        self._handler_s = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = clock()
        self.samples.append(_timed_unit())
        self._handler_s += clock() - t0

    def calibrate(self, n: int = 20) -> None:
        """Sample the loop n times outside any section."""
        for _ in range(n):
            self.samples.append(_timed_unit())

    @contextmanager
    def section(self):
        sec = Section()
        first, handler0 = len(self.samples), self._handler_s
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = clock()
        try:
            yield sec
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            sec.elapsed = clock() - t0 - (self._handler_s - handler0)
            signal.signal(signal.SIGALRM, previous)
            sec.samples = self.samples[first:]

    def factor(self, samples: List[float]) -> float:
        """Multiply a measured time by this to get a reported one: from the
        given loop times, or from the whole run's if they are too few."""
        if len(samples) < MIN_SAMPLES:
            samples = self.samples
        return REFERENCE_S / statistics.fmean(samples)

    def reported(self, sections: List[Section]) -> float:
        """Total time of the sections, each rescaled to reference speed."""
        return sum(s.elapsed * self.factor(s.samples) for s in sections)
