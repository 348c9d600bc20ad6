"""Timings corrected for the speed of a shared host at the time they were taken.

On a 2-vCPU host shared with other tenants the same pure-Python work runs
up to about 1.5x slower for stretches of seconds to minutes, and CPU time
slows with wall time.  bench/baseline.json records both: under
"raw_end_to_end" the wall-clock timings of each seeded run, whose spreads
(quartile distance over median) were 0.17-0.59, mostly above the metrics'
bounds; under "end_to_end" the same runs scaled as below, with spreads of
0.04-0.14.

A Clock runs a fixed pure-Python reference loop between ops (never inside
an op's timed span) and scales each measured interval by
REFERENCE_S / (the loop's time around that interval).  Scaled seconds are
seconds at the speed at which the loop takes REFERENCE_S, which is its time
on an idle core of the reference machine, so on an idle host they equal wall
seconds.  The loop is part of the benchmark, not of the program: a change to
the program moves scaled and raw timings alike.  The loop runs with the
garbage collector off, so that its time does not depend on how many objects
the program keeps alive.
"""

from __future__ import annotations

import gc
import statistics
from bisect import bisect_left, bisect_right
from time import perf_counter

REFERENCE_S = 0.002  # best of two runs of _loop, idle x86-64 core, Python 3.11.7
EVERY_S = 0.05       # least time between two samples
WINDOW_S = 0.1       # samples this close to an interval describe it


def _loop() -> int:
    table = {}
    for i in range(2000):
        table[(i % 61, i)] = i * 7 % 13
    seen = set()
    for (a, _), _ in sorted(table.items(), key=lambda kv: (kv[1], kv[0])):
        seen.add(a)
    return len(seen)


def _loop_seconds() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _loop()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class Clock:
    def __init__(self):
        self.at: list[float] = []    # start of each sample, ascending
        self.took: list[float] = []  # seconds the reference loop took then

    def sample(self) -> None:
        self.at.append(perf_counter())
        self.took.append(min(_loop_seconds(), _loop_seconds()))

    def maybe_sample(self) -> None:
        if not self.at or perf_counter() - self.at[-1] >= EVERY_S:
            self.sample()

    def slowdown(self) -> float:
        """Median host slowdown over the samples taken so far."""
        return statistics.median(self.took) / REFERENCE_S

    def scaled(self, start: float, end: float) -> float:
        """Reference-speed seconds for [start, end]: the samples inside the
        window around it, plus the nearest one on each side."""
        lo = max(0, bisect_left(self.at, start - WINDOW_S) - 1)
        hi = bisect_right(self.at, end + WINDOW_S) + 1
        return (end - start) * REFERENCE_S / statistics.median(self.took[lo:hi])
