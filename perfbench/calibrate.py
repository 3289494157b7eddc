"""Host-speed calibration: report timings at a fixed reference speed.

The benchmark runs on a few cores of a shared host.  Each core switches
between a fast and a slow state (a pure-Python loop takes up to about
1.9 times as long in the slow one) for stretches of seconds to minutes,
so raw timings of the same code spread by 20–35% from run to run,
whatever the estimator.

A *calibration unit* is a fixed piece of pure-Python work (dict, set,
tuple and sort operations on a small random graph, the kind of work the
program does), run with the garbage collector off so that the
program's heap does not change its cost.  The benchmark runs one
before each timed unit (each spec run, each serve_mixed cycle, each
set-up probe) and one after the last, and scales each timing by
``REFERENCE_S`` over the mean duration of the two calibration units
around it.  A slow stretch slows both, so the ratio stays put; a
slower program does not slow the unit, so its cost shows in full.  The
raw timings are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import gc
import random
import signal
import time
from contextlib import contextmanager
from typing import Iterator

#: Seconds a calibration unit takes at the reference speed; a scaled
#: timing reads in seconds at that speed.  Fixed: changing it rescales
#: every timing metric.
REFERENCE_S = 0.040
#: Seconds of CPU time between calibration units inside a long timed unit.
INSIDE_EVERY_S = 1.0


def unit() -> int:
    """The fixed calibration work (about ``REFERENCE_S`` on the reference host)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rng = random.Random(7)
        n = 2400
        adjacency: dict[int, set[int]] = {v: set() for v in range(n)}
        for _ in range(10000):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                adjacency[a].add(b)
                adjacency[b].add(a)
        edges = sorted((a, b) for a in adjacency for b in adjacency[a] if a < b)
        index = {edge: i for i, edge in enumerate(edges)}
        total = 0
        for a, b in edges:
            total += len(adjacency[a] | adjacency[b])
        return total + len(index)
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Runs calibration units and scales timings by the ones around them."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []
        self.paused_s = 0.0

    def sample(self) -> None:
        """Run one calibration unit now."""
        started = time.perf_counter()
        unit()
        ended = time.perf_counter()
        self.ends.append(ended)
        self.durations.append(ended - started)

    @contextmanager
    def inside(self) -> Iterator[None]:
        """Also run a unit every ``INSIDE_EVERY_S`` of CPU time in the block.

        A long timed unit outlasts the host's fast and slow stretches,
        so the units on either side of it do not tell which it ran in.
        The units run from a ``SIGVTALRM`` handler on the main thread;
        the time they take is added to ``paused_s`` for the caller to
        take off its timing.
        """
        def tick(_signum: int, _frame: object) -> None:
            started = time.perf_counter()
            self.sample()
            self.paused_s += time.perf_counter() - started

        previous = signal.signal(signal.SIGVTALRM, tick)
        signal.setitimer(signal.ITIMER_VIRTUAL, INSIDE_EVERY_S, INSIDE_EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_VIRTUAL, 0.0)
            signal.signal(signal.SIGVTALRM, previous)

    def factor(self, started: float, ended: float) -> float:
        """``REFERENCE_S`` over the calibration units around and inside a span.

        The mean of the last unit that ended before ``started``, the
        units that ended inside the span and the first that ended after
        ``ended`` (none before or after at either end of the run).  Call
        it once a unit has run after ``ended``.
        """
        before = bisect.bisect_right(self.ends, started) - 1
        after = bisect.bisect_left(self.ends, ended)
        near = self.durations[max(before, 0):after + 1]
        return REFERENCE_S / (sum(near) / len(near))
