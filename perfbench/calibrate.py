"""Host speed, sampled beside the work it scales.

The shared host this benchmark runs on changes speed by up to a third
from one minute to the next, and every work counter stays the same
while it does: a COLOR cell takes 7 s in one minute and 11 s in the
next.  So the throughput metric a bound can hold is scaled to a
reference speed: a fixed unit of pure-Python work is timed every
``PERIOD_S`` of the run, interleaved with the jobs, and

    speed = REFERENCE_UNIT_S / mean unit time

is how fast the host ran the run's own minutes, 1.0 on the host the
reference was taken on.  ``jobs_per_ref_s`` = ``jobs_per_s`` / speed.
The unit is this file's own code, so no change to the compiler moves
it.
"""

from __future__ import annotations

import random
import signal
import time

#: Mean time of one :func:`unit` on the 2-core host the benchmark was
#: sized on, in a quiet minute.
REFERENCE_UNIT_S = 0.5e-3
#: One unit is run every this many seconds of a timed run.
PERIOD_S = 0.03


def _graph() -> tuple[list[int], list[list[int]]]:
    """A fixed random graph: vertices by falling degree, adjacency."""
    rng = random.Random(7)
    n = 400
    adjacent: list[set[int]] = [set() for _ in range(n)]
    for _ in range(1600):
        a, b = rng.randrange(n), rng.randrange(n)
        if a != b:
            adjacent[a].add(b)
            adjacent[b].add(a)
    order = sorted(range(n), key=lambda v: -len(adjacent[v]))
    return order, [sorted(vs) for vs in adjacent]


_ORDER, _ADJACENT = _graph()


def unit() -> int:
    """Greedy colouring of the fixed graph -- dicts, sets, loops and
    calls, like the compiler; returns the colour count.

    A unit that also read an 8 MB table at scattered places followed
    the host no better on ``paper`` and four times worse on
    ``kernels``: how much of the table is still cached depends on the
    jobs run between two units, not on the host."""
    colour: dict[int, int] = {}
    for v in _ORDER:
        used = {colour[u] for u in _ADJACENT[v] if u in colour}
        c = 0
        while c in used:
            c += 1
        colour[v] = c
    return max(colour.values()) + 1


class Sampler:
    """Unit timings taken while a run goes on.

    ``spent`` is the wall time the units took, which the run subtracts
    from its own timings."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.spent = 0.0

    def sample(self, clock=time.perf_counter) -> None:
        t0 = clock()
        unit()
        dt = clock() - t0
        self.times.append(dt)
        self.spent += dt

    def speed(self) -> float:
        """Reference unit time / mean unit time of the run."""
        if not self.times:
            self.sample()
        return REFERENCE_UNIT_S * len(self.times) / sum(self.times)

    def __enter__(self) -> "Sampler":
        """Sample from a ``SIGALRM`` every ``PERIOD_S``: the handler
        runs in the main thread between two bytecodes of whatever job
        is running, so long jobs are sampled all along."""
        self._previous = signal.signal(
            signal.SIGALRM, lambda signum, frame: self.sample()
        )
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    async def sample_forever(self) -> None:
        """The same cadence inside an event loop (the ``serve`` client
        process), timed in this thread's CPU time: the waits for the
        fabric's processes are not the host's speed."""
        import asyncio  # here: the in-process set-up does not load it

        while True:
            await asyncio.sleep(PERIOD_S)
            self.sample(time.thread_time)
