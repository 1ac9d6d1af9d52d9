"""Deterministic virtual-clock event loop for the query service.

The service simulates a serving process the same way the runtime
simulates a cluster: time is *virtual*.  Tenants submit requests at
virtual arrival times, admission windows expire at virtual deadlines,
and executing a batch advances the clock by the simulated seconds the
run charged to the machine's ledger — so end-to-end request latency is
a simulated quantity that composes exactly with kernel costs.

Determinism is the contract (mirroring the fault PRNG streams): events
pop in ``(time, tiebreak, seq)`` order where the tiebreak is drawn from
a seeded PRNG at *schedule* time.  Two runs with
the same seed and the same schedule calls replay bit-identically —
results, ledgers, metric totals; a different seed may reorder
same-instant events (the interleavings the service tests explore)
without ever changing any request's result.
"""

from __future__ import annotations

import heapq
import itertools
import random
from typing import Callable

__all__ = ["VirtualClock", "Scheduler"]


class VirtualClock:
    """A monotone virtual-seconds counter."""

    __slots__ = ("now",)

    def __init__(self) -> None:
        self.now = 0.0

    def advance(self, dt: float) -> float:
        """Move time forward by ``dt`` >= 0 seconds; returns the new now."""
        if dt < 0:
            raise ValueError(f"cannot advance the clock by {dt} < 0")
        self.now += dt
        return self.now


class Scheduler:
    """A seeded, replayable event loop over a :class:`VirtualClock`.

    Events are ``(time, fn)`` pairs; :meth:`run` pops them in time order,
    breaking same-time ties by a random priority drawn from the seeded
    PRNG when the event was scheduled (schedule order is the final tie
    break, so the loop is total-ordered and replays exactly).  Popping an
    event sets the clock to its time — unless an earlier event already
    advanced the clock past it, in which case the event runs late at the
    current time (the service is a serial process; execution occupies it).
    """

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.clock = VirtualClock()
        self._rng = random.Random(seed)
        self._heap: list[tuple[float, float, int, Callable[[], None]]] = []
        self._seq = itertools.count()
        self.events_run = 0

    @property
    def now(self) -> float:
        """The current virtual time."""
        return self.clock.now

    def at(self, time: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` for virtual ``time`` (clamped to now)."""
        heapq.heappush(
            self._heap,
            (max(time, self.clock.now), self._rng.random(), next(self._seq), fn),
        )

    def after(self, delay: float, fn: Callable[[], None]) -> None:
        """Schedule ``fn`` ``delay`` >= 0 seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule {delay} < 0 seconds from now")
        self.at(self.clock.now + delay, fn)

    def pending(self) -> int:
        """Events not yet run."""
        return len(self._heap)

    def run(self) -> int:
        """Drain the event queue; returns how many events ran.

        Events scheduled by running events (admission-window flushes,
        chained arrivals) join the same queue and run in order.
        """
        ran = 0
        while self._heap:
            time, _tiebreak, _seq, fn = heapq.heappop(self._heap)
            if time > self.clock.now:
                self.clock.now = time
            fn()
            ran += 1
        self.events_run += ran
        return ran

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Scheduler(seed={self.seed}, now={self.clock.now:.6g}, "
            f"pending={len(self._heap)})"
        )
