"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG.

All simulation time is integer nanoseconds.  Events are totally ordered by
(fire time, insertion sequence number), so two runs with the same inputs
dispatch the same events in the same order.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_SEC = 1_000_000_000


class SimulationError(Exception):
    """Base class for all simulator errors."""


class SchedulingInPast(SimulationError):
    """An event was scheduled to fire before the current clock."""


class InvalidRange(SimulationError):
    """A random-draw range with lo > hi."""


class UnknownTarget(SimulationError):
    """An event fired for an entity that was never registered."""


@dataclass(slots=True)
class Event:
    """One scheduled occurrence.  Total order is (fire_at, seq)."""

    fire_at: int
    seq: int
    target: str
    kind: str
    payload: Any = None
    cancelled: bool = False


@dataclass(slots=True)
class RunStats:
    """Result of a run_until call."""

    events_dispatched: int
    clock: int


class Simulator:
    """Single-threaded event loop.  One instance owns one run's state.

    Entities register a handler under a unique name and schedule events
    against it.  The optional ``trace`` callable receives every dispatched
    event (used for the ``time_ns,seq,target,kind`` trace log).
    """

    def __init__(self, trace: Callable[[Event], None] | None = None):
        self.now = 0
        self.trace = trace
        self._heap: list[tuple[int, int, Event]] = []
        self._seq = 0
        self._dispatched = 0
        self._handlers: dict[str, Callable[[Event], None]] = {}

    def register(self, name: str, handler: Callable[[Event], None]) -> None:
        if name in self._handlers:
            raise SimulationError(f"entity {name!r} registered twice")
        self._handlers[name] = handler

    def schedule(self, target: str, kind: str, fire_at: int, payload: Any = None) -> Event:
        """Enqueue an event; returns a handle usable with cancel()."""
        if fire_at < self.now:
            raise SchedulingInPast(
                f"cannot schedule {kind!r} at {fire_at} ns; clock is at {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = Event(fire_at, seq, target, kind, payload)
        heappush(self._heap, (fire_at, seq, ev))
        return ev

    def cancel(self, ev: Event) -> None:
        ev.cancelled = True

    def run_until(self, t_end: int) -> RunStats:
        """Dispatch every event with fire_at <= t_end in (fire_at, seq) order.

        The clock ends at t_end even if the queue empties early: the run has
        simulated all activity up to that horizon.
        """
        heap = self._heap
        handlers = self._handlers
        trace = self.trace
        while heap and heap[0][0] <= t_end:
            fire_at, _, ev = heappop(heap)
            if ev.cancelled:
                continue
            self.now = fire_at
            self._dispatched += 1
            if trace is not None:
                trace(ev)
            handler = handlers.get(ev.target)
            if handler is None:
                raise UnknownTarget(f"no handler registered for {ev.target!r}")
            handler(ev)
        if t_end > self.now:
            self.now = t_end
        return RunStats(self._dispatched, self.now)

    @property
    def events_dispatched(self) -> int:
        return self._dispatched


def stream_rng(master_seed: int, stream_id: str) -> random.Random:
    """Independent deterministic generator for one traffic source.

    Generator: CPython's Mersenne Twister (MT19937), which produces identical
    sequences on every platform.  The per-stream seed is the first 8 bytes of
    SHA-256("<master_seed>/<stream_id>"), so adding a source never perturbs
    the draws of any other source.
    """
    digest = hashlib.sha256(f"{master_seed}/{stream_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def uniform_draw(rng: random.Random, lo: int, hi: int) -> int:
    """Uniform integer duration in [lo, hi], bounds inclusive.

    Rejection sampling on ``rng.getrandbits``: the algorithm behind
    ``rng.randint(lo, hi)`` (``Random._randbelow_with_getrandbits``), so it
    consumes and returns exactly the same draws, minus the call chain.
    """
    if lo > hi:
        raise InvalidRange(f"lo={lo} exceeds hi={hi}")
    n = hi - lo + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return lo + r
