"""Deterministic discrete-event engine: virtual clock, event queue, seeded RNG.

All simulation time is integer nanoseconds.  Events are totally ordered by
(fire time, insertion sequence number), so two runs with the same inputs
dispatch the same events in the same order.

A scheduled event is the plain tuple ``(fire_at, seq, target, kind)``: the
heap entry, the handle that ``schedule`` returns and ``cancel`` takes, and
the row passed to ``trace``.  A handler receives the simulator's one
``Event`` record, whose fields are set from that tuple before each call.
"""

from __future__ import annotations

import hashlib
import random
from heapq import heapify, heappop, heappush
from typing import Callable, NamedTuple

NS_PER_SEC = 1_000_000_000

# A scheduled event: (fire_at, seq, target, kind).
Entry = tuple[int, int, str, str]


class SimulationError(Exception):
    """Base class for all simulator errors."""


class SchedulingInPast(SimulationError):
    """An event was scheduled to fire before the current clock."""


class InvalidRange(SimulationError):
    """A random-draw range with lo > hi."""


class UnknownTarget(SimulationError):
    """An event fired for an entity that was never registered."""


class Event:
    """The event a handler is called for: the four fields of its entry.

    One record per Simulator, rebound before every dispatch, so it is valid
    only for the duration of the handler call; a handler that needs the
    event later copies its fields.
    """

    __slots__ = ("fire_at", "seq", "target", "kind")


class RunStats(NamedTuple):
    """Result of a run_until call: every event dispatched over all calls.
    The clock after the call is ``Simulator.now``."""

    events_dispatched: int


class Simulator:
    """Single-threaded event loop.  One instance owns one run's state.

    Entities register a handler under a unique name and schedule events
    against it.  Set ``trace`` to a callable before the run to receive every
    dispatched entry (used for the ``time_ns,seq,target,kind`` trace log).
    """

    def __init__(self):
        self.now = 0
        self.trace: Callable[[Entry], None] | None = None
        self._heap: list[Entry] = []
        self._seq = 0
        self._dispatched = 0
        self._handlers: dict[str, Callable[[Event], None]] = {}
        self._event = Event()

    def register(self, name: str, handler: Callable[[Event], None]) -> None:
        if name in self._handlers:
            raise SimulationError(f"entity {name!r} registered twice")
        self._handlers[name] = handler

    def schedule(self, target: str, kind: str, fire_at: int) -> Entry:
        """Enqueue an event; returns its entry, usable with cancel().

        Total order is (fire_at, seq); seq is unique, so tuple comparison
        never reaches target."""
        if fire_at < self.now:
            raise SchedulingInPast(
                f"cannot schedule {kind!r} at {fire_at} ns; clock is at {self.now} ns"
            )
        seq = self._seq
        self._seq = seq + 1
        ev = (fire_at, seq, target, kind)
        heappush(self._heap, ev)
        return ev

    def cancel(self, ev: Entry) -> None:
        """Drop a pending event; cancelling twice, or after it fired, is harmless.

        The event leaves the heap at once, so the loop checks nothing per
        event.  The heap holds a handful of events.
        """
        heap = self._heap
        if ev in heap:
            heap.remove(ev)
            heapify(heap)

    def run_until(self, t_end: int) -> RunStats:
        """Dispatch every event with fire_at <= t_end in (fire_at, seq) order.

        The clock ends at t_end even if the queue empties early: the run has
        simulated all activity up to that horizon.
        """
        heap = self._heap
        handlers = self._handlers
        trace = self.trace
        event = self._event
        # Counted in a local and stored back even when a handler raises; the
        # raising event counts as dispatched.
        dispatched = self._dispatched
        try:
            while heap and heap[0][0] <= t_end:
                ev = heappop(heap)
                event.fire_at, event.seq, event.target, event.kind = ev
                self.now = ev[0]
                dispatched += 1
                if trace is not None:
                    trace(ev)
                try:
                    handler = handlers[ev[2]]
                except KeyError:
                    raise UnknownTarget(f"no handler registered for {ev[2]!r}") from None
                handler(event)
        finally:
            self._dispatched = dispatched
        self.now = max(self.now, t_end)
        return RunStats(self._dispatched)


def stream_rng(master_seed: int, stream_id: str) -> random.Random:
    """Independent deterministic generator for one traffic source.

    Generator: CPython's Mersenne Twister (MT19937), which produces identical
    sequences on every platform.  The per-stream seed is the first 8 bytes of
    SHA-256("<master_seed>/<stream_id>"), so adding a source never perturbs
    the draws of any other source.
    """
    digest = hashlib.sha256(f"{master_seed}/{stream_id}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "little"))


def uniform_sampler(rng: random.Random, lo: int, hi: int) -> Callable[[], int]:
    """A function that draws one uniform integer duration in [lo, hi], bounds
    inclusive, from rng.  The range is checked and sized once, here.

    Rejection sampling on ``rng.getrandbits``: the algorithm behind
    ``rng.randint(lo, hi)`` (``Random._randbelow_with_getrandbits``), so it
    consumes and returns exactly the same draws, minus the call chain.
    """
    if lo > hi:
        raise InvalidRange(f"lo={lo} exceeds hi={hi}")
    n = hi - lo + 1
    k = n.bit_length()
    getrandbits = rng.getrandbits

    def draw() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return lo + r

    return draw

