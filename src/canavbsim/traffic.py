"""Traffic actors: periodic CAN sender, jamming talker, listening sink."""

from __future__ import annotations

import random
from typing import Callable

from .canbus import CanBus, CanMessage
from .core import Event, Simulator, uniform_sampler
from .ethernet import EthFrame
from .gateway import decode
from .metrics import LatencyRecorder


class PeriodicCanSender:
    """Requests one fixed-ID CAN message every period; the payload carries a
    little-endian sequence number for order and loss checks."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bus: CanBus,
        can_id: int,
        dlc: int,
        period: int,
        start: int,
        count_limit: int | None,
    ):
        self.sim = sim
        self.name = name
        self.bus = bus
        self.can_id = can_id
        self.dlc = dlc
        self.period = period
        self.start_at = start
        self.count_limit = count_limit
        self.created = 0
        self._seq_wrap = 1 << (8 * dlc)  # the seq is carried modulo this
        bus.attach(name)
        sim.register(name, self._handle)

    def start(self) -> None:
        # count_limit None is unbounded; 0 sends nothing.
        if self.count_limit != 0:
            self.sim.schedule(self.name, "tick", self.start_at)

    def _handle(self, ev: Event) -> None:
        now = ev.fire_at
        payload = (self.created % self._seq_wrap).to_bytes(self.dlc, "little")
        self.bus.transmit_request(CanMessage(self.can_id, payload, now, self.name))
        self.created += 1
        if self.count_limit is None or self.created < self.count_limit:
            self.sim.schedule(self.name, "tick", now + self.period)


class JammingTalker:
    """Background best-effort source: hands ``frame`` to ``send`` after
    gaps drawn uniformly from period_lo..period_hi ns, inclusive.

    Every tick hands over the same immutable frame.  ``send(frame, now)``
    is the next hop: an access EgressPort's enqueue (finite link; frames
    queue there while the link is busy) or a receiver's on_frame_received
    (ideal attachment, with no access-link serialization).
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        frame: EthFrame,
        period_lo: int,
        period_hi: int,
        rng: random.Random,
        send: Callable,
    ):
        self.sim = sim
        self.name = name
        self.frame = frame
        self._next_gap = uniform_sampler(rng, period_lo, period_hi)
        self._send = send
        sim.register(name, self._handle)

    def start(self) -> None:
        self.sim.schedule(self.name, "tick", self.sim.now)

    def _handle(self, ev: Event) -> None:
        now = ev.fire_at
        self._send(self.frame, now)
        self.sim.schedule(self.name, "tick", now + self._next_gap())


class Listener:
    """Terminal Ethernet node: decodes each frame with a payload straight into
    the recorder's columns and counts payload-less frames as jamming traffic."""

    def __init__(self, name: str, recorder: LatencyRecorder):
        self.name = name
        self.recorder = recorder
        self.jam_frames = 0

    @property
    def records_received(self) -> int:
        return len(self.recorder)

    def on_frame_received(self, frame: EthFrame, now: int) -> None:
        if not frame.payload:
            self.jam_frames += 1
            return
        add = self.recorder.add
        for can_id, data, created_at in decode(frame.payload):
            add(int.from_bytes(data, "little"), can_id, created_at, now)
