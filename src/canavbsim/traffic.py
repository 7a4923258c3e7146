"""Traffic actors: periodic CAN sender, jamming talker, listening sink."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .canbus import CanBus, CanMessage
from .core import Event, SimulationError, Simulator, uniform_draw
from .ethernet import (
    ETHERTYPE_CAN_TUNNEL,
    ETHERTYPE_FILLER,
    FCS_BYTES,
    HEADER_BYTES,
    MAX_PAYLOAD,
    MIN_PAYLOAD,
    VLAN_TAG_BYTES,
    AVB_PCP,
    EthFrame,
)
from .gateway import decode
from .metrics import LatencyRecorder


class TrafficError(SimulationError):
    pass


@dataclass
class PeriodicCanSenderCfg:
    can_id: int = 0x100
    dlc: int = 8
    period: int = 3_000_000
    start: int = 0
    count_limit: int | None = None

    def __post_init__(self):
        if self.period <= 0:
            raise TrafficError(f"sender period must be positive, got {self.period}")
        if self.start < 0:
            raise TrafficError(f"sender start must be non-negative, got {self.start}")
        if not 0 <= self.dlc <= 8:
            raise TrafficError(f"sender dlc must be 0..8, got {self.dlc}")
        if self.count_limit is not None and self.count_limit < 0:
            raise TrafficError(f"sender count_limit must be non-negative, got {self.count_limit}")


class PeriodicCanSender:
    """Requests one fixed-ID CAN message every period; the payload carries a
    little-endian sequence number for order and loss checks."""

    def __init__(self, sim: Simulator, name: str, cfg: PeriodicCanSenderCfg, bus: CanBus):
        self.sim = sim
        self.name = name
        self.cfg = cfg
        self.bus = bus
        self.created = 0
        self._seq_wrap = 1 << (8 * cfg.dlc)  # the seq is carried modulo this
        bus.attach(name)
        sim.register(name, self._handle)

    def start(self) -> None:
        # count_limit None is unbounded; 0 sends nothing.
        if self.cfg.count_limit != 0:
            self.sim.schedule(self.name, "tick", self.cfg.start)

    def _handle(self, ev: Event) -> None:
        cfg = self.cfg
        now = ev.fire_at
        payload = (self.created % self._seq_wrap).to_bytes(cfg.dlc, "little")
        self.bus.transmit_request(CanMessage(cfg.can_id, payload, now, self.name))
        self.created += 1
        if cfg.count_limit is None or self.created < cfg.count_limit:
            self.sim.schedule(self.name, "tick", now + cfg.period)


@dataclass
class JammingTalkerCfg:
    """Background best-effort source.

    frame_total_bytes is the on-wire MAC frame size including header and
    FCS (and VLAN tag when the pcp maps to the shaped class); the payload
    is derived from it.  link_rate None means an ideal attachment: frames
    reach the switch at emission time with no access-link serialization.
    """

    frame_total_bytes: int = 1470
    period_lo: int = 1_000
    period_hi: int = 25_000
    pcp: int = 0
    link_rate: int | None = None

    def __post_init__(self):
        if self.period_lo > self.period_hi:
            raise TrafficError(
                f"jammer period_lo {self.period_lo} exceeds period_hi {self.period_hi}"
            )
        if self.period_lo < 0:
            raise TrafficError("jammer periods must be non-negative")
        if self.period_hi < 1:
            # All-zero gaps would tick forever without the clock advancing.
            raise TrafficError(f"jammer period_hi must be at least 1 ns, got {self.period_hi}")
        overhead = HEADER_BYTES + FCS_BYTES + (VLAN_TAG_BYTES if self.pcp == AVB_PCP else 0)
        payload = self.frame_total_bytes - overhead
        if not MIN_PAYLOAD <= payload <= MAX_PAYLOAD:
            raise TrafficError(
                f"frame_total_bytes {self.frame_total_bytes} implies payload {payload}, "
                f"outside {MIN_PAYLOAD}..{MAX_PAYLOAD}"
            )
        self.payload_len = payload


class JammingTalker:
    """Emits filler frames with uniformly random inter-emission gaps.

    ``send(frame, now)`` hands each frame to the next hop: an access
    EgressPort's enqueue (finite link; frames queue there while the link is
    busy) or a receiver's on_frame_received (ideal attachment, used when
    cfg.link_rate is None).
    """

    def __init__(self, sim: Simulator, name: str, cfg: JammingTalkerCfg, rng: random.Random, send: Callable):
        self.sim = sim
        self.name = name
        self.cfg = cfg
        self.rng = rng
        self._send = send
        # Every tick hands over this one immutable frame.
        self.frame = EthFrame(
            pcp=cfg.pcp,
            payload_len=cfg.payload_len,
            ethertype=ETHERTYPE_FILLER,
        )
        sim.register(name, self._handle)

    def start(self) -> None:
        self.sim.schedule(self.name, "tick", self.sim.now)

    def _handle(self, ev: Event) -> None:
        now = ev.fire_at
        self._send(self.frame, now)
        cfg = self.cfg
        self.sim.schedule(self.name, "tick", now + uniform_draw(self.rng, cfg.period_lo, cfg.period_hi))


class Listener:
    """Terminal Ethernet node: decodes CAN-bearing frames straight into the
    recorder's columns and counts everything else as jamming traffic."""

    def __init__(self, name: str, recorder: LatencyRecorder):
        self.name = name
        self.recorder = recorder
        self.jam_frames = 0

    @property
    def records_received(self) -> int:
        return len(self.recorder)

    def on_frame_received(self, frame: EthFrame, now: int) -> None:
        if frame.ethertype != ETHERTYPE_CAN_TUNNEL:
            self.jam_frames += 1
            return
        add = self.recorder.add
        for can_id, data, created_at in decode(frame.payload):
            add(int.from_bytes(data, "little"), can_id, created_at, now)
