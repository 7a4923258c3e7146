"""CAN to Ethernet-AVB gateway: FIFO queueing, periodic packing, classification."""

from __future__ import annotations

from collections import deque

from .canbus import CanMessage
from .core import Event, SimulationError, Simulator
from .ethernet import EgressPort, EthFrame
from .wire import (
    CAN_MAX_DLC,
    CAN_MAX_ID,
    COUNT_SIZE,
    COUNT_STRUCT,
    ETHERTYPE_CAN_TUNNEL,
    MIN_PAYLOAD,
    RECORD_OVERHEAD,
    RECORD_STRUCT,
)


class MalformedPayload(SimulationError):
    pass


def pack(messages: list[CanMessage]) -> bytes:
    """Serialize messages into one payload in the ``wire`` format.  The caller
    keeps it within the MTU payload, and so within the 16-bit count field."""
    record = RECORD_STRUCT.pack
    parts = [COUNT_STRUCT.pack(len(messages))]
    for m in messages:
        data = m.payload
        parts += (record(m.can_id, len(data), m.created_at), data)
    return b"".join(parts)


def record_count(payload: bytes) -> int:
    """The record_count field of a packed payload."""
    return COUNT_STRUCT.unpack_from(payload)[0]


def decode(payload: bytes) -> list[tuple[int, bytes, int]]:
    """The records of a packed payload as (can_id, data, created_at), in wire
    order; the inverse of pack.  Rejects any truncated or inconsistent buffer."""
    size = len(payload)
    if size < COUNT_SIZE:
        raise MalformedPayload("payload shorter than the record count field")
    count = record_count(payload)
    record = RECORD_STRUCT.unpack_from
    offset = COUNT_SIZE
    records = []
    for i in range(count):
        if offset + RECORD_OVERHEAD > size:
            raise MalformedPayload(f"record {i} truncated at offset {offset}")
        can_id, dlc, created_at = record(payload, offset)
        offset += RECORD_OVERHEAD
        if can_id > CAN_MAX_ID:
            raise MalformedPayload(f"record {i} can_id {can_id:#x} outside 11-bit range")
        if dlc > CAN_MAX_DLC:
            raise MalformedPayload(f"record {i} dlc {dlc} exceeds 8")
        end = offset + dlc
        if end > size:
            raise MalformedPayload(f"record {i} data truncated")
        records.append((can_id, payload[offset:end], created_at))
        offset = end
    if offset != size:
        raise MalformedPayload(f"{size - offset} trailing bytes after {count} records")
    return records


class Gateway:
    """The CAN-side FIFO plus the periodic packer feeding the Ethernet port.

    Every pack tick drains as many head-of-FIFO records as fit one MTU
    payload into a single frame on ``eth_port``; an empty FIFO emits
    nothing.  Leftover messages wait for the next tick.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        eth_port: EgressPort,
        pack_period: int,
        mtu_payload: int,
        class_for_can: int,
        queue_cap: int | None,
    ):
        self.sim = sim
        self.name = name
        self.eth_port = eth_port
        self.pack_period = pack_period
        self.mtu_payload = mtu_payload
        self.class_for_can = class_for_can  # pcp of every frame the gateway emits
        self.queue_cap = queue_cap
        self.fifo: deque[CanMessage] = deque()
        self.overflow_drops = 0
        self.frames_sent = 0
        sim.register(name, self._handle)

    def start(self) -> None:
        """Schedule the first pack tick at t=0."""
        self.sim.schedule(self.name, "pack", 0)

    def on_can_received(self, msg: CanMessage, now: int) -> None:
        if self.queue_cap is not None and len(self.fifo) >= self.queue_cap:
            self.overflow_drops += 1
            return
        self.fifo.append(msg)

    def _handle(self, ev: Event) -> None:
        now = ev.fire_at
        fifo = self.fifo
        if fifo:  # an empty tick emits nothing
            limit = self.mtu_payload
            batch = []
            size = COUNT_SIZE
            while fifo:
                size += RECORD_OVERHEAD + len(fifo[0].payload)
                if size > limit:
                    break
                batch.append(fifo.popleft())
            payload = pack(batch)
            self.frames_sent += 1
            self.eth_port.enqueue(EthFrame(
                pcp=self.class_for_can,
                payload_len=max(MIN_PAYLOAD, len(payload)),
                payload=payload,
                ethertype=ETHERTYPE_CAN_TUNNEL,
            ), now)
        self.sim.schedule(self.name, "pack", now + self.pack_period)
