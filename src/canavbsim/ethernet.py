"""100-Mbps Ethernet with store-and-forward switches.

Every egress port owns two FIFO queues (one shaped AVB queue, one
best-effort queue) plus credit-based shaper state.  A frame classified into
the AVB queue may start transmitting only while credit >= 0; best-effort
frames fill the remaining bandwidth.  Transmission is never preempted.

Credit unit: the shaper integrates slope (bits/s) over elapsed time (ns),
so credit is stored as an exact signed integer in units of 1e-9 bits.
Dividing a credit deficit by idle_slope therefore yields whole nanoseconds.
"""

from __future__ import annotations

from collections import deque
from itertools import repeat
from typing import Any, Callable, Iterator, NamedTuple

from .core import Event, SimulationError, Simulator
from .wire import (
    AVB_PCP,
    FCS_BYTES,
    HEADER_BYTES,
    IFG_BYTES,
    PREAMBLE_BYTES,
    VLAN_TAG_BYTES,
)


class ClockRegression(SimulationError):
    """Credit update asked to integrate backwards in time."""


def wire_bits(payload_len: int, tagged: bool) -> int:
    """Bits occupied on the wire including preamble and interframe gap."""
    octets = PREAMBLE_BYTES + HEADER_BYTES + payload_len + FCS_BYTES + IFG_BYTES
    if tagged:
        octets += VLAN_TAG_BYTES
    return 8 * octets


def eth_wire_time(payload_len: int, tagged: bool, rate: int) -> int:
    """Serialization time in ns, rounded up so wire time is never understated."""
    return -(-wire_bits(payload_len, tagged) * 1_000_000_000 // rate)


class EthFrame(NamedTuple):
    """A tagged Ethernet frame.  ``payload_len`` is the padded on-wire payload
    size; ``payload`` holds only the meaningful bytes (padding never reaches
    the decoder, as on a real MAC where the length field strips it): packed
    CAN records, or none in a filler, so a non-empty payload marks a CAN
    frame.  Frames are immutable, so one object may sit in several queues at
    once: the jamming talker sends the same filler frame on every tick.
    Frames compare by value, but a ``RunFifo`` tells them apart by identity.
    Fields are not checked here: ``validate_config`` bounds the filler's pcp
    and size and the gateway's MTU, and the gateway never packs past that MTU.
    """

    pcp: int
    payload_len: int
    payload: bytes = b""


class RunFifo:
    """A FIFO of frames that holds back-to-back references to one frame
    object as one run, so a backlog of the shared filler costs O(1) memory.

    ``depth`` is the frame count; hot paths read it as a plain attribute.
    ``tail`` is the frame of the last run, whose length is
    ``depth - closed_depth``; the runs before it sit in ``closed`` as
    [frame, count] lists.  Appending a repeat of the tail therefore costs
    one identity test and one integer add.  A queue always drains from a
    single run, so an empty one keeps ``tail`` at its last frame: a repeat
    of that frame starts the queue afresh, and any other frame replaces it.
    ``len()`` and iteration count frames, not runs.
    """

    __slots__ = ("cap", "depth", "tail", "closed", "closed_depth")

    def __init__(self, cap: int | None = None) -> None:
        self.cap = cap  # tail-drop limit in frames, kept here for EgressPort.enqueue
        self.depth = 0
        self.tail: EthFrame | None = None
        self.closed: deque[list] = deque()
        self.closed_depth = 0

    def append(self, frame: EthFrame) -> None:
        if frame is not self.tail and self.depth:
            self.closed.append([self.tail, self.depth - self.closed_depth])
            self.closed_depth = self.depth
        self.tail = frame
        self.depth += 1

    def popleft(self) -> EthFrame:
        """Remove and return the head frame; the FIFO must not be empty."""
        self.depth -= 1
        if not self.closed_depth:
            return self.tail
        run = self.closed[0]
        run[1] -= 1
        self.closed_depth -= 1
        if not run[1]:
            self.closed.popleft()
        return run[0]

    def runs(self) -> Iterator[tuple[EthFrame, int]]:
        """(frame, count) for each run, head first."""
        for frame, count in self.closed:
            yield frame, count
        if self.depth:
            yield self.tail, self.depth - self.closed_depth

    def __len__(self) -> int:
        return self.depth

    def __iter__(self) -> Iterator[EthFrame]:
        for frame, count in self.runs():
            yield from repeat(frame, count)


class PortQueues(NamedTuple):
    """The AVB and best-effort FIFOs of one egress port."""

    avb_q: RunFifo
    be_q: RunFifo


class EgressPort:
    """One transmit direction of a link, with shaped queues.

    ``peer`` is any object with on_frame_received(frame, now); delivery
    happens when serialization completes (zero propagation delay).  AVB
    frames carry a VLAN tag on the wire; best-effort frames do not.

    The port owns its 802.1Qav credit, exact and piecewise linear:
    ``_update_credit`` integrates it from ``_credit_at`` to now at the one
    slope that held throughout, so the port updates it wherever the slope
    changes.  The credit is at rest while it is zero, the AVB queue is
    empty and no AVB frame is on the wire; there an update is a no-op.
    Every arrival, end of a transmission and kick with a frame queued brings
    the credit up to now unless it is at rest, whether or not depth_trace is
    set, so every depth_trace row is exact; ``credit`` read between events
    may lag.  AVB gated with nothing else to send schedules one
    ``credit_ready`` at the first ns of non-negative credit; it is never
    cancelled, and a link that is busy when it fires ignores it.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rate: int,
        idle_slope: int,
        peer: Any,
        avb_cap: int | None = None,
        be_cap: int | None = None,
    ):
        self.sim = sim
        self.name = name
        self.rate = rate
        self.peer = peer
        self.queues = PortQueues(RunFifo(avb_cap), RunFifo(be_cap))
        self.idle_slope = idle_slope
        self.send_slope = idle_slope - rate
        self.credit = 0
        self._credit_at = 0
        # Opt-in hooks, set before the run.  depth_trace receives one
        # (now, port name, avb depth, be depth, credit) tuple at every queue
        # change, so a list's bound append can collect the rows.
        self.depth_trace: Callable[[tuple[int, str, int, int, int]], None] | None = None
        self.on_drop: Callable[[EthFrame], None] | None = None
        # Opt-in transmission log: set to a list before the run to collect one
        # (start_ns, wire_bits, is_avb) entry per transmission.  None keeps
        # no per-transmission state.
        self.tx_log: list[tuple[int, int, bool]] | None = None
        self.offered = 0
        self.dropped = 0
        self.transmitted = 0
        self._tx_frame: EthFrame | None = None
        self._tx_is_avb = False
        self._wakeup_pending = False  # a credit_ready is scheduled and has not fired
        # (payload_len, tagged) -> eth_wire_time on this link
        self._wire_times: dict[tuple[int, bool], int] = {}
        sim.register(name, self._handle)

    def in_service(self) -> EthFrame | None:
        return self._tx_frame

    def queued_frames(self) -> int:
        avb_q, be_q = self.queues
        return avb_q.depth + be_q.depth

    def enqueue(self, frame: EthFrame, now: int) -> bool:
        """Classify and append a frame; returns False on tail drop."""
        avb_q, be_q = self.queues
        is_avb = frame.pcp == AVB_PCP
        if is_avb or self.credit or avb_q.depth or self._tx_is_avb:
            # Before the append, so the integration up to now sees the old queue.
            self._update_credit(now)
        self.offered += 1
        q = avb_q if is_avb else be_q
        if q.cap is not None and q.depth >= q.cap:
            self.dropped += 1
            if self.on_drop is not None:
                self.on_drop(frame)
            return False
        q.append(frame)
        if self.depth_trace is not None:
            self.depth_trace((now, self.name, avb_q.depth, be_q.depth, self.credit))
        # A busy link picks its next frame at tx_complete.
        if self._tx_frame is None:
            self.kick(now)
        return True

    def kick(self, now: int) -> None:
        """Start a transmission if a frame is eligible; the link must be idle."""
        avb_q, be_q = self.queues
        # Selection reads the credit while AVB waits, and so does the depth
        # row of any start; at rest an update is a no-op, and with both
        # queues empty nothing reads the credit.
        if avb_q.depth or (self.credit and be_q.depth):
            self._update_credit(now)
        # AVB has strict priority while credit >= 0; negative credit gates
        # the AVB queue and lets best-effort through.
        if avb_q.depth and self.credit >= 0:
            q = avb_q
        elif be_q.depth:
            q = be_q
        else:
            if avb_q.depth and not self._wakeup_pending:
                # AVB gated on negative credit with nothing else to send:
                # wake exactly when credit reaches zero.
                self._wakeup_pending = True
                self.sim.schedule(self.name, "credit_ready", now - self.credit // self.idle_slope)
            return
        frame = q.popleft()
        is_avb = q is avb_q
        self._tx_frame = frame
        self._tx_is_avb = is_avb
        key = (frame.payload_len, is_avb)
        duration = self._wire_times.get(key)
        if duration is None:
            duration = self._wire_times[key] = eth_wire_time(frame.payload_len, is_avb, self.rate)
        if self.tx_log is not None:
            self.tx_log.append((now, wire_bits(frame.payload_len, is_avb), is_avb))
        self.sim.schedule(self.name, "tx_complete", now + duration)
        if self.depth_trace is not None:
            self.depth_trace((now, self.name, avb_q.depth, be_q.depth, self.credit))

    def _handle(self, ev: Event) -> None:
        now = ev.fire_at
        if ev.kind == "tx_complete":
            # Integrate credit over the transmit window before clearing the
            # transmit state, or the send-slope drain would be lost.
            if self._tx_is_avb or self.credit or self.queues.avb_q.depth:
                self._update_credit(now)
            frame = self._tx_frame
            self._tx_frame = None
            self._tx_is_avb = False
            self.transmitted += 1
            if self.depth_trace is not None:
                avb_q, be_q = self.queues
                self.depth_trace((now, self.name, avb_q.depth, be_q.depth, self.credit))
            self.peer.on_frame_received(frame, now)
            self.kick(now)
        else:  # credit_ready; a busy link starts its next frame at tx_complete
            self._wakeup_pending = False
            if self._tx_frame is None:
                self.kick(now)

    def _update_credit(self, now: int) -> None:
        if now < self._credit_at:
            raise ClockRegression(f"credit update at {now} before {self._credit_at}")
        dt = now - self._credit_at
        self._credit_at = now
        # _tx_is_avb is only ever true while a frame is in service.
        if self._tx_is_avb:
            self.credit += self.send_slope * dt
        elif self.queues.avb_q.depth:
            self.credit += self.idle_slope * dt
        else:  # recovers at idle_slope up to zero; positive credit is lost
            self.credit = min(0, self.credit + self.idle_slope * dt)

    def accounting(self) -> dict[str, int]:
        """Exact frame conservation figures for this port."""
        return {
            "offered": self.offered,
            "transmitted": self.transmitted,
            "queued": self.queued_frames(),
            "in_service": 1 if self._tx_frame is not None else 0,
            "dropped": self.dropped,
        }


class Switch:
    """Store-and-forward switch: fixed per-frame processing delay, then the
    frame is enqueued on the switch's one shaped egress port."""

    def __init__(self, sim: Simulator, name: str, forwarding_latency: int, egress: EgressPort):
        self.sim = sim
        self.name = name
        self.forwarding_latency = forwarding_latency
        self.egress = egress
        # Received, not yet enqueued at egress, in arrival order: the one
        # copy of each frame inside the switch.  A constant forwarding
        # latency makes "forward" events fire in that same order.
        self.pending: deque[EthFrame] = deque()
        sim.register(name, self._handle)

    def on_frame_received(self, frame: EthFrame, now: int) -> None:
        # Eligible for egress only after full reception; the processing
        # delay then covers internal transfer.
        self.pending.append(frame)
        self.sim.schedule(self.name, "forward", now + self.forwarding_latency)

    def _handle(self, ev: Event) -> None:
        self.egress.enqueue(self.pending.popleft(), ev.fire_at)
