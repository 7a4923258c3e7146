"""1-Mbps CAN bus model: min-ID arbitration, frame wire time, broadcast delivery.

The bus is non-preemptive: one frame occupies the wire at a time, and the
3-bit interframe space is folded into the frame time.  Error frames and
retransmission are not modeled.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import Callable, NamedTuple

from .core import Event, SimulationError, Simulator
from .wire import STUFFING_NONE, STUFFING_WORST_CASE

# Standard-format data frame: SOF + 11-bit ID + RTR + control + CRC + ACK + EOF
# = 47 bits around the payload, plus the 3-bit interframe space.
FRAME_OVERHEAD_BITS = 47
INTERFRAME_BITS = 3
# Bits subject to stuffing (SOF through CRC sequence).
STUFFABLE_OVERHEAD_BITS = 34


class CanError(SimulationError):
    pass


class DuplicateIdContention(CanError):
    """Two distinct nodes contend for the bus with the same identifier."""


class CanMessage(NamedTuple):
    """One 11-bit-ID CAN data frame request; immutable.

    ``created_at`` is stamped when the sender requested transmission, so
    end-to-end latency includes CAN queueing and arbitration.  ``source`` is
    the sending node and is not carried on the packed Ethernet wire format.
    Fields are not checked here: ``validate_config`` bounds every id and dlc
    a sender uses, and ``gateway.decode`` checks what comes off the wire.
    """

    can_id: int
    payload: bytes
    created_at: int
    source: str = ""


def worst_case_stuff_bits(dlc: int) -> int:
    return (STUFFABLE_OVERHEAD_BITS + 8 * dlc - 1) // 4


def can_frame_time(dlc: int, bitrate: int, stuffing_model: str = STUFFING_NONE) -> int:
    """Wire time in ns of one data frame plus interframe space, rounded up."""
    bits = FRAME_OVERHEAD_BITS + 8 * dlc + INTERFRAME_BITS
    if stuffing_model == STUFFING_WORST_CASE:
        bits += worst_case_stuff_bits(dlc)
    return -(-bits * 1_000_000_000 // bitrate)


def arbitrate(pending: list[CanMessage]) -> CanMessage:
    """The winner among pending: the numerically smallest can_id.  pending
    is left as it was.

    Raises DuplicateIdContention when two distinct nodes hold the winning
    identifier; that situation is undefined on a real bus.
    """
    if not pending:
        raise CanError("arbitrate called with no contenders")
    winner = min(pending, key=attrgetter("can_id"))
    sources = sorted(m.source for m in pending if m.can_id == winner.can_id)
    if sources[0] != sources[-1]:
        raise DuplicateIdContention(f"nodes {sources} contend with id {winner.can_id:#x}")
    return winner


class CanBus:
    """Broadcast bus entity.  Attach nodes, then call transmit_request.

    Each node has a FIFO transmit queue; only the head message takes part in
    arbitration.  On completion the frame is delivered to every *other*
    attached node's receive callback, in attach order.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "canbus",
        bitrate: int = 1_000_000,
        stuffing_model: str = STUFFING_NONE,
        node_queue_cap: int | None = None,
    ):
        self.sim = sim
        self.name = name
        self.bitrate = bitrate
        self.stuffing_model = stuffing_model
        self.node_queue_cap = node_queue_cap
        self.busy_until = 0
        self.overflows: dict[str, int] = {}
        self._queues: dict[str, deque[CanMessage]] = {}
        self._callbacks: dict[str, Callable[[CanMessage, int], None] | None] = {}
        # source node -> the receive callbacks of every other node, in attach order
        self._receivers: dict[str, list[Callable[[CanMessage, int], None]]] = {}
        self._queued = 0  # messages in the node queues plus the one on the wire
        self._transmitting: CanMessage | None = None
        self._frame_times: dict[int, int] = {}  # dlc -> can_frame_time on this bus
        self._arb_scheduled = False
        sim.register(name, self._handle)

    def attach(self, node_id: str, on_receive: Callable[[CanMessage, int], None] | None = None) -> None:
        if node_id in self._queues:
            raise CanError(f"node {node_id!r} attached twice")
        self._queues[node_id] = deque()
        self.overflows[node_id] = 0
        self._callbacks[node_id] = on_receive
        # Rebuilt per attach (a bus has a handful of nodes), so delivery
        # needs no per-frame test of the source.
        self._receivers = {
            source: [
                receive
                for node, receive in self._callbacks.items()
                if node != source and receive is not None
            ]
            for source in self._callbacks
        }

    def transmit_request(self, msg: CanMessage) -> bool:
        """Queue msg at its source node; returns False if the node cap dropped it."""
        q = self._queues.get(msg.source)
        if q is None:
            raise CanError(f"node {msg.source!r} not attached to bus {self.name!r}")
        if self.node_queue_cap is not None and len(q) >= self.node_queue_cap:
            self.overflows[msg.source] += 1
            return False
        q.append(msg)
        self._queued += 1
        self._schedule_arbitration()
        return True

    def queued_messages(self) -> int:
        """Messages waiting at the nodes plus the frame on the wire."""
        return self._queued

    def _schedule_arbitration(self) -> None:
        # Arbitration runs as a same-timestamp event so that every request
        # landing at this instant contends, matching SOF behavior.
        if self._arb_scheduled or self._transmitting is not None:
            return
        # An idle bus is never busy past now: its last frame completed at
        # busy_until, and the clock has reached that completion.
        self._arb_scheduled = True
        self.sim.schedule(self.name, "arbitrate", self.sim.now)

    def _handle(self, ev: Event) -> None:
        if ev.kind == "arbitrate":
            self._arb_scheduled = False
            if self._queued:  # else nothing waits, and this arbitration starts nothing
                self._start_transmission(ev.fire_at)
        else:  # tx_complete
            self._complete_transmission(ev.fire_at)

    def _start_transmission(self, now: int) -> None:
        # No frame is on the wire at an arbitration, so _queued counts the
        # waiting messages.  When the first waiting node holds all of them,
        # its head is the lone contender.
        for q in self._queues.values():
            if q:
                break
        if len(q) == self._queued:
            winner = q.popleft()
        else:
            winner = arbitrate([q[0] for q in self._queues.values() if q])
            self._queues[winner.source].popleft()
        self._transmitting = winner
        dlc = len(winner.payload)
        duration = self._frame_times.get(dlc)
        if duration is None:
            duration = self._frame_times[dlc] = can_frame_time(dlc, self.bitrate, self.stuffing_model)
        self.busy_until = now + duration
        self.sim.schedule(self.name, "tx_complete", self.busy_until)

    def _complete_transmission(self, now: int) -> None:
        msg = self._transmitting
        self._transmitting = None
        self._queued -= 1
        for receive in self._receivers[msg.source]:
            receive(msg, now)
        # Receivers may have queued replies at this same instant; arbitrate
        # among everything pending now.
        self._schedule_arbitration()
