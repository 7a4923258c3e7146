"""Ethernet/AVB tests: wire times, credit shaper, selection, forwarding."""

from collections import deque
from itertools import count

import pytest
from hypothesis import example, given, settings, strategies as st

from canavbsim.core import Simulator
from canavbsim.ethernet import (
    ClockRegression,
    EgressPort,
    EthFrame,
    Switch,
    eth_wire_time,
    wire_bits,
)
from canavbsim.wire import AVB_PCP

RATE = 100_000_000
# Events one frame can cause at one hop: the event that brings it (a driver
# event or a switch's reception), the forward, its tx_complete, and at most
# one credit_ready, since a wakeup that fires starts the AVB frame it waited for.
EVENTS_PER_FRAME = 4


def budgeted(sim, most, then=None):
    """Set sim's trace to fail the case once more than ``most`` events have
    dispatched, and return sim: a shaper that keeps re-firing
    ``credit_ready`` at one instant never reaches the horizon, so it must
    fail, not hang.  ``then``, if given, still receives every event."""
    dispatched = count(1)

    def trace(ev):
        if next(dispatched) > most:
            raise AssertionError(f"more than {most} events dispatched; the last: {ev}")
        if then is not None:
            then(ev)

    sim.trace = trace
    return sim


def frame(pcp=0, payload_len=46):
    return EthFrame(pcp=pcp, payload_len=payload_len)


# (8+14+payload+4+12 bytes) * 8 bits at 10 ns/bit, +4 bytes when tagged
@pytest.mark.parametrize(
    "payload,tagged,expected_ns",
    [
        (46, False, 6_720),
        (46, True, 7_040),
        (1448, False, 118_880),
        (1452, False, 119_200),
        (1500, True, 123_360),
    ],
)
def test_wire_time_oracle(payload, tagged, expected_ns):
    assert eth_wire_time(payload, tagged, RATE) == expected_ns


def test_wire_time_rounds_up():
    t = eth_wire_time(46, False, 999_999)
    assert t * 999_999 >= wire_bits(46, False) * 10**9


class Sink:
    def __init__(self):
        self.received = []

    def on_frame_received(self, fr, now):
        self.received.append((fr, now))


def shaped_port(idle_slope=20_000_000):
    """An idle 100 Mbps port and its simulator, budgeted for the two frames
    its callers enqueue at most; frames are enqueued directly."""
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * 2)
    return sim, EgressPort(sim, "p", RATE, idle_slope, peer=Sink())


def test_credit_idle_with_empty_queue_stays_zero():
    # Best-effort traffic alone never moves the credit off zero.
    sim, port = shaped_port()
    port.enqueue(frame(pcp=0, payload_len=1500), 0)
    sim.run_until(1_000_000)
    port._update_credit(1_000_000)
    assert port.credit == 0


def test_credit_drain_during_max_frame_and_replenish_time():
    # hand integration: send_slope -80 Mbps over 123.36 us = -9868.8 bits,
    # stored scaled by 1e9; replenish at 20 Mbps takes 493.44 us, so the
    # second frame's wakeup is due at 123.36 + 493.44 = 616.8 us.
    sim, port = shaped_port()
    port.enqueue(frame(pcp=AVB_PCP, payload_len=1500), 0)
    port.enqueue(frame(pcp=AVB_PCP, payload_len=1500), 0)
    sim.run_until(123_360)
    assert port.credit == -80_000_000 * 123_360
    assert port.credit == -9_868_800_000_000
    assert port._wakeup.fire_at == 123_360 + 493_440 == 616_800


def test_credit_wakeup_rounds_up_to_the_first_nonnegative_ns():
    # At a 7 Mbps idle slope the deficit of one 1500-byte AVB frame,
    # 93e6 * 123_360, takes 1_638_925.7 ns to recover: the wakeup is due at
    # the first whole ns where the credit is no longer negative.
    sim, port = shaped_port(idle_slope=7_000_000)
    port.tx_log = []
    port.enqueue(frame(pcp=AVB_PCP, payload_len=1500), 0)
    port.enqueue(frame(pcp=AVB_PCP, payload_len=1500), 0)
    sim.run_until(123_360)
    assert port._wakeup.fire_at == 123_360 + 1_638_926
    sim.run_until(10_000_000)
    assert port.tx_log == [(0, 12_336, True), (123_360 + 1_638_926, 12_336, True)]


def test_credit_replenish_linearity():
    # 20 Mbps recovers 2e7 units per ns, so -1e8 reaches zero in exactly 5 ns;
    # with the AVB queue empty it stops there.
    sim, port = shaped_port()
    port.credit = -100_000_000
    port._update_credit(2)
    assert port.credit == -60_000_000
    port._update_credit(10)
    assert port.credit == 0
    # A waiting AVB frame is gated until the same 5 ns have passed.
    avb = frame(pcp=AVB_PCP)
    port.credit = -100_000_000
    port.enqueue(avb, 10)
    assert port.in_service() is None and port._wakeup.fire_at == 15
    sim.run_until(15)
    assert port.in_service() is avb and port.credit == 0


def test_credit_positive_resets_when_queue_empties():
    # The AVB frame earns credit behind a 1500-byte best-effort frame for
    # 123.04 us, then drains less than that over its own 7.04 us: the rest
    # outlives the transmission only until the next update.
    sim, port = shaped_port()
    port.enqueue(frame(pcp=0, payload_len=1500), 0)
    port.enqueue(frame(pcp=AVB_PCP), 0)
    sim.run_until(130_080)
    assert port.in_service() is None
    assert port.credit == 20_000_000 * 123_040 - 80_000_000 * 7_040 > 0
    port._update_credit(130_080)
    assert port.credit == 0


def test_credit_clock_regression():
    avb = frame(pcp=AVB_PCP)
    sim, port = shaped_port()
    port.enqueue(avb, 100)
    with pytest.raises(ClockRegression):
        port.enqueue(avb, 99)


def selected(credit, *offers):
    """The frame an idle port starts when kicked with these queued
    (frame, is_avb) offers and this credit."""
    port = EgressPort(Simulator(), "p", RATE, 20_000_000, peer=Sink())
    port.credit = credit
    for fr, is_avb in offers:
        (port.queues.avb_q if is_avb else port.queues.be_q).append(fr)
    port.kick(0)
    return port.in_service()


def test_select_strict_priority_at_nonnegative_credit():
    a, b = frame(pcp=AVB_PCP), frame(pcp=0)
    assert selected(0, (a, True), (b, False)) is a


def test_select_negative_credit_gates_avb():
    a, b = frame(pcp=AVB_PCP), frame(pcp=0)
    assert selected(-1, (a, True), (b, False)) is b


def test_select_empty_returns_none():
    assert selected(0) is None


# One draw per step: ("offer", shared, is_avb) enqueues its class's one
# shared filler or a new frame; ("pop", is_avb) pops that class's head, and
# is skipped while the class is empty.
queue_ops = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.booleans(), st.booleans()),
        st.tuples(st.just("pop"), st.booleans()),
    ),
    max_size=60,
)
caps = st.none() | st.integers(0, 5)
FILLER, NEW, POP = ("offer", True, False), ("offer", False, False), ("pop", False)
DRAIN = [FILLER, FILLER, POP, POP]


@settings(deadline=None)
@given(queue_ops, caps, caps)
@example(DRAIN + [NEW, FILLER, POP], None, None)
@example(DRAIN + [FILLER, FILLER, POP], None, None)
@example([NEW, FILLER, FILLER, NEW] + [POP] * 4, None, None)
@example([("offer", True, True), ("offer", False, True), ("offer", True, True), ("pop", True)], 2, None)
def test_port_queues_match_a_deque_model(ops, avb_cap, be_cap):
    port = EgressPort(Simulator(), "p", RATE, 20_000_000, peer=Sink(), avb_cap=avb_cap, be_cap=be_cap)
    avb_q, be_q = port.queues
    fillers = {True: frame(pcp=AVB_PCP, payload_len=1452), False: frame(pcp=0, payload_len=1452)}
    model = {True: deque(), False: deque()}
    cap = {True: avb_cap, False: be_cap}
    offered = dropped = 0
    # A starter frame takes the idle link, so every enqueue after it queues.
    # With be_cap 0 a best-effort starter would itself be dropped; with both
    # caps 0 nothing is ever admitted, so nothing starts either.
    starter_is_avb = be_cap == 0
    if cap[starter_is_avb] != 0:
        assert port.enqueue(frame(pcp=AVB_PCP if starter_is_avb else 0), 0)
        assert port.in_service() is not None
        offered = 1
    for op in ops:
        if op[0] == "offer":
            _, shared, is_avb = op
            fr = fillers[is_avb] if shared else frame(pcp=AVB_PCP if is_avb else 0)
            accepted = cap[is_avb] is None or len(model[is_avb]) < cap[is_avb]
            offered += 1
            if accepted:
                model[is_avb].append(fr)
            else:
                dropped += 1
            assert port.enqueue(fr, 0) is accepted
        elif model[op[1]]:
            is_avb = op[1]
            assert (avb_q if is_avb else be_q).popleft() is model[is_avb].popleft()
        for q, ref in ((avb_q, model[True]), (be_q, model[False])):
            ids = [id(fr) for fr in ref]
            assert len(q) == len(ref)
            assert [id(fr) for fr in q] == ids
            assert [id(fr) for fr, count in q.runs() for _ in range(count)] == ids
            assert all(count > 0 for _, count in q.runs())
            assert next(iter(q), None) is (ref[0] if ref else None)
        assert (port.offered, port.dropped, port.queued_frames()) == (
            offered,
            dropped,
            len(model[True]) + len(model[False]),
        )


def test_classification_is_total():
    # A first frame takes the idle link, so the eight that follow all queue.
    port = EgressPort(Simulator(), "p", RATE, 20_000_000, peer=Sink())
    port.enqueue(frame(pcp=0), 0)
    for pcp in range(8):
        port.enqueue(frame(pcp=pcp), 0)
    assert [f.pcp for f in port.queues.avb_q] == [AVB_PCP]
    assert [f.pcp for f in port.queues.be_q] == [p for p in range(8) if p != AVB_PCP]


def test_switch_forward_classifies_and_delays():
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * 2)
    sink = Sink()
    port = EgressPort(sim, "port:sw1->listener", RATE, 20_000_000, peer=sink)
    sw = Switch(sim, "sw1", forwarding_latency=5_000, egress=port)
    sw.on_frame_received(frame(pcp=AVB_PCP), 0)
    sw.on_frame_received(frame(pcp=0), 0)
    sim.run_until(4_999)
    assert port.offered == 0  # still inside the forwarding delay
    sim.run_until(1_000_000)
    assert port.offered == 2
    assert port.transmitted == 2


def test_store_and_forward_chain_latency():
    # gw port -> sw1 (5us) -> sw2 (5us) -> listener, minimal tagged frames:
    # 3 * 7.04us wire + 2 * 5us forwarding = 31.12us end to end.
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * 3)  # one frame, three hops
    sink = Sink()
    p2 = EgressPort(sim, "port:sw2->listener", RATE, 20_000_000, peer=sink)
    sw2 = Switch(sim, "sw2", 5_000, p2)
    p1 = EgressPort(sim, "port:sw1->sw2", RATE, 20_000_000, peer=sw2)
    sw1 = Switch(sim, "sw1", 5_000, p1)
    p0 = EgressPort(sim, "port:gw->sw1", RATE, 20_000_000, peer=sw1)
    for p in (p0, p1, p2):
        p.tx_log = []
    sim.register("drv", lambda ev: p0.enqueue(frame(pcp=AVB_PCP), ev.fire_at))
    sim.schedule("drv", "go", 0)
    sim.run_until(10_000_000)
    [(fr, when)] = sink.received
    assert when == 3 * 7_040 + 2 * 5_000
    # each hop transmitted the frame once, after the previous hop's wire
    # time plus the forwarding delay
    assert [[start for start, _, _ in p.tx_log] for p in (p0, p1, p2)] == [[0], [12_040], [24_080]]


FILLER_PAYLOAD = 1452  # the reference jammer's filler: 119.2 us untagged at 100 Mbps


def tie_chain(receptions):
    """sw1 (5 us forwarding) and its egress port to a sink.  sw1 receives each
    (time_ns, frame) of receptions, in list order at equal times; every event
    and every transmission start is logged."""
    traced = []
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * len(receptions), then=traced.append)
    sink = Sink()
    port = EgressPort(sim, "port:sw1->sw2", RATE, 20_000_000, peer=sink)
    port.tx_log = []
    sw1 = Switch(sim, "sw1", 5_000, port)
    sim.register("drv", lambda ev: sw1.on_frame_received(frames.pop(ev.seq), ev.fire_at))
    frames = {sim.schedule("drv", "rx", at).seq: fr for at, fr in receptions}
    return sim, port, sink, traced


def test_forward_at_a_filler_tx_complete_waits_for_the_next_filler():
    # Two fillers reach the egress at 5 us; the first ends at 124.2 us, the
    # nanosecond the CAN frame's forward lands.  That tx_complete was
    # scheduled first, so it runs first and starts the second filler, and the
    # CAN frame waits one full filler.  The AVB_jam maximum rests on this.
    filler, can = frame(0, FILLER_PAYLOAD), frame(AVB_PCP)
    sim, port, sink, traced = tie_chain([(0, filler), (0, filler), (119_200, can)])
    sim.run_until(1_000_000)
    at_tie = [(ev.target, ev.kind) for ev in traced if ev.fire_at == 124_200]
    assert at_tie == [("port:sw1->sw2", "tx_complete"), ("sw1", "forward")]
    assert port.tx_log == [(5_000, 11_920, False), (124_200, 11_920, False), (243_400, 704, True)]
    assert sink.received[-1] == (can, 243_400 + 7_040)


@pytest.mark.parametrize("can_first", [True, False])
def test_forwards_at_the_same_nanosecond_enqueue_in_reception_order(can_first):
    # A CAN frame and a filler both reach sw1 at 0, so both forwards land at
    # 5 us.  They enqueue in the order sw1 received them, and the first one
    # takes the idle link.
    filler, can = frame(0, FILLER_PAYLOAD), frame(AVB_PCP)
    order = [can, filler] if can_first else [filler, can]
    sim, port, sink, _ = tie_chain([(0, fr) for fr in order])
    rows = []
    port.depth_trace = rows.append
    sim.run_until(1_000_000)
    # The first row is the first enqueue: (now, port, avb depth, be depth, credit).
    depths = (1, 0) if can_first else (0, 1)
    assert rows[0][:4] == (5_000, "port:sw1->sw2", *depths)
    assert [fr for fr, _ in sink.received] == order
    second_start = 5_000 + (7_040 if can_first else 119_200)
    assert [start for start, _, _ in port.tx_log] == [5_000, second_start]


def test_fifo_within_class():
    frames = [frame(pcp=0) for _ in range(5)]
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * len(frames))
    sink = Sink()
    port = EgressPort(sim, "p", RATE, 20_000_000, peer=sink)

    def drv(ev):
        for fr in frames:
            port.enqueue(fr, ev.fire_at)

    sim.register("drv", drv)
    sim.schedule("drv", "go", 0)
    sim.run_until(10_000_000)
    assert [fr for fr, _ in sink.received] == frames


def test_tail_drop_when_capped():
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * 5)
    port = EgressPort(sim, "p", RATE, 20_000_000, peer=Sink(), be_cap=2)
    dropped = []
    port.on_drop = dropped.append

    def drv(ev):
        for _ in range(5):
            port.enqueue(frame(pcp=0), ev.fire_at)

    sim.register("drv", drv)
    sim.schedule("drv", "go", 0)
    sim.run_until(10_000_000)
    acct = port.accounting()
    # one went straight to the wire, two queued, two dropped
    assert acct["dropped"] == 2
    assert len(dropped) == 2
    assert acct["offered"] == acct["transmitted"] + acct["queued"] + acct["in_service"] + acct["dropped"]


class SaturatedPortHarness:
    """Keeps both queues of one port non-empty for a measurement run."""

    def __init__(self, avb_payload=1500, be_payload=1500, idle_slope=20_000_000):
        self.sim = Simulator()
        self.sink = Sink()
        self.port = EgressPort(self.sim, "p", RATE, idle_slope, peer=self.sink)
        self.avb_payload = avb_payload
        self.be_payload = be_payload
        self.sim.register("drv", self._fill)

    def _fill(self, ev):
        while len(self.port.queues.avb_q) < 50:
            self.port.enqueue(frame(pcp=AVB_PCP, payload_len=self.avb_payload), ev.fire_at)
        while len(self.port.queues.be_q) < 50:
            self.port.enqueue(frame(pcp=0, payload_len=self.be_payload), ev.fire_at)
        self.sim.schedule("drv", "fill", ev.fire_at + 1_000_000)

    def run(self, duration):
        # At most one frame per shortest wire time starts; each costs at most
        # EVENTS_PER_FRAME events, which also covers one fill per millisecond.
        shortest = eth_wire_time(min(self.avb_payload, self.be_payload), False, RATE)
        budgeted(self.sim, EVENTS_PER_FRAME * (duration // shortest + 1))
        self.sim.schedule("drv", "fill", 0)
        self.sim.run_until(duration)


def test_bandwidth_guarantee_over_any_window():
    # Saturated port: AVB wire bits in any window of >= 100 ms must not
    # exceed idle_slope * window + one max frame (12,336 bits).
    h = SaturatedPortHarness()
    h.port.tx_log = []
    h.run(1_000_000_000)
    window = 100_000_000
    budget = 20_000_000 * window // 10**9 + 12_336
    avb_tx = [(start, bits) for start, bits, is_avb in h.port.tx_log if is_avb]
    assert len(avb_tx) > 100
    for i, (w_start, _) in enumerate(avb_tx):
        in_window = sum(bits for start, bits in avb_tx[i:] if start < w_start + window)
        assert in_window <= budget
    # and the shaper actually bound the class: well below the raw link rate
    total_avb = sum(bits for _, bits in avb_tx)
    assert total_avb <= 20_000_000 + 12_336  # over the whole 1 s


def test_no_starvation_and_work_conservation_when_saturated():
    h = SaturatedPortHarness()
    h.port.tx_log = []
    h.run(1_000_000_000)
    log = h.port.tx_log
    # work conservation: with both queues always backlogged the link never
    # idles, so consecutive transmissions are back to back.
    for (s0, bits0, avb0), (s1, _, _) in zip(log, log[1:]):
        wire_ns = eth_wire_time(h.avb_payload if avb0 else h.be_payload, avb0, RATE)
        assert s1 == s0 + wire_ns
    # AVB is never starved longer than one blocking frame plus one credit
    # replenishment (123.36 + 493.44 us) between consecutive AVB starts.
    avb_starts = [s for s, _, is_avb in log if is_avb]
    gaps = [b - a for a, b in zip(avb_starts, avb_starts[1:])]
    assert max(gaps) <= 123_360 + 493_440 + 123_360  # + the AVB frame itself


def gated_port(arrivals):
    """One 100 Mbps port with a 20 Mbps idle slope, fed 1500-byte frames of
    the given (time_ns, pcp) by a driver entity; every event is traced."""
    traced = []
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * len(arrivals), then=traced.append)
    sink = Sink()
    port = EgressPort(sim, "p", RATE, 20_000_000, peer=sink)
    sim.register("drv", lambda ev: port.enqueue(frames.pop(ev.seq), ev.fire_at))
    frames = {sim.schedule("drv", "send", at).seq: frame(pcp, 1500) for at, pcp in arrivals}
    return sim, port, sink, traced


def test_gated_avb_frame_waits_for_the_credit_ready_wakeup():
    # A tagged 1500-byte frame takes 123.36 us and drains credit at 80 Mbps;
    # at the 20 Mbps idle slope the deficit takes 4 x 123.36 = 493.44 us to
    # recover, so the second frame starts at the wakeup at 616.8 us.
    sim, port, sink, traced = gated_port([(0, AVB_PCP), (0, AVB_PCP)])
    stats = sim.run_until(10_000_000)
    assert [when for _, when in sink.received] == [123_360, 740_160]
    assert [ev.fire_at for ev in traced if ev.kind == "credit_ready"] == [616_800]
    assert stats.events_dispatched == 5


def test_best_effort_frame_cancels_the_pending_wakeup():
    # The best-effort frame finds the link idle with AVB gated: it starts at
    # once (123.04 us untagged) and cancels the pending wakeup.  Credit keeps
    # recovering while it is on the wire, so the re-armed wakeup fires at the
    # same 616.8 us.
    sim, port, sink, traced = gated_port([(0, AVB_PCP), (0, AVB_PCP), (200_000, 0)])
    sim.run_until(199_999)
    pending = port._wakeup
    assert pending.fire_at == 616_800
    stats = sim.run_until(10_000_000)
    assert [(fr.pcp, when) for fr, when in sink.received] == [
        (AVB_PCP, 123_360), (0, 323_040), (AVB_PCP, 740_160)
    ]
    assert pending not in traced  # neither dispatched nor traced
    assert [ev.fire_at for ev in traced if ev.kind == "credit_ready"] == [616_800]
    assert [ev.kind for ev in traced].count("send") == 3
    assert [ev.kind for ev in traced].count("tx_complete") == 3
    assert stats.events_dispatched == len(traced) == 7


def fed_port(
    arrivals, tail, idle_slope=20_000_000, port_cls=EgressPort, avb_cap=None, be_cap=None, rows=None
):
    """Feed (gap_ns, pcp, payload_len) arrivals to one 100 Mbps port of
    port_cls and run tail ns past the last, with the port's tx_log on and,
    if rows is a list, its depth_trace rows appended there.  Returns the
    port and the run's stats."""
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * len(arrivals))
    port = port_cls(sim, "p", RATE, idle_slope, peer=Sink(), avb_cap=avb_cap, be_cap=be_cap)
    port.tx_log = []
    if rows is not None:
        port.depth_trace = rows.append
    frames = {}
    sim.register("drv", lambda ev: port.enqueue(frames.pop(ev.seq), ev.fire_at))
    at = 0
    for gap, pcp, payload_len in arrivals:
        at += gap
        frames[sim.schedule("drv", "send", at).seq] = frame(pcp, payload_len)
    return port, sim.run_until(at + tail)


arrival_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=300_000),
        st.sampled_from([AVB_PCP, 0]),
        st.integers(min_value=46, max_value=1500),
    ),
    max_size=30,
)


@settings(deadline=None)
@given(st.integers(min_value=1_000_000, max_value=20_000_000), arrival_lists, st.integers(0, 2_000_000))
# Two back-to-back AVB frames: the second waits for credit_ready.
@example(20_000_000, [(0, AVB_PCP, 1500), (0, AVB_PCP, 1500)], 10_000_000)
# A best-effort frame starts while AVB is gated and cancels the wakeup.
@example(20_000_000, [(0, AVB_PCP, 1500), (0, AVB_PCP, 1500), (200_000, 0, 1500)], 10_000_000)
def test_credit_is_the_same_whether_or_not_it_is_observed(idle_slope, arrivals, tail):
    # With a depth_trace set the port brings the credit up to date at every
    # arrival, start and end of transmission; without one it skips the
    # updates where the slope stays fixed.  Both must agree exactly, on the
    # credit brought up to the horizon too.
    runs = []
    for rows in ([], None):
        port, stats = fed_port(arrivals, tail, idle_slope, rows=rows)
        port._update_credit(port.sim.now)
        runs.append((port.tx_log, stats.events_dispatched, port.credit))
    assert runs[0] == runs[1]


class EagerCreditPort(EgressPort):
    """A port whose credit is brought up to now before every enqueue, kick
    of an idle link and tx_complete: the update schedule a traced port
    followed before updates became independent of the observer."""

    def enqueue(self, frame, now):
        self._update_credit(now)
        return super().enqueue(frame, now)

    def kick(self, now):
        if self._tx_frame is None:
            self._update_credit(now)
        super().kick(now)

    def _handle(self, ev):
        if ev.kind == "tx_complete":
            self._update_credit(ev.fire_at)
        super()._handle(ev)


@settings(deadline=None)
@given(
    st.integers(min_value=1_000_000, max_value=20_000_000),
    arrival_lists,
    st.integers(0, 2_000_000),
    st.none() | st.integers(0, 3),
    st.none() | st.integers(0, 3),
)
@example(20_000_000, [(0, AVB_PCP, 1500), (0, AVB_PCP, 1500)], 10_000_000, None, None)
@example(
    20_000_000, [(0, AVB_PCP, 1500), (0, AVB_PCP, 1500), (200_000, 0, 1500)], 10_000_000, None, None
)
# Positive credit at the end of an AVB transmission: the AVB frame waits
# behind a best-effort one and earns credit, then drains less than it earned;
# the next best-effort start must see it reset.
@example(20_000_000, [(0, 0, 1500), (0, AVB_PCP, 46), (0, 0, 46)], 1_000_000, None, None)
# The credit goes negative and recovers to zero while nothing reads it: the
# best-effort arrival 500 us on must bring it up to zero before its row.
@example(20_000_000, [(0, AVB_PCP, 46), (500_000, 0, 1500), (0, 0, 1500)], 1_000_000, None, None)
# As above, but every best-effort arrival is tail-dropped, so the credit
# reaches rest with no row; the second AVB arrival's row starts from there.
@example(
    20_000_000,
    [(0, AVB_PCP, 46), (500_000, 0, 1500), (100_000, AVB_PCP, 46), (0, 0, 46)],
    1_000_000,
    None,
    0,
)
def test_depth_rows_match_an_eager_credit_update_schedule(
    idle_slope, arrivals, tail, avb_cap, be_cap
):
    # Every row, credit column included, must equal the row of a port that
    # integrates the credit at every enqueue, kick and tx_complete.
    runs = []
    for port_cls in (EgressPort, EagerCreditPort):
        rows = []
        port, _ = fed_port(arrivals, tail, idle_slope, port_cls, avb_cap, be_cap, rows)
        runs.append((rows, port.tx_log, port.dropped))
    assert runs[0] == runs[1]


def test_depth_row_logs_the_positive_credit_at_an_avb_tx_complete():
    # The 46-byte AVB frame earns credit at 20 Mbps for the 123.04 us of the
    # best-effort frame ahead of it, then drains at 80 Mbps for its 7.04 us.
    # Its tx_complete row still holds the rest; the kick that follows resets
    # it to zero before the second best-effort frame starts.
    rows = []
    fed_port([(0, 0, 1500), (0, AVB_PCP, 46), (0, 0, 46)], 1_000_000, rows=rows)
    earned = 20_000_000 * 123_040
    drained = 80_000_000 * 7_040
    assert rows == [
        (0, "p", 0, 1, 0),  # best-effort arrival
        (0, "p", 0, 0, 0),  # it starts
        (0, "p", 1, 0, 0),  # AVB arrival behind it
        (0, "p", 1, 1, 0),  # second best-effort arrival
        (123_040, "p", 1, 1, earned),  # first best-effort tx_complete
        (123_040, "p", 0, 1, earned),  # AVB start
        (130_080, "p", 0, 1, earned - drained),  # AVB tx_complete
        (130_080, "p", 0, 0, 0),  # second best-effort start, credit reset
        (136_800, "p", 0, 0, 0),  # its tx_complete
    ]


def test_cached_wire_costs_match_wire_bits_and_eth_wire_time():
    # AVB (tagged) and best-effort (untagged) frames of one payload_len must
    # not share a cached cost; neither may frames of different lengths.
    lengths = [100, 100, 46, 1500, 100, 46, 1500, 100]
    sim = budgeted(Simulator(), EVENTS_PER_FRAME * len(lengths))
    sink = Sink()
    port = EgressPort(sim, "p", RATE, 75_000_000, peer=sink)
    port.tx_log = []
    for i, payload_len in enumerate(lengths):
        port.enqueue(frame(pcp=AVB_PCP if i % 2 else 0, payload_len=payload_len), 0)
    sim.run_until(10_000_000)
    assert len(port.tx_log) == len(sink.received) == len(lengths)
    assert {(fr.payload_len, fr.pcp == AVB_PCP) for fr, _ in sink.received} == {
        (100, False), (100, True), (46, False), (46, True), (1500, False), (1500, True)
    }
    for (start, bits, is_avb), (fr, done) in zip(port.tx_log, sink.received):
        assert is_avb == (fr.pcp == AVB_PCP)
        assert bits == wire_bits(fr.payload_len, is_avb)
        assert done - start == eth_wire_time(fr.payload_len, is_avb, RATE)
