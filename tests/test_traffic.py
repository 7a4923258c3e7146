"""Traffic actor tests: sender periodicity, jammer intervals and load, listener."""

import pytest

from canavbsim.canbus import CanBus, CanMessage
from canavbsim.core import Simulator, stream_rng
from canavbsim.ethernet import EgressPort, EthFrame
from canavbsim.gateway import MalformedPayload, pack
from canavbsim.metrics import LatencyRecord, LatencyRecorder, MetricsError
from canavbsim.config import ScenarioConfig
from canavbsim.traffic import JammingTalker, Listener, PeriodicCanSender
from canavbsim.wire import ETHERTYPE_CAN_TUNNEL, filler_payload_len

REF = ScenarioConfig()  # the reference scenario's actor settings


def build_sender(duration=1_000_000_000, **overrides):
    params = {
        "can_id": REF.sender_can_id,
        "dlc": REF.sender_dlc,
        "period": REF.sender_period,
        "start": REF.sender_start,
        "count_limit": REF.sender_count_limit,
    }
    sim = Simulator()
    bus = CanBus(sim)
    sender = PeriodicCanSender(sim, "sender", bus, **(params | overrides))
    received = []
    bus.attach("sink", lambda m, t: received.append((m, t)))
    sender.start()
    sim.run_until(duration)
    return sender, received


def test_sender_default_one_second_produces_334():
    sender, received = build_sender()
    assert sender.created == 334  # t = 0, 3ms, ..., 999ms
    assert len(received) == 334


def test_sender_count_limit():
    sender, received = build_sender(count_limit=1)
    assert sender.created == 1
    assert len(received) == 1


def test_sender_seq_numbers_strictly_increasing():
    _, received = build_sender(duration=100_000_000)
    seqs = [int.from_bytes(m.payload, "little") for m, _ in received]
    assert seqs == list(range(len(seqs)))


def test_sender_periodicity_exact():
    _, received = build_sender(duration=300_000_000)
    created = [m.created_at for m, _ in received]
    assert all(b - a == 3_000_000 for a, b in zip(created, created[1:]))


class FrameSink:
    def __init__(self):
        self.frames = []

    def on_frame_received(self, frame, now):
        self.frames.append((frame, now))


def test_jammer_cfg_payload_from_total_bytes():
    # 1470 total - 14 header - 4 FCS
    assert filler_payload_len(REF.jammer_frame_total_bytes, REF.jammer_pcp) == 1452
    assert filler_payload_len(1470, 3) == 1448  # VLAN tag eats 4 more


def make_talker(sim, send, seed):
    """A talker with the reference scenario's filler frame and gaps."""
    frame = EthFrame(
        pcp=REF.jammer_pcp,
        payload_len=filler_payload_len(REF.jammer_frame_total_bytes, REF.jammer_pcp),
    )
    rng = stream_rng(seed, "talker")
    return JammingTalker(sim, "talker", frame, REF.jammer_period_lo, REF.jammer_period_hi, rng, send)


def test_jammer_intervals_within_bounds_and_mean():
    sim = Simulator()
    sink = FrameSink()
    talker = make_talker(sim, sink.on_frame_received, 42)
    talker.start()
    sim.run_until(1_300_000_000)  # ~1e5 ticks at mean 13 us
    times = [t for _, t in sink.frames]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert len(gaps) > 90_000
    assert min(gaps) >= 1_000
    assert max(gaps) <= 25_000
    mean = sum(gaps) / len(gaps)
    assert abs(mean - 13_000) < 200


def test_jammer_with_finite_link_saturates_its_egress():
    # offered load ~ 119.2us service / 13us mean arrival ~ 9.2x capacity:
    # the talker's own egress queue grows and its link utilization hits 100%.
    sim = Simulator()
    sink = FrameSink()
    port = EgressPort(sim, "port:talker->sw1", 100_000_000, 20_000_000, peer=sink)
    talker = make_talker(sim, port.enqueue, 1)
    talker.start()
    sim.run_until(300_000_000)
    acct = port.accounting()
    assert acct["queued"] > 1_000  # unbounded growth
    # back-to-back output: the link is busy ~100% of the time after startup
    busy_ns = acct["transmitted"] * 119_200
    assert busy_ns > 0.99 * 300_000_000
    assert acct["offered"] == acct["transmitted"] + acct["queued"] + acct["in_service"] + acct["dropped"]


def can_frame(messages, pcp=3):
    payload = pack(messages)
    return EthFrame(
        pcp=pcp, payload_len=max(46, len(payload)), payload=payload,
        ethertype=ETHERTYPE_CAN_TUNNEL,
    )


def test_listener_single_record_latency_definition():
    listener = Listener("listener", LatencyRecorder("AVB_nature"))
    listener.on_frame_received(can_frame([CanMessage(5, (9).to_bytes(8, "little"), 1_000)]), 2_500)
    [rec] = listener.recorder
    assert rec.latency == 1_500
    assert rec.seq == 9
    assert rec.can_id == 5
    assert rec.arm == "AVB_nature"


def test_listener_multi_record_frame_shares_delivery_time():
    listener = Listener("listener", LatencyRecorder())
    msgs = [CanMessage(1, bytes(8), t) for t in (100, 200, 300)]
    listener.on_frame_received(can_frame(msgs), 10_000)
    recs = listener.recorder
    assert [r.delivered_at for r in recs] == [10_000] * 3
    assert [r.created_at for r in recs] == [100, 200, 300]
    assert listener.records_received == 3


def test_listener_counts_jam_frames():
    listener = Listener("listener", LatencyRecorder())
    jam = EthFrame(pcp=0, payload_len=1452)
    listener.on_frame_received(jam, 5_000)
    assert list(listener.recorder) == []
    assert listener.jam_frames == 1
    assert listener.records_received == 0


def test_listener_propagates_malformed_payload():
    listener = Listener("listener", LatencyRecorder())
    bad = EthFrame(
        pcp=3, payload_len=46,
        payload=b"\x05\x00garbage", ethertype=ETHERTYPE_CAN_TUNNEL,
    )
    with pytest.raises(MalformedPayload):
        listener.on_frame_received(bad, 1_000)


def test_listener_rejects_frame_created_after_delivery():
    listener = Listener("listener", LatencyRecorder())
    forged = can_frame([CanMessage(1, bytes(8), 5_001)])
    with pytest.raises(MetricsError, match="precedes"):
        listener.on_frame_received(forged, 5_000)
    assert len(listener.recorder) == 0


def test_listener_builds_no_message_or_record_objects(monkeypatch):
    frame = can_frame([CanMessage(1, (i).to_bytes(8, "little"), 100 * i) for i in range(3)])

    def built(cls, *args, **kwargs):
        raise AssertionError(f"{cls.__name__} built on the record path")

    # Every way to build either: the constructors, and the NamedTuple's
    # alternate constructor (which _replace goes through too).
    monkeypatch.setattr(CanMessage, "__new__", built)
    monkeypatch.setattr(CanMessage, "_make", classmethod(built))
    monkeypatch.setattr(LatencyRecord, "__new__", built)
    listener = Listener("listener", LatencyRecorder())
    listener.on_frame_received(frame, 10_000)
    assert list(listener.recorder.seq) == [0, 1, 2]
    assert list(listener.recorder.created_at) == [0, 100, 200]
