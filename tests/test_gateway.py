"""Gateway tests: byte-exact codec, FIFO, periodic packing, classification."""

from canavbsim.canbus import CanMessage
from canavbsim.core import Simulator
from canavbsim.gateway import (
    Gateway,
    decode,
    pack,
)
from canavbsim.config import ScenarioConfig, parse_config
from canavbsim.scenario import run_scenario
from canavbsim.wire import AVB_PCP, MAX_PAYLOAD


def decoded_messages(payload):
    return [CanMessage(*record) for record in decode(payload)]


def test_pack_empty_is_two_byte_count():
    assert pack([]) == b"\x00\x00"


def test_pack_known_offsets():
    # count u16 | can_id u32 | dlc u8 | created_at u64 | data, little-endian
    m = CanMessage(0x0A0, b"\xbe\xef", created_at=1000)
    buf = pack([m])
    assert len(buf) == 17
    assert buf[0:2] == b"\x01\x00"
    assert buf[2:6] == b"\xa0\x00\x00\x00"
    assert buf[6] == 2
    assert buf[7:15] == (1000).to_bytes(8, "little")
    assert buf[15:17] == b"\xbe\xef"


def test_pack_exact_fit_fills_the_limit_to_the_byte():
    # 70 dlc-8 records and two dlc-1 records: 2 + 70*21 + 2*14 = 1500 bytes.
    msgs = [CanMessage(i, bytes(8 if i < 70 else 1), i) for i in range(72)]
    payload = pack(msgs)
    assert len(payload) == MAX_PAYLOAD
    assert decoded_messages(payload) == msgs


def test_classify_paper_scheduling_rule():
    # CAN-bearing frames ride the AVB class by default; the Eth_nature /
    # Eth_jam arms put them in best-effort.
    for overrides, pcp in (({}, 3), ({"class_for_can": 0}, 0)):
        sim, gw, sent = make_gw(**overrides)
        gw.on_can_received(CanMessage(0x100, bytes(8), 0), 0)
        gw.start()
        sim.run_until(0)
        [(frame, _)] = sent
        assert frame.pcp == pcp


def make_gw(**overrides):
    """A gateway with the reference scenario's settings, except overrides."""
    ref = ScenarioConfig()
    params = {
        "pack_period": ref.gw_pack_period,
        "mtu_payload": ref.gw_mtu_payload,
        "class_for_can": ref.gw_class_for_can,
        "queue_cap": ref.gw_queue_cap,
    }
    sim = Simulator()
    sent = []

    class Port:
        def enqueue(self, frame, now):
            sent.append((frame, now))
            return True

    gw = Gateway(sim, "gw", Port(), **(params | overrides))
    return sim, gw, sent


def test_fifo_preserves_arrival_order():
    sim, gw, _ = make_gw()
    msgs = [CanMessage(i, bytes([i]), i * 10) for i in range(3)]
    for m in msgs:
        gw.on_can_received(m, m.created_at)
    assert list(gw.fifo) == msgs


def test_fifo_cap_counts_overflow():
    sim, gw, _ = make_gw(queue_cap=1)
    gw.on_can_received(CanMessage(1, b"", 0), 0)
    gw.on_can_received(CanMessage(2, b"", 0), 0)
    assert gw.overflow_drops == 1
    assert len(gw.fifo) == 1


def test_pack_timer_empty_fifo_emits_nothing():
    sim, gw, sent = make_gw()
    gw.start()
    stats = sim.run_until(2_000_000)  # four ticks, nothing queued
    assert sent == []
    assert stats.events_dispatched == 5  # the pack ticks themselves (t=0..2ms)


def test_pack_timer_single_message_frame_shape():
    sim, gw, sent = make_gw()
    gw.on_can_received(CanMessage(0x123, bytes(8), 100), 100)
    gw.start()
    sim.run_until(500_000)
    [(frame, when)] = sent
    assert when == 0  # first tick fires at t=0
    assert len(frame.payload) == 2 + 21
    assert frame.payload_len == 46  # padded to the Ethernet minimum
    assert frame.pcp == AVB_PCP
    assert decoded_messages(frame.payload) == [CanMessage(0x123, bytes(8), 100)]


def test_pack_timer_drains_greedily_and_keeps_leftover():
    # 80 dlc=8 messages: 71 fit (2 + 71*21 = 1493 <= 1500), 9 stay queued.
    sim, gw, sent = make_gw()
    for i in range(80):
        gw.on_can_received(CanMessage(0x100, i.to_bytes(8, "little"), i), 0)
    gw.start()
    sim.run_until(0)
    [(frame, _)] = sent
    records = decoded_messages(frame.payload)
    assert len(records) == 71
    assert len(frame.payload) == 1493
    assert len(gw.fifo) == 9
    # FIFO order preserved across the split
    assert [int.from_bytes(r.payload, "little") for r in records] == list(range(71))
    assert [int.from_bytes(m.payload, "little") for m in gw.fifo] == list(range(71, 80))
    sim.run_until(500_000)
    assert len(sent) == 2
    assert len(decoded_messages(sent[1][0].payload)) == 9


def test_pack_timer_takes_records_that_fill_the_mtu_exactly():
    # mtu 44 = 2 + 2 * 21: two dlc-8 records fill it to the byte; the third waits.
    sim, gw, sent = make_gw(mtu_payload=44)
    msgs = [CanMessage(0x100, i.to_bytes(8, "little"), i) for i in range(3)]
    for m in msgs:
        gw.on_can_received(m, m.created_at)
    gw.start()
    sim.run_until(0)
    [(frame, _)] = sent
    assert len(frame.payload) == 44
    assert decoded_messages(frame.payload) == msgs[:2]
    assert list(gw.fifo) == msgs[2:]


def test_exact_fit_mtu_run_carries_two_records_per_tick():
    # The sender offers about 4.2 dlc-8 messages per 500 us tick, and a
    # 44-byte payload holds exactly two.  The tick at t=0 finds the FIFO
    # empty; the ticks at 0.5 .. 50 ms each send two records, and all but
    # the frame sent at the 50 ms horizon are delivered: 198 messages.
    result = run_scenario(parse_config(
        "[sim]\nduration = 50ms\n[gateway]\nmtu_payload = 44\n[traffic.sender]\nperiod = 120us\n"
    ))
    assert len(result.records) == 198
    assert result.network.gw.frames_sent == 100


def test_pack_timer_period_spacing():
    sim, gw, sent = make_gw()

    # keep the FIFO non-empty so every tick emits
    def feed(ev):
        gw.on_can_received(CanMessage(1, b"", ev.fire_at), ev.fire_at)
        sim.schedule("feeder", "feed", ev.fire_at + 100_000)

    sim.register("feeder", feed)
    sim.schedule("feeder", "feed", 0)
    gw.start()
    sim.run_until(5_000_000)
    times = [t for _, t in sent]
    assert times == list(range(0, 5_000_001, 500_000))
