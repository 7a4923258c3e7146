"""Acceptance suite: criteria A1-A8 at their stated tolerances.

Each test prints one PASS/FAIL line (visible with pytest -s / -rA) naming
the criterion and the measured values.
"""

import random
from contextlib import contextmanager

import pytest

from canavbsim.canbus import CanBus, CanMessage, can_frame_time
from canavbsim.core import Simulator
from canavbsim.gateway import MalformedPayload, decode, pack
from canavbsim.config import ARMS, ScenarioConfig
from canavbsim.scenario import build_network, run_experiment_suite

SEED = 42
DURATION = 1_000_000_000


@contextmanager
def criterion(name):
    try:
        yield
    except AssertionError:
        print(f"{name} FAIL")
        raise
    print(f"{name} PASS")


def test_a1_baseline_latency_avb_nature(suite):
    # closed-form path: 114us CAN frame + pack wait in [0, 500us]
    # + 3 hops of minimal tagged wire time + 2 * 5us forwarding
    results, _ = suite
    s = results.results["AVB_nature"].summary
    lo_bound = 114_000 + 3 * 6_000
    hi_bound = 114_000 + 500_000 + 3 * 8_000 + 10_000 + 1_000
    with criterion(
        f"A1 baseline AVB_nature: n={s.count} min={s.min}ns max={s.max}ns "
        f"bounds [{lo_bound}, {hi_bound}]"
    ):
        assert s.count == 334
        assert s.min >= lo_bound
        assert s.max <= hi_bound


def test_a2_avb_latency_limited_under_jamming(suite):
    # per-hop blocking by one in-flight best-effort frame plus shaper
    # replenishment, budgeted at 850 us
    results, _ = suite
    nature = results.results["AVB_nature"].summary
    jam = results.results["AVB_jam"].summary
    with criterion(
        f"A2 minimized-and-limited: max(AVB_jam)={jam.max}ns "
        f"max(AVB_nature)={nature.max}ns margin={jam.max - nature.max}ns <= 850000ns"
    ):
        assert jam.count == nature.count == 334
        assert jam.max <= nature.max + 850_000


def test_a3_best_effort_degrades_under_jamming(suite):
    results, _ = suite
    eth_jam = results.results["Eth_jam"]
    avb_jam = results.results["AVB_jam"]
    p99_eth = eth_jam.summary.p99
    p99_avb = avb_jam.summary.p99
    late = sorted(
        (r for r in eth_jam.records if r.delivered_at > 100_000_000), key=lambda r: r.seq
    )
    lats = [r.latency for r in late]
    with criterion(
        f"A3 best-effort degradation: p99(Eth_jam)={p99_eth}ns >= 10*p99(AVB_jam)={10 * p99_avb}ns; "
        f"{len(lats)} post-warmup latencies non-decreasing"
    ):
        assert p99_eth >= 10 * p99_avb
        assert len(lats) >= 10
        assert all(b >= a for a, b in zip(lats, lats[1:]))


def test_a4_bandwidth_guarantee_on_gw_egress():
    # stress: continuous CAN load (sender period = CAN frame time) and a
    # 130us pack period so every tick emits a frame back to back
    cfg = ScenarioConfig(
        seed=SEED,
        duration=DURATION,
        gw_pack_period=130_000,
        sender_period=114_000,
    )
    net = build_network(cfg)
    gw_port = next(p for p in net.ports if p.name == "port:gw->sw1")
    gw_port.tx_log = []
    net.run()
    avb_tx = [(start, bits) for start, bits, is_avb in gw_port.tx_log if is_avb]
    window = 100_000_000
    budget = 20_000_000 * window // 10**9 + 12_336
    worst = 0
    for i, (w_start, _) in enumerate(avb_tx):
        in_window = 0
        for start, bits in avb_tx[i:]:
            if start >= w_start + window:
                break
            in_window += bits
        worst = max(worst, in_window)
    with criterion(
        f"A4 bandwidth guarantee: {len(avb_tx)} AVB frames on gw egress, "
        f"worst 100ms window {worst} bits <= {budget} bits"
    ):
        assert len(avb_tx) > 7_000  # frames really were offered back to back
        assert worst <= budget


def test_a5_arbitration_matches_brute_force_oracle():
    rng = random.Random(SEED)
    instances = 1_000
    for _ in range(instances):
        nodes = [f"n{i}" for i in range(rng.randint(2, 8))]
        ids = rng.sample(range(2048), 3 * len(nodes))
        requests = []  # (time, node, can_id, dlc)
        k = 0
        for node in nodes:
            for _ in range(rng.randint(1, 3)):
                requests.append((rng.randrange(0, 500_000), node, ids[k], rng.randint(0, 8)))
                k += 1
        requests.sort(key=lambda r: r[0])

        sim = Simulator()
        bus = CanBus(sim)
        seen = []
        for node in nodes:
            bus.attach(node)
        bus.attach("obs", lambda m, t: seen.append((m.can_id, t)))
        for i, (t, node, can_id, dlc) in enumerate(requests):
            sim.register(
                f"drv{i}",
                lambda ev, n=node, c=can_id, d=dlc: bus.transmit_request(
                    CanMessage(c, bytes(d), ev.fire_at, source=n)
                ),
            )
            sim.schedule(f"drv{i}", "go", t)
        sim.run_until(1_000_000_000)

        # independent replay: exhaustive min-ID scan over head-of-line sets
        queues = {n: [] for n in nodes}
        for t, node, can_id, dlc in requests:
            queues[node].append((t, can_id, dlc))
        expected, now = [], 0
        while any(queues.values()):
            heads = [(q[0], n) for n, q in queues.items() if q]
            now = max(now, min(t for (t, _, _), _ in heads))
            ready = [(c, d, n) for (t, c, d), n in heads if t <= now]
            c, d, n = min(ready)
            queues[n].pop(0)
            now += can_frame_time(d, 1_000_000)
            expected.append((c, now))
        assert seen == expected, f"divergence on instance {requests}"
    with criterion(f"A5 arbitration oracle: {instances} randomized instances, exact match"):
        assert True


def test_a6_codec_round_trip_and_malformed_rejection():
    rng = random.Random(SEED)
    trials = 10_000
    for _ in range(trials):
        msgs = []
        for _ in range(rng.randint(0, 30)):  # 30 max-size records still fit the MTU
            dlc = rng.randint(0, 8)
            msgs.append(
                CanMessage(
                    rng.randint(0, 2047),
                    bytes(rng.randrange(256) for _ in range(dlc)),
                    rng.randrange(2**64),
                )
            )
        buf = pack(msgs)
        assert [CanMessage(*record) for record in decode(buf)] == msgs
        assert len(buf) == 2 + sum(13 + len(m.payload) for m in msgs)

    rejected = 0
    sample = [CanMessage(9, b"\x01\x02", 5), CanMessage(1033, bytes(8), 2**40)]
    buf = pack(sample)
    for cut in range(len(buf)):  # truncation at every boundary
        with pytest.raises(MalformedPayload):
            decode(buf[:cut])
        rejected += 1
    bad_dlc = bytearray(buf)
    bad_dlc[6] = 9
    with pytest.raises(MalformedPayload):
        decode(bytes(bad_dlc))
    rejected += 1
    with pytest.raises(MalformedPayload):
        decode(buf + b"\x00")  # count mismatch: trailing bytes
    inflated = bytearray(buf)
    inflated[0:2] = (3).to_bytes(2, "little")  # count mismatch: missing record
    with pytest.raises(MalformedPayload):
        decode(bytes(inflated))
    rejected += 2
    with criterion(
        f"A6 codec: {trials} random round-trips byte-exact, {rejected} malformed inputs rejected"
    ):
        assert True


def test_a7_suite_determinism_byte_identical(suite, tmp_path):
    results1, out1 = suite
    results2 = run_experiment_suite(ScenarioConfig(seed=SEED, duration=DURATION), tmp_path)
    files = [f"fig3_{arm}.csv" for arm in ARMS] + ["comparison.txt"]
    with criterion(f"A7 determinism: {len(files)} suite output files byte-identical across reruns"):
        for name in files:
            assert (out1 / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_a8_conservation_exact(suite):
    results, _ = suite
    checked_ports = 0
    for arm in ARMS:
        net = results.results[arm].network
        acct = net.account()
        assert acct["created"] == acct["delivered"] + acct["in_flight"] + acct["dropped"], arm
        for name, pa in net.port_accounting().items():
            assert pa["offered"] == (
                pa["transmitted"] + pa["queued"] + pa["in_service"] + pa["dropped"]
            ), (arm, name)
            checked_ports += 1
    with criterion(
        f"A8 conservation: message accounting exact in all 4 arms, "
        f"frame accounting exact on {checked_ports} ports"
    ):
        assert True
