"""CAN bus tests: frame timing, arbitration, broadcast delivery, FIFO."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from canavbsim.canbus import (
    CanBus,
    CanError,
    CanMessage,
    DuplicateIdContention,
    arbitrate,
    can_frame_time,
    worst_case_stuff_bits,
)
from canavbsim.core import Simulator
from canavbsim.wire import STUFFING_NONE, STUFFING_WORST_CASE


def msg(can_id, source="n", created_at=0, dlc=8):
    return CanMessage(can_id, bytes(dlc), created_at, source=source)


def test_can_message_is_immutable():
    a = CanMessage(5, b"\x01", 7, "a")
    for field in ("can_id", "payload", "created_at", "source", "extra"):
        with pytest.raises(AttributeError):
            setattr(a, field, None)


# hand counts: 47 overhead + 8*dlc payload + 3 interframe bits at 1 us/bit
def test_frame_time_dlc0():
    assert can_frame_time(0, 1_000_000) == 50_000


def test_frame_time_dlc8():
    assert can_frame_time(8, 1_000_000) == 114_000


def test_frame_time_dlc8_worst_case_stuffing():
    assert can_frame_time(8, 1_000_000, STUFFING_WORST_CASE) == 138_000


def test_frame_time_rounds_up():
    # 114 bits at 3 bits/us -> 38000.0 exactly? no: 114/3e6 s = 38 us; use an
    # awkward bitrate instead so the ceil matters.
    assert can_frame_time(8, 999_999) == -(-114 * 10**9 // 999_999)
    assert can_frame_time(8, 999_999) * 999_999 >= 114 * 10**9


def bit_stuff_count(bits):
    """Count stuff bits the wire encoder would insert into a bit string."""
    run_val, run_len, inserted = None, 0, 0
    for b in bits:
        if b == run_val:
            run_len += 1
        else:
            run_val, run_len = b, 1
        if run_len == 5:
            inserted += 1
            run_val, run_len = 1 - run_val, 1
    return inserted


def adversarial_bits(n):
    """Worst-case stuffable stream: 5 equal bits, then runs of 4 so every
    inserted stuff bit opens the next run of 5."""
    bits = [0] * min(5, n)
    cur = 0
    while len(bits) < n:
        # after a stuff (complement of cur), four more of that complement
        cur = 1 - cur
        bits.extend([cur] * min(4, n - len(bits)))
    return bits


@pytest.mark.parametrize("dlc", range(9))
def test_worst_case_stuffing_matches_bit_level_enumerator(dlc):
    n = 34 + 8 * dlc
    assert worst_case_stuff_bits(dlc) == bit_stuff_count(adversarial_bits(n))


def test_arbitrate_singleton():
    pending = [msg(5, "a")]
    assert arbitrate(pending).can_id == 5
    assert pending == [msg(5, "a")]


def test_arbitrate_min_id_wins():
    pending = [msg(0x100, "a"), msg(0x0A0, "b"), msg(0x700, "c")]
    assert arbitrate(pending).can_id == 0x0A0
    assert pending == [msg(0x100, "a"), msg(0x0A0, "b"), msg(0x700, "c")]


def test_arbitrate_against_brute_force_min():
    rng = random.Random(1234)
    for _ in range(1_000):
        ids = rng.sample(range(2048), rng.randint(1, 8))
        pending = [msg(i, f"n{i}") for i in ids]
        winner = arbitrate(pending)
        assert winner.can_id == min(m.can_id for m in pending)


def test_arbitrate_duplicate_id_contention():
    with pytest.raises(DuplicateIdContention):
        arbitrate([msg(7, "a"), msg(7, "b")])


def test_arbitrate_duplicate_id_not_at_minimum_is_legal():
    pending = [msg(3, "a"), msg(7, "b"), msg(7, "c")]
    assert arbitrate(pending).can_id == 3


def make_bus(**kwargs):
    sim = Simulator()
    bus = CanBus(sim, **kwargs)
    inboxes = {}
    for node in ("a", "b", "c"):
        inboxes[node] = []
        bus.attach(node, lambda m, t, n=node: inboxes[n].append((m, t)))
    return sim, bus, inboxes


def test_transmit_request_from_unattached_source_raises():
    sim, bus, inboxes = make_bus()
    with pytest.raises(CanError, match="'z' not attached"):
        bus.transmit_request(msg(5, "z"))
    assert bus.queued_messages() == 0


def test_idle_bus_delivers_to_all_peers_after_frame_time():
    sim, bus, inboxes = make_bus()
    sim.register("drv", lambda ev: bus.transmit_request(msg(5, "a", created_at=ev.fire_at)))
    sim.schedule("drv", "go", 1_000)
    sim.run_until(1_000_000)
    assert inboxes["a"] == []  # sender does not hear its own frame
    for node in ("b", "c"):
        assert len(inboxes[node]) == 1
        m, t = inboxes[node][0]
        assert t == 1_000 + 114_000
        assert m.created_at == 1_000


def test_same_instant_requests_resolve_by_priority():
    sim, bus, inboxes = make_bus()
    sim.register("drv_a", lambda ev: bus.transmit_request(msg(7, "a", ev.fire_at)))
    sim.register("drv_b", lambda ev: bus.transmit_request(msg(3, "b", ev.fire_at)))
    # id 7's request dispatches first; arbitration still picks id 3.
    sim.schedule("drv_a", "go", 0)
    sim.schedule("drv_b", "go", 0)
    sim.run_until(1_000_000)
    deliveries = [(m.can_id, t) for m, t in inboxes["c"]]
    assert deliveries == [(3, 114_000), (7, 228_000)]


def test_busy_bus_request_waits_until_busy_until():
    sim, bus, inboxes = make_bus()
    sim.register("drv_a", lambda ev: bus.transmit_request(msg(5, "a", ev.fire_at)))
    sim.register("drv_b", lambda ev: bus.transmit_request(msg(2, "b", ev.fire_at)))
    sim.schedule("drv_a", "go", 0)
    sim.schedule("drv_b", "go", 50_000)  # mid-transmission; must not preempt
    sim.run_until(1_000_000)
    deliveries = [(m.can_id, t) for m, t in inboxes["c"]]
    assert deliveries == [(5, 114_000), (2, 228_000)]


def test_per_sender_fifo_order():
    sim, bus, inboxes = make_bus()

    def burst(ev):
        for i in range(5):
            bus.transmit_request(CanMessage(0x10, bytes([i] + [0] * 7), ev.fire_at, source="a"))

    sim.register("drv", burst)
    sim.schedule("drv", "go", 0)
    sim.run_until(10_000_000)
    order = [m.payload[0] for m, _ in inboxes["b"]]
    assert order == [0, 1, 2, 3, 4]


def test_node_queue_cap_counts_overflow():
    sim = Simulator()
    bus = CanBus(sim, node_queue_cap=1)
    delivered = []
    bus.attach("a")
    bus.attach("b", lambda m, t: delivered.append((m.can_id, t)))
    sim.register("drv", lambda ev: [bus.transmit_request(msg(i, "a", dlc=0)) for i in (1, 2, 3)])
    sim.schedule("drv", "go", 0)
    sim.run_until(1_000_000)
    # All three land in the same instant, before arbitration pops the head:
    # the first fills the single slot, the other two overflow.
    assert bus.overflows["a"] == 2
    assert delivered == [(1, 50_000)]  # one dlc-0 frame time after the request


def test_utilization_sanity_and_non_preemption():
    sim, bus, inboxes = make_bus()

    def burst(ev):
        for node, can_id in (("a", 9), ("b", 4), ("c", 6)):
            bus.transmit_request(msg(can_id, node, ev.fire_at))

    sim.register("drv", burst)
    sim.schedule("drv", "go", 0)
    sim.run_until(1_000_000)
    # Back to back from t=0, one frame time each: the bus never idles while
    # a request waits, and no frame cuts into another.
    deliveries = sorted({(t, m.can_id) for inbox in inboxes.values() for m, t in inbox})
    assert deliveries == [(114_000, 4), (228_000, 6), (342_000, 9)]
    # priority order across the sequential transmissions
    assert [m.can_id for m, _ in inboxes["a"]] == [4, 6]


def test_random_contention_matches_brute_force_replay():
    # Smaller cousin of the acceptance oracle: random request times and ids.
    rng = random.Random(99)
    for _ in range(50):
        nodes = [f"n{i}" for i in range(rng.randint(2, 5))]
        requests = []  # (time, node, can_id)
        used_ids = rng.sample(range(2048), 12)
        k = 0
        for node in nodes:
            for _ in range(rng.randint(1, 2)):
                requests.append((rng.randrange(0, 300_000), node, used_ids[k]))
                k += 1
        requests.sort(key=lambda r: r[0])

        sim = Simulator()
        bus = CanBus(sim)
        seen = []
        for node in nodes:
            bus.attach(node)
        bus.attach("obs", lambda m, t: seen.append((m.can_id, t)))
        for i, (t, node, can_id) in enumerate(requests):
            sim.register(f"drv{i}", lambda ev, n=node, c=can_id: bus.transmit_request(msg(c, n, ev.fire_at)))
            sim.schedule(f"drv{i}", "go", t)
        sim.run_until(100_000_000)

        # Brute-force replay: scan-based min-ID schedule, no event queue.
        frame = 114_000
        queues = {n: [] for n in nodes}
        for t, node, can_id in requests:
            queues[node].append((t, can_id))
        expected, now = [], 0
        while any(queues.values()):
            heads = [(q[0], n) for n, q in queues.items() if q]
            earliest = min(t for (t, _), _ in heads)
            now = max(now, earliest)
            ready = [(t, c, n) for (t, c), n in heads if t <= now]
            _, c, n = min(ready, key=lambda r: r[1])
            queues[n].pop(0)
            now += frame
            expected.append((c, now))
        assert seen == expected


@pytest.mark.parametrize("stuffing", [STUFFING_NONE, STUFFING_WORST_CASE])
def test_cached_frame_times_match_can_frame_time(stuffing):
    # Mixed dlc 0..8, each value more than once, sent back to back.
    dlcs = [3, 0, 8, 1, 7, 2, 6, 4, 5, 8, 0, 3]
    sim = Simulator()
    bus = CanBus(sim, stuffing_model=stuffing)
    done = []
    bus.attach("a")
    bus.attach("b", lambda m, t: done.append((len(m.payload), t)))
    for dlc in dlcs:
        bus.transmit_request(msg(0x100, "a", created_at=0, dlc=dlc))
    sim.run_until(10_000_000)
    times = [can_frame_time(dlc, bus.bitrate, stuffing) for dlc in dlcs]
    assert [d for d, _ in done] == dlcs
    assert [t for _, t in done] == [sum(times[: i + 1]) for i in range(len(dlcs))]


# Per node: whether it has a receive callback, and its requests as (50 us
# slot, id offset).  Requests share slots, so many land in the same instant,
# some mid-frame and some on an idle bus.
bus_plans = st.tuples(
    st.sampled_from([None, 1, 2]),
    st.lists(
        st.tuples(st.booleans(), st.lists(st.tuples(st.integers(0, 5), st.integers(0, 3)), max_size=6)),
        min_size=2,
        max_size=5,
    ),
)


@settings(deadline=None)
@given(bus_plans)
def test_queued_count_and_delivery_under_random_contention(plan):
    cap, nodes = plan
    sim = Simulator()
    bus = CanBus(sim, node_queue_cap=cap)
    heard = {}  # receiving node -> payloads heard, in order
    requests = []  # (source, message)
    for k, (listens, plan_k) in enumerate(nodes):
        name = f"n{k}"
        if listens:
            heard[name] = []
            bus.attach(name, lambda m, t, n=name: heard[n].append(m.payload))
        else:
            bus.attach(name)
        for slot, offset in plan_k:
            # Node k owns ids 4k..4k+3, so no two nodes contend with one id;
            # the payload names the request.
            payload = len(requests).to_bytes(2, "little")
            requests.append((name, CanMessage(4 * k + offset, payload, slot * 50_000, name)))

    def scanned():
        waiting = sum(len(q) for q in bus._queues.values())
        return waiting + (bus._transmitting is not None)

    def check_count(ev):  # called before each event, so after the one before
        assert bus.queued_messages() == scanned()

    accepted = {}  # payload -> source
    sim.trace = check_count

    def drive(ev):
        source, m = requests[int(ev.kind)]
        if bus.transmit_request(m):
            accepted[m.payload] = source

    sim.register("drv", drive)
    for i, (_, m) in enumerate(requests):
        sim.schedule("drv", str(i), m.created_at)
    sim.run_until(100_000_000)
    assert bus.queued_messages() == scanned() == 0
    assert sum(bus.overflows.values()) == len(requests) - len(accepted)
    # Every frame reaches exactly the other receiving nodes, once each.
    for node, payloads in heard.items():
        assert sorted(payloads) == sorted(p for p, source in accepted.items() if source != node)
