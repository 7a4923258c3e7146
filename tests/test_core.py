"""Engine tests: ordering, causality, cancellation, seeded randomness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from canavbsim.core import (
    Event,
    InvalidRange,
    SchedulingInPast,
    Simulator,
    stream_rng,
    uniform_sampler,
)


def collect(sim, log):
    def handler(ev):
        log.append((ev.fire_at, ev.seq, ev.kind))

    return handler


def test_schedule_at_time_zero_boundary():
    sim = Simulator()
    log = []
    sim.register("gw", collect(sim, log))
    handle = sim.schedule("gw", "pack_timer", 0)
    assert handle.seq == 0
    sim.run_until(10)
    assert log == [(0, 0, "pack_timer")]


def test_ties_dispatch_in_insertion_order():
    sim = Simulator()
    log = []
    sim.register("a", collect(sim, log))
    sim.schedule("a", "first", 10)
    sim.schedule("a", "second", 10)
    sim.schedule("a", "third", 20)
    sim.run_until(100)
    assert [k for _, _, k in log] == ["first", "second", "third"]
    assert [s for _, s, _ in log] == [0, 1, 2]


def test_scheduling_in_past_rejected():
    sim = Simulator()
    sim.register("a", lambda ev: None)
    sim.schedule("a", "x", 5)
    sim.run_until(5)
    with pytest.raises(SchedulingInPast):
        sim.schedule("a", "y", 4)


def test_run_until_empty_queue_advances_clock():
    sim = Simulator()
    stats = sim.run_until(1_000_000_000)
    assert stats.events_dispatched == 0
    assert sim.now == 1_000_000_000


def test_events_beyond_horizon_stay_queued():
    sim = Simulator()
    log = []
    sim.register("a", collect(sim, log))
    sim.schedule("a", "early", 10)
    sim.schedule("a", "late", 2_000)
    sim.run_until(1_000)
    assert [k for _, _, k in log] == ["early"]
    assert sim.now == 1_000
    sim.run_until(3_000)
    assert [k for _, _, k in log] == ["early", "late"]


def test_cancelled_event_neither_dispatched_nor_counted():
    sim = Simulator()
    log = []
    sim.register("a", collect(sim, log))
    drop = sim.schedule("a", "drop", 10)
    sim.schedule("a", "keep", 20)
    sim.cancel(drop)
    stats = sim.run_until(100)
    assert log == [(20, 1, "keep")]
    assert stats.events_dispatched == 1
    assert sim._heap == []


def test_cancel_twice_is_harmless():
    sim = Simulator()
    log = []
    sim.register("a", collect(sim, log))
    drop = sim.schedule("a", "drop", 10)
    sim.cancel(drop)
    sim.cancel(drop)
    sim.schedule("a", "keep", 10)
    stats = sim.run_until(100)
    assert log == [(10, 1, "keep")]
    assert stats.events_dispatched == 1
    assert sim._heap == []


def test_cancel_after_fire_changes_no_later_dispatch():
    sim = Simulator()
    log = []
    sim.register("a", collect(sim, log))
    fired = sim.schedule("a", "first", 10)
    sim.run_until(10)
    sim.cancel(fired)
    sim.schedule("a", "second", 20)
    sim.schedule("a", "third", 20)
    stats = sim.run_until(100)
    assert log == [(10, 0, "first"), (20, 1, "second"), (20, 2, "third")]
    assert stats.events_dispatched == 3


def test_cancel_after_fire_leaves_no_stale_entry():
    # A cancel that comes after its event fired finds nothing to take out
    # and leaves the pending events as they were.
    sim = Simulator()
    sim.register("a", lambda ev: None)
    fired = sim.schedule("a", "x", 10)
    later = sim.schedule("a", "y", 20)
    sim.run_until(10)
    sim.cancel(fired)
    assert sim._heap == [later]
    sim.run_until(10**6)
    assert sim._heap == []


def test_dispatch_count_includes_the_event_whose_handler_raised():
    sim = Simulator()
    seen = []

    def handler(ev):
        seen.append(ev.seq)
        if len(seen) == 3:
            raise RuntimeError("handler failed")

    sim.register("a", handler)
    for at in (10, 20, 30, 40, 50):
        sim.schedule("a", "x", at)
    with pytest.raises(RuntimeError):
        sim.run_until(100)
    assert sim.now == 30
    stats = sim.run_until(100)
    assert seen == [0, 1, 2, 3, 4]
    assert stats.events_dispatched == 5


def test_cancel_from_handler_drops_same_instant_event():
    # A handler cancelling a later event at its own timestamp, as an
    # EgressPort does with its credit wakeup.
    sim = Simulator()
    log = []
    handles = {}

    def handler(ev):
        log.append(ev.kind)
        if ev.kind == "first":
            sim.cancel(handles["wakeup"])

    sim.register("a", handler)
    sim.schedule("a", "first", 10)
    handles["wakeup"] = sim.schedule("a", "wakeup", 10)
    sim.run_until(100)
    assert log == ["first"]
    assert sim._heap == []


@st.composite
def cancel_plans(draw):
    """Fire times for a few events, and how each is cancelled: not at all,
    before the run, twice, from the handler of an event dispatched earlier
    (often at the same instant), or after it fired."""
    n = draw(st.integers(1, 30))
    times = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    how = st.sampled_from(["keep", "before", "twice", "handler", "after"])
    plans = draw(st.lists(how, min_size=n, max_size=n))
    picks = draw(st.lists(st.integers(0, 2**16), min_size=n, max_size=n))
    return times, plans, picks


@settings(deadline=None)
@given(cancel_plans())
def test_cancel_dispatches_exactly_the_uncancelled_events_in_order(plan):
    times, plans, picks = plan
    sim = Simulator()
    log = []
    cancels = {}  # seq -> the events its handler cancels

    def handler(ev):
        log.append((ev.fire_at, ev.seq))
        for target in cancels.get(ev.seq, ()):
            sim.cancel(target)

    sim.register("a", handler)
    events = [sim.schedule("a", "x", t) for t in times]
    # Plans are applied in dispatch order, so a handler cancel always comes
    # from an event that is dispatched before its target.
    order = sorted(events)
    cancelled = set()
    for rank, (ev, how, pick) in enumerate(zip(order, plans, picks)):
        if how in ("before", "twice"):
            sim.cancel(ev)
            cancelled.add(ev)
        if how == "twice":
            sim.cancel(ev)
        if how == "handler" and rank and order[pick % rank] not in cancelled:
            cancels.setdefault(order[pick % rank].seq, []).append(ev)
            cancelled.add(ev)
    stats = sim.run_until(5)
    for ev, how in zip(order, plans):
        if how == "after":
            sim.cancel(ev)
    sim.run_until(10)
    expected = [(ev.fire_at, ev.seq) for ev in order if ev not in cancelled]
    assert log == expected
    assert stats.events_dispatched == len(expected)
    assert sim._heap == []


def test_event_is_an_immutable_heap_entry():
    sim = Simulator()
    ev = sim.schedule("a", "x", 5)
    assert isinstance(ev, Event)
    assert ev == (5, 0, "a", "x")
    assert (ev.fire_at, ev.seq, ev.target, ev.kind) == (5, 0, "a", "x")
    with pytest.raises(AttributeError):
        ev.fire_at = 6
    with pytest.raises(AttributeError):
        ev.cancelled = True
    assert sim._heap == [ev]


def test_causality_clock_never_decreases():
    sim = Simulator()
    seen = []

    def handler(ev):
        assert ev.fire_at >= (seen[-1] if seen else 0)
        assert sim.now == ev.fire_at
        seen.append(sim.now)
        if len(seen) < 50:
            sim.schedule("a", "next", sim.now + (ev.seq * 7) % 13)

    sim.register("a", handler)
    sim.schedule("a", "next", 0)
    sim.run_until(10_000)
    assert seen == sorted(seen)


def test_trace_lines_match_dispatch_order():
    rows = []
    sim = Simulator()
    sim.trace = lambda ev: rows.append((ev.fire_at, ev.seq, ev.target, ev.kind))
    sim.register("a", lambda ev: None)
    sim.schedule("a", "x", 5)
    sim.schedule("a", "y", 5)
    sim.run_until(10)
    assert rows == [(5, 0, "a", "x"), (5, 1, "a", "y")]


@pytest.mark.parametrize("lo, hi", [(1_000, 25_000), (5, 5), (1, 3), (0, 2**32 - 1), (0, 2**32)])
def test_uniform_sampler_matches_randint_draw_for_draw(lo, hi):
    # The golden outputs rest on this: a sampler must consume and return
    # exactly what Random.randint does on this interpreter.
    for seed in (0, 1, 42):
        rng, ref = random.Random(seed), random.Random(seed)
        draw = uniform_sampler(rng, lo, hi)
        assert [draw() for _ in range(100_000)] == [ref.randint(lo, hi) for _ in range(100_000)]
        assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("lo, hi", [(1_000, 25_000), (5, 5), (0, 2**32 - 1), (0, 2**32)])
def test_uniform_draw_matches_randint_draw_for_draw(lo, hi):
    # Building a sampler, even mid-stream, draws nothing from the stream, and
    # its first draw is what Random.randint returns next.
    for seed in (0, 1, 42):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(1_000):
            draw = uniform_sampler(rng, lo, hi)
            assert rng.getstate() == ref.getstate()
            assert draw() == ref.randint(lo, hi)


def test_uniform_sampler_rejects_an_invalid_range_when_built():
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(InvalidRange):
        uniform_sampler(rng, 25_000, 1_000)
    assert rng.getstate() == state


def test_stream_rng_reproducible_and_independent():
    a1 = [stream_rng(42, "talker").randint(0, 10**9) for _ in range(1)][0]
    a2 = stream_rng(42, "talker").randint(0, 10**9)
    b = stream_rng(42, "other").randint(0, 10**9)
    c = stream_rng(43, "talker").randint(0, 10**9)
    assert a1 == a2
    assert a1 != b
    assert a1 != c


def test_stream_rng_adding_source_does_not_perturb():
    one = stream_rng(42, "talker")
    seq_before = [one.random() for _ in range(20)]
    # Create another stream between draws; the first stream is unaffected.
    two = stream_rng(42, "sender")
    fresh = stream_rng(42, "talker")
    seq_after = [fresh.random() for _ in range(20)]
    assert seq_before == seq_after
    assert two.random() != seq_before[0]
