"""Memory stays bounded under overload: a default run keeps no state per transmission."""

import tracemalloc

from canavbsim.scenario import ScenarioConfig, arm_config, build_network, parse_config

# What a default AVB_jam run may legitimately keep growing: the best-effort
# backlog (a deque slot of 8 bytes plus its share of the deque's 64-slot
# blocks) and one record per delivered message (256 B covers even a frozen
# LatencyRecord object with its two timestamps and a list slot).
BYTES_PER_QUEUED_FRAME = 16
BYTES_PER_RECORD = 256


def test_default_jam_run_retains_no_per_transmission_state():
    net = build_network(arm_config(ScenarioConfig(seed=42), "AVB_jam"))
    net.start()
    samples = []
    tracemalloc.start()
    try:
        for horizon in (100_000_000, 400_000_000):
            net.sim.run_until(horizon)
            samples.append(
                (
                    tracemalloc.get_traced_memory()[0],
                    sum(port.queued_frames() for port in net.ports),
                    len(net.recorder.records),
                    sum(port.transmitted for port in net.ports),
                )
            )
    finally:
        tracemalloc.stop()
    (bytes0, queued0, records0, tx0), (bytes1, queued1, records1, tx1) = samples
    # thousands of transmissions, so even a small tuple per transmission shows
    assert tx1 - tx0 > 5_000
    allowance = (
        BYTES_PER_QUEUED_FRAME * (queued1 - queued0) + BYTES_PER_RECORD * (records1 - records0)
    )
    assert bytes1 - bytes0 <= allowance


# A delivered CAN message keeps one row of typed columns: three u64 and one
# u16 fields, an 8-byte arm reference, plus the columns' spare capacity.
BYTES_PER_COLUMN_ROW = 48


def test_can_heavy_run_keeps_no_object_per_record():
    cfg = parse_config("[sim]\nseed = 42\nduration = 2s\n[traffic.sender]\nperiod = 120us\n")
    net = build_network(cfg)
    net.start()
    samples = []
    tracemalloc.start()
    try:
        for horizon in (200_000_000, 1_000_000_000):
            net.sim.run_until(horizon)
            samples.append((tracemalloc.get_traced_memory()[0], len(net.recorder.records)))
    finally:
        tracemalloc.stop()
    (bytes0, records0), (bytes1, records1) = samples
    assert records1 - records0 > 5_000
    assert bytes1 - bytes0 <= BYTES_PER_COLUMN_ROW * (records1 - records0)
