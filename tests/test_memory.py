"""Memory stays bounded under overload: a default run keeps no state per transmission."""

import tracemalloc

from canavbsim.scenario import ScenarioConfig, arm_config, build_network

# What a default AVB_jam run may legitimately keep growing: the best-effort
# backlog (a deque slot of 8 bytes plus its share of the deque's 64-slot
# blocks) and one LatencyRecord per delivered message (the record, its two
# timestamps and its list slot).
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
