"""Memory stays bounded under overload: a jammed run grows with the CAN
messages it delivers or holds in flight, not with transmissions or the
queued filler backlog; a delivered message costs one row of typed record
columns; summarize and trace logging add peaks that do not grow with the
run."""

import tracemalloc

import pytest

from canavbsim.metrics import LatencyRecorder
from canavbsim.config import arm_config, parse_config
from canavbsim.scenario import build_network, run_scenario

# A delivered CAN message keeps one row of typed columns: three u64 and one
# u16 fields, 26 B (the recorder holds one arm label per run, not per row),
# plus the columns' spare capacity.
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
            samples.append((tracemalloc.get_traced_memory()[0], len(net.recorder)))
    finally:
        tracemalloc.stop()
    (bytes0, records0), (bytes1, records1) = samples
    assert records1 - records0 > 5_000
    assert bytes1 - bytes0 <= BYTES_PER_COLUMN_ROW * (records1 - records0)


# summarize keeps no copy of the series: its extra memory is the counts of
# at most 2**12 + 1 histogram buckets over the one window a pass narrows
# (about 300 kB when the latencies fill every bucket), whatever the number
# of records.
SUMMARIZE_PEAK_BOUND = 512 * 1024
SUMMARIZE_PEAK_SLACK = 16 * 1024


def test_summarize_extra_memory_does_not_grow_with_the_record_count():
    # 4,096 rows spread over 2**24 ns put one row in every bucket of the first
    # pass. The other rows hold latencies of at most 256 ns with created_at 0:
    # CPython shares ints that small, so the min, max and sum passes allocate
    # no int for those rows, and the test stays under a second although
    # tracemalloc costs microseconds per allocation.
    spread = [(k << 12) | 0x800 for k in range(4_096)]
    peaks = []
    for n in (20_000, 200_000):
        recorder = LatencyRecorder()
        for i, lat in enumerate(spread + [i % 257 for i in range(n - len(spread))]):
            recorder.add(i, 0x100, 0, lat)
        tracemalloc.start()
        try:
            recorder.summarize()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < SUMMARIZE_PEAK_BOUND
    assert peaks[1] - peaks[0] < SUMMARIZE_PEAK_SLACK


# What logging may add to the peak of a run: the rows of one slice (a few
# hundred tuples of about 150 bytes with their ints), one formatted chunk and
# the two files' write buffers.  Keeping every row of these runs would take
# megabytes.
LOGGING_PEAK_ALLOWANCE = 256 * 1024

JAM = "[sim]\nseed = 42\nduration = {}\n[traffic.jammer]\nenabled = true\n"


@pytest.mark.parametrize(
    "text",
    [
        pytest.param(JAM.format("40ms"), id="jam_40ms"),
        pytest.param(JAM.format("160ms"), id="jam_160ms"),
        # About two events per simulated microsecond, ten times the jam arm's rate.
        pytest.param(JAM.format("20ms") + "period_lo = 1us\nperiod_hi = 1us\n", id="jammer_1us"),
    ],
)
def test_logging_adds_a_bounded_peak_whatever_the_horizon_and_event_rate(tmp_path, text):
    cfg = parse_config(text)
    logged = {"trace_path": tmp_path / "trace.csv", "depth_trace_path": tmp_path / "queue_trace.csv"}
    peaks = []
    for paths in ({}, logged):
        tracemalloc.start()
        try:
            run_scenario(cfg, **paths)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert (tmp_path / "trace.csv").stat().st_size > 100_000
    assert peaks[1] - peaks[0] <= LOGGING_PEAK_ALLOWANCE


# What a jammed run may keep growing once the backlog has formed: one row of
# record columns per delivered message (as above), and per CAN message that
# is stuck in flight its frame, its payload and the run boundary it makes in
# a port FIFO.  A queued filler costs nothing: back-to-back references to the
# shared filler frame are one run, however long the backlog gets.
BYTES_PER_STUCK_MESSAGE = 512
FIXED_GROWTH = 8 * 1024


@pytest.mark.parametrize(
    "arm,extra",
    [
        pytest.param("AVB_jam", "", id="AVB_jam"),
        pytest.param("Eth_jam", "", id="Eth_jam"),
        # The fillers share the AVB queue with the CAN frames.
        pytest.param("AVB_jam", "traffic.jammer.pcp = 3\n", id="AVB_jam_pcp3"),
        # The backlog forms on the talker's own access port.
        pytest.param("AVB_jam", "traffic.jammer.link_rate = 50Mbps\n", id="AVB_jam_link_50M"),
    ],
)
def test_overloaded_run_grows_with_messages_not_with_the_backlog(arm, extra):
    cfg = arm_config(parse_config("sim.seed = 42\nsim.duration = 2s\n" + extra), arm)
    net = build_network(cfg)
    net.start()
    net.sim.run_until(500_000_000)
    samples = []
    tracemalloc.start()
    try:
        for horizon in (500_000_000, 2_000_000_000):
            net.sim.run_until(horizon)
            samples.append(
                (
                    tracemalloc.get_traced_memory()[0],
                    sum(port.queued_frames() for port in net.ports),
                    len(net.recorder),
                    net.messages_in_flight(),
                )
            )
    finally:
        tracemalloc.stop()
    (bytes0, queued0, records0, stuck0), (bytes1, queued1, records1, stuck1) = samples
    # the backlog keeps growing: about 100k more fillers queue in the window
    assert queued1 - queued0 > 50_000
    allowance = (
        BYTES_PER_COLUMN_ROW * (records1 - records0)
        + BYTES_PER_STUCK_MESSAGE * max(0, stuck1 - stuck0)
        + FIXED_GROWTH
    )
    assert bytes1 - bytes0 <= allowance
