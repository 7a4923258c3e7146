"""Metrics tests: record handling, nearest-rank statistics, CSV determinism."""

import csv
import io
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from canavbsim.metrics import (
    CSV_HEADER,
    ROWS_PER_WRITE,
    LatencyRecord,
    LatencyRecorder,
    MetricsError,
    export_csv,
    format_summary,
    read_csv,
)


def rec(seq, created, delivered, arm="AVB_nature", can_id=0x100):
    return LatencyRecord(seq, can_id, created, delivered, arm)


def recorder_of(records, arm="AVB_nature"):
    r = LatencyRecorder(arm)
    for x in records:
        r.add(x.seq, x.can_id, x.created_at, x.delivered_at)
    return r


def test_empty_summary_flags_undefined_stats():
    s = LatencyRecorder().summarize()
    assert s.count == 0
    assert s.min is None and s.max is None and s.mean is None
    assert s.p50 is None and s.p99 is None
    assert format_summary("Eth_jam", s) == "Eth_jam      count=0 (no records)"
    assert format_summary("Eth_jam", s, jam_frames=3, dropped=2) == (
        "Eth_jam      count=0 (no records) jam_frames=3 dropped=2"
    )


def test_summary_nearest_rank_hand_computed():
    # series 1,2,3,4 us: p50 = 2nd smallest, p99 = 4th smallest
    r = LatencyRecorder()
    for i, lat in enumerate([1_000, 2_000, 3_000, 4_000]):
        r.add(i, 0x100, 0, lat)
    s = r.summarize()
    assert s.min == 1_000
    assert s.max == 4_000
    assert s.mean == 2_500.0
    assert s.p50 == 2_000
    assert s.p99 == 4_000


def test_out_of_order_delivery_accepted():
    r = LatencyRecorder()
    r.add(1, 0x100, 3_000_000, 3_500_000)
    r.add(0, 0x100, 0, 600_000)
    assert r.summarize().count == 2


def test_export_empty_series_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    export_csv(LatencyRecorder(), path)
    assert path.read_bytes() == b"seq,can_id,created_at_ns,delivered_at_ns,latency_ns,arm\n"


@pytest.mark.parametrize("n", [1, ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1, 2 * ROWS_PER_WRITE + 88])
@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("arm", ["AVB_nature", "", "100%"])
def test_export_bytes_equal_csv_writer_across_chunks(tmp_path, n, shuffled, arm):
    rng = random.Random(n)
    records = [rec(i, 1_000 * i, 1_000 * i + rng.randrange(2**40), arm, rng.randrange(2048)) for i in range(n)]
    if shuffled:
        rng.shuffle(records)
    path = tmp_path / "out.csv"
    export_csv(recorder_of(records, arm), path)
    expected = io.StringIO(newline="")
    writer = csv.writer(expected, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in sorted(records, key=lambda r: (r.created_at, r.seq)):
        writer.writerow((r.seq, r.can_id, r.created_at, r.delivered_at, r.latency, arm))
    assert path.read_bytes() == expected.getvalue().encode()


def test_export_order_equals_created_at_seq_tuple_order(tmp_path):
    # Shuffled input with tied created_at values and tied (created_at, seq)
    # pairs; tied records differ in can_id and delivered_at, so the records
    # read back show their relative order.
    rng = random.Random(5)
    records = [
        rec(rng.randrange(4), rng.randrange(3) * 1_000, 10_000 + i, can_id=i)
        for i in range(200)
    ]
    records.append(rec(4, 10_000, 10_000, can_id=200))  # zero latency reads back
    rng.shuffle(records)
    path = tmp_path / "out.csv"
    export_csv(recorder_of(records), path)
    expected = sorted(records, key=lambda r: (r.created_at, r.seq))
    assert read_csv(path) == expected


@pytest.mark.parametrize(
    "fields",
    [
        (-1, 0x100, 0, 10),  # negative seq
        (2**64, 0x100, 0, 10),  # seq beyond u64
        (0, 2**16, 0, 10),  # can_id beyond u16
        (0, -1, 0, 10),
        (0, 0x100, 0, 2**64),  # delivered_at beyond u64
    ],
)
def test_out_of_range_field_is_a_metrics_error(fields):
    r = LatencyRecorder("arm")
    r.add(7, 0x100, 0, 5)
    with pytest.raises(MetricsError, match="does not fit"):
        r.add(*fields)
    # The failed row left no partial column behind.
    assert [len(c) for c in (r.seq, r.can_id, r.created_at, r.delivered_at)] == [1] * 4
    assert list(r) == [LatencyRecord(7, 0x100, 0, 5, "arm")]


def test_add_rejects_negative_latency():
    r = LatencyRecorder()
    with pytest.raises(MetricsError, match="precedes"):
        r.add(0, 0x100, 100, 99)
    assert len(r) == 0


def test_records_view_is_a_read_only_sequence():
    records = [rec(i, 10 * i, 10 * i + 5 + i) for i in range(4)]
    r = recorder_of(records)
    view = r
    assert len(view) == 4
    assert view[0] == records[0] and view[-1] == records[-1]
    assert view[1:3] == records[1:3]
    assert list(view) == records
    assert records[2] in view
    with pytest.raises(IndexError):
        view[4]
    assert not hasattr(view, "append") and not hasattr(view, "__setitem__")
    r.add(9, 1, 0, 1)
    assert view is r and len(view) == 5


@pytest.mark.parametrize(
    ("row", "message"),
    [
        ("0,256,0,10,10", "line 3: 5 fields, expected 6"),
        ("0,256,0,10,10,AVB_nature,extra", "line 3: 7 fields, expected 6"),
        ("0,256,zero,10,10,AVB_nature", "line 3: non-integer field"),
        ("0,256,0,10,1.5e1,AVB_nature", "line 3: non-integer field"),
        ("0,256,0,10,11,AVB_nature", "line 3: latency column mismatch"),
        ("0,256,10,5,-5,AVB_nature", "line 3: delivered_at 5 precedes created_at 10"),
    ],
)
def test_read_csv_bad_row_names_its_line(tmp_path, row, message):
    path = tmp_path / "bad.csv"
    path.write_text(",".join(CSV_HEADER) + "\n1,256,0,5,5,AVB_nature\n" + row + "\n")
    with pytest.raises(MetricsError, match=message):
        read_csv(path)


def test_read_csv_empty_file_is_a_metrics_error(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(MetricsError, match="unexpected CSV header"):
        read_csv(path)


U64 = 2**64 - 1

latency_series = st.one_of(
    st.lists(st.integers(0, U64), min_size=1, max_size=2_000),
    st.lists(st.integers(0, 10**7), min_size=1, max_size=2_000),
    st.builds(lambda v, n: [v] * n, st.integers(0, U64), st.integers(1, 2_000)),
    st.lists(st.sampled_from([0, U64]), min_size=1, max_size=2_000),
    st.builds(
        lambda base, cluster, outlier: [base + d for d in cluster] + [outlier],
        st.integers(0, 10**9),
        st.lists(st.integers(0, 64), min_size=1, max_size=2_000),
        st.integers(0, U64),
    ),
)


@settings(deadline=None)
@given(latency_series, st.randoms(use_true_random=False))
@example([5_000], random.Random(0))  # n = 1
@example([7] * 1_000, random.Random(0))  # all equal
@example([0, U64, 0, U64, U64], random.Random(0))  # both ends of the u64 column
@example([10**6 + i % 3 for i in range(1_999)] + [U64], random.Random(0))  # cluster + outlier
@example(list(range(2_000, 0, -1)), random.Random(0))
def test_summary_equals_the_sorted_list_reference(latencies, rng):
    r = LatencyRecorder()
    for i, lat in enumerate(latencies):
        created = rng.randrange(2**64 - lat)
        r.add(i, 0x100, created, created + lat)
    s = r.summarize()
    ref = sorted(latencies)
    n = len(ref)
    # Nearest rank ceil(pct * n / 100), in integers.
    p50, p99 = ref[-(-50 * n // 100) - 1], ref[-(-99 * n // 100) - 1]
    assert (s.count, s.min, s.max, s.p50, s.p99) == (n, ref[0], ref[-1], p50, p99)
    assert s.mean == sum(ref) / n
