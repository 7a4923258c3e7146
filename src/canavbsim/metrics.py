"""Per-message latency collection, exact order statistics, CSV export."""

from __future__ import annotations

import csv
from array import array
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from itertools import chain, islice, repeat
from operator import lt, rshift, sub
from pathlib import Path
from typing import NamedTuple, TextIO

from .core import SimulationError

# Rows formatted per write.  Below the cyclic collector's generation-0
# threshold (700 by default), the row tuples trigger no collection; larger
# chunks format no faster per row.
ROWS_PER_WRITE = 256

CSV_HEADER = ["seq", "can_id", "created_at_ns", "delivered_at_ns", "latency_ns", "arm"]


class MetricsError(SimulationError):
    pass


class LatencyRecord(NamedTuple):
    """One delivered CAN message; latency is delivered_at - created_at exactly.

    Not checked here: ``LatencyRecorder.add`` and ``read_csv``, the two ways
    in from outside the recorder, reject a delivery before its creation."""

    seq: int
    can_id: int
    created_at: int
    delivered_at: int
    arm: str = ""

    @property
    def latency(self) -> int:
        return self.delivered_at - self.created_at


class RunSummary(NamedTuple):
    """Latency statistics over one run; all times in ns, stats None when empty."""

    count: int
    min: int | None = None
    max: int | None = None
    mean: float | None = None
    p50: int | None = None
    p99: int | None = None


_BUCKET_BITS = 12  # a pass counts its one window in at most 2**12 + 1 buckets


def _select_rank(values: Callable[[], Iterator[int]], lo: int, hi: int, rank: int) -> int:
    """Exact order statistic: the rank-th smallest (1-based) of the series
    that each call of ``values()`` iterates, whose minimum is lo and maximum
    is hi.

    Each pass counts the values inside the window [lo, hi] by
    ``value >> shift`` and narrows the window to the bucket that holds the
    rank, until it is one value.  A 64-bit range takes at most 6 passes, and
    the extra memory is one pass's bucket counts, whatever the length of the
    series.
    """
    kept = values()  # the first pass keeps every value
    while lo < hi:
        shift = max(0, (hi - lo).bit_length() - _BUCKET_BITS)
        counts = Counter(map(rshift, kept, repeat(shift)))
        for key in sorted(counts):
            if counts[key] >= rank:
                break
            rank -= counts[key]
        lo, hi = max(lo, key << shift), min(hi, ((key + 1) << shift) - 1)
        kept = filter(range(lo, hi + 1).__contains__, values())
    return lo


def _precedes(created_at: int, delivered_at: int) -> MetricsError:
    return MetricsError(f"delivered_at {delivered_at} precedes created_at {created_at}")


class LatencyRecorder(Sequence):
    """One run's records in delivery order, kept as one typed column per
    field and no object per record; ``arm`` labels every record.

    The recorder is itself a read-only sequence of LatencyRecord: indexing,
    slicing and iteration build each record on access, and ``add`` is the
    one way in.  ``summarize`` is exact over the complete series
    (nearest-rank p50 and p99, no streaming approximation) and selects in
    passes over the columns, so it adds no memory per record."""

    __slots__ = ("seq", "can_id", "created_at", "delivered_at", "arm")

    def __init__(self, arm: str = ""):
        self.seq = array("Q")
        self.can_id = array("H")
        self.created_at = array("Q")
        self.delivered_at = array("Q")
        self.arm = arm

    @property
    def columns(self) -> tuple[array, array, array, array]:
        """The seq, can_id, created_at and delivered_at columns, in that order."""
        return self.seq, self.can_id, self.created_at, self.delivered_at

    def __len__(self) -> int:
        return len(self.delivered_at)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return LatencyRecord(*(column[index] for column in self.columns), self.arm)

    def __iter__(self):
        return map(LatencyRecord, *self.columns, repeat(self.arm))

    def add(self, seq: int, can_id: int, created_at: int, delivered_at: int) -> None:
        if delivered_at < created_at:
            raise _precedes(created_at, delivered_at)
        try:
            self.seq.append(seq)
            self.can_id.append(can_id)
            self.created_at.append(created_at)
            self.delivered_at.append(delivered_at)
        except OverflowError:
            n = len(self.delivered_at)  # appended last: drop the partial row
            for column in self.columns:
                del column[n:]
            raise MetricsError(
                f"record (seq {seq}, can_id {can_id}, created_at {created_at}, "
                f"delivered_at {delivered_at}) does not fit the u64/u16/u64/u64 columns"
            ) from None

    def summarize(self) -> RunSummary:
        if not self.delivered_at:
            return RunSummary(count=0)

        def latencies():
            return map(sub, self.delivered_at, self.created_at)

        n = len(self.delivered_at)
        lo, hi = min(latencies()), max(latencies())
        # Nearest ranks ceil(pct * n / 100), 1-based, in integers.
        p50, p99 = -(-50 * n // 100), -(-99 * n // 100)
        return RunSummary(
            count=n,
            min=lo,
            max=hi,
            mean=sum(latencies()) / n,
            p50=_select_rank(latencies, lo, hi, p50),
            p99=_select_rank(latencies, lo, hi, p99),
        )


def _creation_order(created_at: array, seq: array) -> list[int] | None:
    """Row indices in (created_at, seq) order, or None when the rows already
    are in that order, as one sender's messages delivered FIFO are."""
    if all(map(lt, created_at, islice(created_at, 1, None))):
        return None
    # Two stable sorts give (created_at, seq) order without a key tuple per row.
    order = sorted(range(len(seq)), key=seq.__getitem__)
    order.sort(key=created_at.__getitem__)
    return order


def write_rows(file: TextIO, row_format: str, rows: list[tuple]) -> None:
    """Write rows, each formatted by row_format, with one % call."""
    file.write(row_format * len(rows) % tuple(chain.from_iterable(rows)))


def export_csv(recorder: LatencyRecorder, path: str | Path) -> None:
    """Write a recorder's records in (created_at, seq) order; byte output is
    deterministic.

    Rows go out ROWS_PER_WRITE at a time through write_rows, byte for byte
    what ``csv.writer`` writes: every field but the last is an integer, and
    the arm label comes from ``config.arm_name``, whose names hold no
    comma, quote or line break, so no field needs quoting."""
    columns = recorder.columns
    order = _creation_order(recorder.created_at, recorder.seq)
    if order is not None:
        columns = [array(column.typecode, map(column.__getitem__, order)) for column in columns]
    seq, can_id, created, delivered = columns
    row_format = "%d,%d,%d,%d,%d," + recorder.arm.replace("%", "%%") + "\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for start in range(0, len(seq), ROWS_PER_WRITE):
            end = start + ROWS_PER_WRITE
            c, d = created[start:end], delivered[start:end]
            write_rows(fh, row_format, list(zip(seq[start:end], can_id[start:end], c, d, map(sub, d, c))))


def read_csv(path: str | Path) -> list[LatencyRecord]:
    """Parse a file written by export_csv back into records."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != CSV_HEADER:
            raise MetricsError(f"unexpected CSV header {header!r}")
        for row in reader:
            line = reader.line_num
            if len(row) != len(CSV_HEADER):
                raise MetricsError(f"line {line}: {len(row)} fields, expected {len(CSV_HEADER)}")
            try:
                seq, can_id, created, delivered, latency = map(int, row[:-1])
            except ValueError:
                raise MetricsError(f"line {line}: non-integer field in {row!r}") from None
            if delivered < created:
                raise MetricsError(f"line {line}: {_precedes(created, delivered)}")
            if delivered - created != latency:
                raise MetricsError(f"line {line}: latency column mismatch on row {row!r}")
            records.append(LatencyRecord(seq, can_id, created, delivered, row[-1]))
    return records


def format_summary(arm: str, s: RunSummary, jam_frames: int = 0, dropped: int = 0) -> str:
    """Human-readable one-run summary; times reported in milliseconds.  The
    network's jam frame and dropped CAN message counts show when nonzero."""
    if s.count == 0:
        line = f"{arm:<12} count=0 (no records)"
    else:
        line = (
            f"{arm:<12} count={s.count} min={s.min / 1e6:.3f}ms max={s.max / 1e6:.3f}ms "
            f"mean={s.mean / 1e6:.3f}ms p50={s.p50 / 1e6:.3f}ms p99={s.p99 / 1e6:.3f}ms"
        )
    if jam_frames:
        line += f" jam_frames={jam_frames}"
    if dropped:
        line += f" dropped={dropped}"
    return line
