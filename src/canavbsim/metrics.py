"""Per-message latency collection, exact order statistics, CSV export."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from operator import attrgetter
from pathlib import Path

from .core import SimulationError

CSV_HEADER = ["seq", "can_id", "created_at_ns", "delivered_at_ns", "latency_ns", "arm"]


class MetricsError(SimulationError):
    pass


@dataclass(frozen=True, slots=True)
class LatencyRecord:
    """One delivered CAN message; latency is delivered_at - created_at exactly."""

    seq: int
    can_id: int
    created_at: int
    delivered_at: int
    arm: str = ""

    def __post_init__(self):
        if self.delivered_at < self.created_at:
            raise MetricsError(
                f"delivered_at {self.delivered_at} precedes created_at {self.created_at}"
            )

    @property
    def latency(self) -> int:
        return self.delivered_at - self.created_at


@dataclass
class RunSummary:
    """Latency statistics over one run; all times in ns, stats None when empty."""

    count: int
    min: int | None = None
    max: int | None = None
    mean: float | None = None
    p50: int | None = None
    p99: int | None = None
    jam_frames: int = 0
    drops: dict[str, int] = field(default_factory=dict)


def percentile_nearest_rank(sorted_values: list[int], pct: float) -> int:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    if not sorted_values:
        raise MetricsError("percentile of an empty series")
    if not 0 < pct <= 100:
        raise MetricsError(f"percentile must be in (0, 100], got {pct}")
    rank = -(-int(pct * len(sorted_values)) // 100)  # ceil without float error
    return sorted_values[max(rank, 1) - 1]


class LatencyRecorder:
    """Accumulates records in delivery order; summaries are computed from the
    complete series (no streaming approximation)."""

    def __init__(self):
        self.records: list[LatencyRecord] = []

    def record(self, rec: LatencyRecord) -> None:
        self.records.append(rec)

    def record_all(self, recs: list[LatencyRecord]) -> None:
        self.records.extend(recs)

    def summarize(self, jam_frames: int = 0, drops: dict[str, int] | None = None) -> RunSummary:
        drops = dict(drops or {})
        if not self.records:
            return RunSummary(count=0, jam_frames=jam_frames, drops=drops)
        lat = sorted(r.latency for r in self.records)
        return RunSummary(
            count=len(lat),
            min=lat[0],
            max=lat[-1],
            mean=sum(lat) / len(lat),
            p50=percentile_nearest_rank(lat, 50),
            p99=percentile_nearest_rank(lat, 99),
            jam_frames=jam_frames,
            drops=drops,
        )


def export_csv(records: list[LatencyRecord], path: str | Path) -> None:
    """Write records in creation-time order; byte output is deterministic."""
    # Two stable sorts give (created_at, seq) order without a key tuple per record.
    rows = sorted(records, key=attrgetter("seq"))
    rows.sort(key=attrgetter("created_at"))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        writer.writerows(
            (r.seq, r.can_id, r.created_at, r.delivered_at, r.latency, r.arm)
            for r in rows
        )


def read_csv(path: str | Path) -> list[LatencyRecord]:
    """Parse a file written by export_csv back into records."""
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != CSV_HEADER:
            raise MetricsError(f"unexpected CSV header {header!r}")
        for row in reader:
            seq, can_id, created, delivered, latency, arm = row
            rec = LatencyRecord(int(seq), int(can_id), int(created), int(delivered), arm)
            if rec.latency != int(latency):
                raise MetricsError(f"latency column mismatch on row {row!r}")
            records.append(rec)
    return records


def format_summary(arm: str, s: RunSummary) -> str:
    """Human-readable one-run summary; times reported in milliseconds."""
    if s.count == 0:
        line = f"{arm:<12} count=0 (no records)"
    else:
        line = (
            f"{arm:<12} count={s.count} min={s.min / 1e6:.3f}ms max={s.max / 1e6:.3f}ms "
            f"mean={s.mean / 1e6:.3f}ms p50={s.p50 / 1e6:.3f}ms p99={s.p99 / 1e6:.3f}ms"
        )
    if s.jam_frames:
        line += f" jam_frames={s.jam_frames}"
    dropped = sum(s.drops.values())
    if dropped:
        line += f" drops={dropped}"
    return line
