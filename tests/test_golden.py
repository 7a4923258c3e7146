"""Golden-drift check: seed-42 outputs match bench/golden.json byte for byte.

bench/golden.json holds the sha256 of every benchmark output file.  A change
that alters any of these bytes must say so in CHANGES.md and regenerate the
file with bench/record_golden.py; these tests only read it.
"""

import hashlib
import json
from pathlib import Path

from canavbsim.metrics import export_csv
from canavbsim.config import parse_config
from canavbsim.scenario import run_scenario

GOLDEN = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())


def digests(directory, names):
    return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest() for name in names}


def test_suite_outputs_match_golden(suite):
    # fig3_<arm>.csv x4 and comparison.txt from the shared seed-42 suite run.
    _, out = suite
    expected = GOLDEN["fig3_suite"]["42"]
    assert digests(out, expected) == expected


def test_logged_jam_run_matches_golden(tmp_path):
    # What `canavbsim run --trace --queue-trace` writes for 2 s of AVB_jam;
    # trace.csv pins the (fire time, seq) of every dispatched event.
    cfg = parse_config("[sim]\nseed = 42\nduration = 2s\n[traffic.jammer]\nenabled = true\n")
    result = run_scenario(
        cfg, trace_path=tmp_path / "trace.csv", depth_trace_path=tmp_path / "queue_trace.csv"
    )
    export_csv(result.records, tmp_path / f"latency_{result.arm}.csv")
    expected = GOLDEN["jam_logged"]["42"]
    assert sorted(expected) == ["latency_AVB_jam.csv", "queue_trace.csv", "trace.csv"]
    assert digests(tmp_path, expected) == expected


def test_can_saturated_export_matches_golden(tmp_path):
    # The bench's can_saturated workload: jammer off, a 120 us sender for 6 s,
    # about 50k records through the columnar recorder and its CSV writer.
    cfg = parse_config("[sim]\nseed = 42\nduration = 6s\n[traffic.sender]\nperiod = 120us\n")
    result = run_scenario(cfg)
    export_csv(result.records, tmp_path / f"latency_{result.arm}.csv")
    expected = GOLDEN["can_saturated"]["42"]
    assert sorted(expected) == ["latency_AVB_nature.csv"]
    assert digests(tmp_path, expected) == expected
