"""canavbsim benchmark: host time, memory and golden outputs per workload.

    python3 bench/run.py --workload fig3_suite --seed 3 --seconds 40 --trace 0

Run from the repository root; stdlib only.  Each repetition of the workload
runs in a fresh single-threaded process (bench/workload.py), one at a time,
until --seconds have passed.  --seed picks the program seed
(seed mod 64), which reaches the simulator only as ScenarioConfig.seed.

Every repetition's output files are checked against the sha256 values in
bench/golden.json, and every scenario against exact message and per-port
frame conservation.  At program seed 42 the fig3_suite results must also
match the baseline recorded in ROADMAP.md.

--trace 0 reports the end-to-end metrics as medians over the repetitions.
--trace 1 alternates traced and untraced repetitions and reports the
per-layer metrics: counts exactly, times as medians.  The last line of
standard output is the JSON result; a table of the same metrics precedes it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import HANDLER_LAYERS

BENCH_DIR = Path(__file__).resolve().parent
WORKER = BENCH_DIR / "workload.py"
GOLDEN = BENCH_DIR / "golden.json"
SEED_POOL = 64  # golden.json holds hashes for program seeds 0..63
MIN_REPS = 3
DEADLINE_S = 170  # the whole run, builds excepted, must end within 180 s

# ROADMAP.md baseline: fig3_suite at seed 42, 1 s per arm.
BASELINE_SEED = 42
BASELINE = {
    "AVB_nature": {"max_ns": 531_120},
    "AVB_jam": {"max_ns": 762_480, "events": 183_932},
    "Eth_jam": {"delivered": 37, "max_ns": 885_313_840},
}

# Workload names, metric names and units come from BENCHMARK.json; bench/NOTES.md says which
# end-to-end metric each per-layer one should move, and on which workload.
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, traced: bool, timeout: float) -> dict:
    """One repetition in a fresh process; returns its JSON report."""
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(WORKER), workload, str(seed), repr(spawned), "1" if traced else "0"],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(f"{workload} repetition failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def failed_units(workload: str, seed: int, report: dict, golden: dict) -> list[str]:
    """Units (suite arms, or the one scenario) whose outputs or accounting are wrong."""
    expected = golden[workload][str(seed)]
    failed = []
    for unit in report["units"]:
        problems = [name for name, digest in unit["files"].items() if expected.get(name) != digest]
        if not unit["conserved"]:
            problems.append("conservation")
        if workload == "fig3_suite" and seed == BASELINE_SEED:
            for key, value in BASELINE.get(unit["arm"], {}).items():
                if unit[key] != value:
                    problems.append(f"baseline {key}={unit[key]} != {value}")
        if problems:
            failed.append(f"{unit['arm']}: {', '.join(problems)}")
    return failed


def end_to_end(reports: list[dict], attempted: int, failed: int) -> dict:
    values = {
        key: statistics.median(r[key] for r in reports) for key in ("wall_s", "peak_rss_mb", "setup_s")
    }
    values["ok_share"] = 1 - failed / attempted
    return values


def per_layer(traced: list[dict], plain: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer metric values from traced repetitions, and any inconsistencies.
    Counts must repeat exactly across repetitions and match the untraced ones."""
    problems = []
    layer_runs = [r["layers"] for r in traced]
    counts = {k: v for k, v in layer_runs[0].items() if isinstance(v, int)}
    if any({k: v for k, v in run.items() if isinstance(v, int)} != counts for run in layer_runs):
        problems.append("traced counts differ between repetitions")
    models = [[{k: v for k, v in u.items() if k != "files"} for u in r["units"]] for r in traced + plain]
    if any(m != models[0] for m in models):
        problems.append("simulated results differ between repetitions")
    handler_events = sum(counts.get(f"{layer}.events", 0) for layer in HANDLER_LAYERS.values())
    if handler_events != counts["core.events"]:  # an entity class spans.py does not know
        problems.append(f"handler events {handler_events} != core.events {counts['core.events']}")

    def median(key: str) -> float:
        return statistics.median(run.get(key, 0.0) for run in layer_runs)

    plain_wall = statistics.median(r["wall_s"] for r in plain)
    traced_wall = statistics.median(r["wall_s"] for r in traced)
    names = [m["name"] for m in SPEC["per_layer"]]
    # A layer the workload never enters has no span: its count and time are 0.
    values = {name: median(name) for name in names if name.endswith("_s")}
    values.update({name: counts.get(name, 0) for name in names if not name.endswith("_s")})
    values["gateway.ticks"] = counts.get("gateway.events", 0)
    values["core.events_per_s"] = counts["core.events"] / plain_wall
    values["canbus.arb_useful_ratio"] = _ratio(counts, "canbus.arb_started", "canbus.arbitrations")
    values["gateway.tick_hit_ratio"] = _ratio(counts, "gateway.frames", "gateway.events")
    values["scenario.account_s"] = statistics.median(r["account_s"] for r in traced + plain)
    values["bench.trace_overhead_frac"] = traced_wall / plain_wall - 1
    for unit in traced[0]["units"]:
        for stat in ("delivered", "p99_ns", "max_ns"):
            values[f"model.{unit['arm']}.{stat}"] = unit[stat]
    return values, problems


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not Path("src/canavbsim/__init__.py").is_file():
        print("error: run from the repository root; src/canavbsim not found", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    seed = args.seed % SEED_POOL
    started = time.monotonic()
    traced: list[dict] = []
    plain: list[dict] = []
    attempted = failed = 0
    problems: list[str] = []

    def done(min_each: int) -> bool:
        return len(plain) >= min_each and (not args.trace or len(traced) >= min_each)

    # Stop before a repetition that would overrun --seconds, judged by the
    # duration of the previous repetition of the same kind.
    last_rep_s = {False: 0.0, True: 0.0}
    try:
        while True:
            elapsed = time.monotonic() - started
            as_traced = bool(args.trace) and len(traced) <= len(plain)
            if (elapsed + last_rep_s[as_traced] > args.seconds and done(MIN_REPS)) or (
                elapsed > DEADLINE_S / 2 and done(1)
            ):
                break
            report = run_worker(args.workload, seed, as_traced, DEADLINE_S - elapsed)
            last_rep_s[as_traced] = time.monotonic() - started - elapsed
            (traced if as_traced else plain).append(report)
            bad = failed_units(args.workload, seed, report, golden)
            attempted += len(report["units"])
            failed += len(bad)
            problems += bad
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values, inconsistent = per_layer(traced, plain)
        problems += inconsistent
    else:
        values = end_to_end(plain, attempted, failed)
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed} (program seed {seed}) repetitions={len(traced) + len(plain)}")
    metrics = {}
    for spec in SPEC["per_layer" if args.trace else "end_to_end"]:
        name, unit = spec["name"], spec["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<28} {values[name]:>16.6g} {unit}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
