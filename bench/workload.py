"""One repetition of one benchmark workload, in a fresh process.

    python3 bench/workload.py <workload> <program_seed> <spawn_monotonic> <traced 0|1>

Run from the repository root.  Prints one JSON object with the host times,
peak RSS, output hashes, conservation verdicts and simulated results of the
repetition; with traced=1 it also holds the per-layer spans.

Timeline: ``setup_s`` runs from the parent's spawn time (a CLOCK_MONOTONIC
reading, comparable across processes) to the first ``Simulator.run_until``
call; ``wall_s`` from there to the last output byte written.  Peak RSS is
read at that point, before the conservation check and hashing, which are
not part of what a user waits for.
"""

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, "src")

from canavbsim import core, metrics, scenario  # noqa: E402

OUT_ROOT = ".bench_out"

# The jam horizon is long enough for the best-effort backlog on
# port:sw1->sw2 to dominate peak RSS.  The other horizons give one
# repetition of each workload roughly the same host time.
CONFIGS = {
    "fig3_suite": "[sim]\nseed = {seed}\n",
    "can_saturated": "[sim]\nseed = {seed}\nduration = 6s\n[traffic.sender]\nperiod = 120us\n",
    "jam_logged": "[sim]\nseed = {seed}\nduration = 2s\n[traffic.jammer]\nenabled = true\n",
}


def run_fig3_suite(cfg, out):
    suite = scenario.run_experiment_suite(cfg, out)
    return [
        (arm, result, [f"fig3_{arm}.csv", "comparison.txt"])
        for arm, result in suite.results.items()
    ]


def run_can_saturated(cfg, out):
    result = scenario.run_scenario(cfg)
    csv_name = f"latency_{result.arm}.csv"
    metrics.export_csv(result.records, out / csv_name)
    return [(result.arm, result, [csv_name])]


def run_jam_logged(cfg, out):
    # What `canavbsim run --trace --queue-trace` does.
    result = scenario.run_scenario(
        cfg, trace_path=out / "trace.csv", depth_trace_path=out / "queue_trace.csv"
    )
    csv_name = f"latency_{result.arm}.csv"
    metrics.export_csv(result.records, out / csv_name)
    return [(result.arm, result, [csv_name, "trace.csv", "queue_trace.csv"])]


RUNNERS = {
    "fig3_suite": run_fig3_suite,
    "can_saturated": run_can_saturated,
    "jam_logged": run_jam_logged,
}


def conserved(net) -> bool:
    """Exact message and per-port frame conservation."""
    acc = net.account()
    if acc["created"] != acc["delivered"] + acc["in_flight"] + acc["dropped"]:
        return False
    return all(
        row["offered"] == row["transmitted"] + row["queued"] + row["in_service"] + row["dropped"]
        for row in net.port_accounting().values()
    )


def main(argv: list[str]) -> None:
    workload, seed, spawned, traced = argv[0], int(argv[1]), float(argv[2]), argv[3] == "1"
    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)

    out = Path(OUT_ROOT) / workload
    out.mkdir(parents=True, exist_ok=True)
    cfg = scenario.parse_config(CONFIGS[workload].format(seed=seed))

    marks = {}
    run_until = core.Simulator.run_until

    def marked_run_until(sim, t_end):
        if not marks:
            marks["start"] = time.monotonic()
            marks["root_s"] = tracer.root_s if tracer else 0.0
        return run_until(sim, t_end)

    core.Simulator.run_until = marked_run_until
    units = RUNNERS[workload](cfg, out)
    end = time.monotonic()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = end - marks["start"]
    t0 = time.perf_counter()
    verdicts = [conserved(result.network) for _, result, _ in units]
    account_s = time.perf_counter() - t0

    hashes = {}
    for _, _, files in units:
        for name in files:
            if name not in hashes:
                hashes[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()

    report = {
        "setup_s": marks["start"] - spawned,
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "account_s": account_s,
        "units": [
            {
                "arm": arm,
                "files": {name: hashes[name] for name in files},
                "conserved": ok,
                "events": result.stats.events_dispatched,
                "delivered": result.summary.count,
                "p99_ns": result.summary.p99 or 0,
                "max_ns": result.summary.max or 0,
            }
            for (arm, result, files), ok in zip(units, verdicts)
        ],
    }
    if tracer is not None:
        report["layers"] = layer_report(tracer, units, out, wall_s, marks["root_s"])
    print(json.dumps(report))


def layer_report(tracer, units, out, wall_s, root_s_at_start) -> dict:
    """Per-layer counts and self times, plus end-of-run state of the networks."""
    nets = [result.network for _, result, _ in units]
    ports = [port for net in nets for port in net.ports]
    layers = dict(tracer.self_s)
    layers.update(tracer.counts)
    layers.update(
        {
            "core.events": sum(result.stats.events_dispatched for _, result, _ in units),
            "gateway.frames": sum(net.gw.frames_sent for net in nets),
            "listener.records": sum(net.listener.records_received for net in nets),
            "metrics.records": sum(len(result.records) for _, result, _ in units),
            "port.frames_tx": sum(port.transmitted for port in ports),
            "port.queued_at_end": sum(port.queued_frames() for port in ports),
            "bench.unattributed_s": wall_s - (tracer.root_s - root_s_at_start),
        }
    )
    for name in ("trace.csv", "queue_trace.csv"):
        path = out / name
        if any(name in files for _, _, files in units):
            data = path.read_bytes()
            layers[f"{path.stem}.rows"] = data.count(b"\n") - 1  # minus the header
            layers[f"{path.stem}.bytes"] = len(data)
    return layers


if __name__ == "__main__":
    main(sys.argv[1:])
