"""Count the bytecodes and Python calls the simulator runs per event.

    python3 tools/opcount.py [--arm AVB_jam] [--duration 50ms] [--seed 42]
                             [--set traffic.sender.period=120us ...]

Run from the repository root.  Builds one scenario from the reference
config with the given overrides (``--arm`` picks a Fig. 3 arm; without it
the config's own arm runs), then runs it under ``sys.settrace`` with opcode
tracing on in every frame.  Prints one JSON object: events dispatched,
bytecodes and Python calls, in total and per event.  Exits 1 if events
ran but no bytecode was counted, as when opcode tracing does not work.

Building the network is not counted.  On one interpreter version the counts
are deterministic, so they compare the cost of two versions of the code
where wall time on a shared host is too noisy to.  Counts differ between
interpreter versions, so compare them on one version only.  A traced 50 ms
jam arm takes about half a second on a 2-vCPU x86_64 host.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

sys.path.insert(0, "src")

from canavbsim.config import arm_config, parse_config  # noqa: E402
from canavbsim.scenario import build_network  # noqa: E402


def count(net) -> dict[str, int]:
    """Run ``net`` to its horizon, counting what the interpreter executes."""
    ops = calls = 0

    def on_opcode(frame, event, arg):
        nonlocal ops
        if event == "opcode":
            ops += 1
        return on_opcode

    def on_call(frame, event, arg):
        nonlocal calls
        calls += 1
        frame.f_trace_opcodes = True
        return on_opcode

    # Python 3.12 fires opcode events only if some frame asked for them
    # before sys.settrace; without this line it counts no bytecode at all.
    sys._getframe().f_trace_opcodes = True
    sys.settrace(on_call)
    try:
        stats = net.run()
    finally:
        sys.settrace(None)
    return {"events": stats.events_dispatched, "bytecodes": ops, "calls": calls}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--arm", help="a Fig. 3 arm, e.g. AVB_jam (default: the config's own)")
    parser.add_argument("--duration", default="50ms", help="simulated horizon (default 50ms)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="a config override with its full INI key, e.g. traffic.sender.period=120us",
    )
    args = parser.parse_args(argv)
    lines = [f"sim.seed = {args.seed}", f"sim.duration = {args.duration}", *args.set]
    cfg = parse_config("\n".join(lines))
    if args.arm:
        cfg = arm_config(cfg, args.arm)
    counts = count(build_network(cfg))
    events = counts["events"]
    print(json.dumps({
        "python": platform.python_version(),
        "arm": args.arm,
        "duration": args.duration,
        "seed": args.seed,
        "set": args.set,
        **counts,
        "bytecodes_per_event": round(counts["bytecodes"] / events, 2),
        "calls_per_event": round(counts["calls"] / events, 3),
    }))
    if events and not counts["bytecodes"]:
        print("error: events ran but no bytecode was counted", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
