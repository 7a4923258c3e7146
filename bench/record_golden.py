"""Record bench/golden.json: the sha256 of every file each workload writes,
for every program seed the benchmark can pick.

    python3 bench/record_golden.py

Run from the repository root, and only when a change is meant to alter the
simulator's outputs (record why in CHANGES.md).  A scenario that breaks
conservation, or a fig3_suite that misses the ROADMAP.md seed-42 baseline,
aborts the recording.
"""

import json
import sys

from run import GOLDEN, SEED_POOL, WORKLOADS, failed_units, run_worker


def main() -> int:
    golden = {workload: {} for workload in WORKLOADS}
    for seed in range(SEED_POOL):
        for workload in WORKLOADS:
            report = run_worker(workload, seed, traced=False, timeout=170)
            files = {name: digest for unit in report["units"] for name, digest in unit["files"].items()}
            # Checked against its own hashes, only conservation and the baseline can fail.
            bad = failed_units(workload, seed, report, {workload: {str(seed): files}})
            if bad:
                print(f"error: {workload} seed {seed}: {'; '.join(bad)}", file=sys.stderr)
                return 1
            golden[workload][str(seed)] = files
        print(f"seed {seed} recorded", flush=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
