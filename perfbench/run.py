#!/usr/bin/env python3
"""Run one dotcavity benchmark workload and print its metrics.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 20 --trace 0

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Exits 2 without a result when the checkout holds no dotcavity sources.
See README.md in this directory for the workloads and metrics.
"""

import argparse
import json
import sys

import harness
from workloads import WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    try:
        result = harness.run(args.workload, args.seed, args.seconds,
                             bool(args.trace), spec)
    except harness.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    declared = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(result["metrics"]) != declared:
        print(f"error: metrics {sorted(result['metrics'])} do not match "
              f"BENCHMARK.json {sorted(declared)}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
