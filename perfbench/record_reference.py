#!/usr/bin/env python3
"""Rewrite reference.json from the current program's outputs for seed 0.

    python3 perfbench/record_reference.py

Every benchmark run compares its workload's reference ops against this
file (tolerance 1e-8 relative to max(1, |value|)).  Record it only from a
commit whose outputs are trusted; the committed file comes from the
commit that introduced the benchmark.
"""

import json

import harness
from workloads import WORKLOADS


def main() -> None:
    cli = harness.load_cli()
    doc = {}
    for name, workload in WORKLOADS.items():
        doc[name] = {}
        for index, problems, values in harness.reference_ops(cli, workload):
            if problems:
                raise SystemExit(f"{name} reference op {index} failed: {problems[:3]}")
            doc[name][str(index)] = values
    harness.REFERENCE.write_text(json.dumps(doc, indent=0, sort_keys=True) + "\n")
    print(f"wrote {harness.REFERENCE}")


if __name__ == "__main__":
    main()
