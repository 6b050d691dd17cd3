"""Smoke tests of the benchmark itself, kept out of the Tier-1 suite.

    python3 -m pytest perfbench/smoke_checks.py -q

The file name does not match pytest's `test_*.py` pattern, so a plain
`pytest` run from the repository root does not collect it.
"""

import dataclasses
import functools
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, grid_op  # noqa: E402

CLI = harness.load_cli()
SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    """The workload at its smallest size: 2x2 maps; other ops are unchanged."""
    workload = WORKLOADS[name]
    if name == "grid":
        workload = dataclasses.replace(
            workload, make_op=functools.partial(grid_op, points=2))
    return workload


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_is_all_ok(name):
    workload = tiny(name)
    phase = harness.timed_phase(CLI, workload, seed=7, seconds=0.0, tracer=None,
                                min_ops=workload.cycle)
    metrics, _ = harness.end_to_end_metrics([1.0], phase)
    assert phase["problems"] == []
    assert metrics["ok_frac"][0] == 1.0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_reference_ops_match_reference_file(name):
    problems, _ = harness.check_reference(CLI, WORKLOADS[name])
    assert problems == []


def test_traced_purity_map_counts_every_solve():
    argv = ["purity-map", "--units", "g", "--resonant", "--kappa-points", "2",
            "--gamma-p-points", "2", "--threads", "2"]
    tracer = Tracer()
    with tracer:
        _, outputs = harness.run_op(CLI, [argv], tracer)
    assert outputs[0][0] == 0
    # solve_poles is reached through photon_state's own binding, on two
    # worker threads; all four cells must be counted
    assert tracer.totals()["pole_residue.solve_poles"][0] == 4
    import dotcavity.photon_state as photon_state
    import dotcavity.pole_residue as pole_residue
    assert photon_state.solve_poles is pole_residue.solve_poles
    assert not hasattr(pole_residue.solve_poles, "__wrapped__")


@pytest.mark.parametrize("name", ["grid", "curves"])
def test_call_counts_repeat_for_the_same_seed(name):
    workload = tiny(name)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        phase = harness.timed_phase(CLI, workload, seed=11, seconds=0.0, tracer=tracer)
        values = harness.layer_metrics(SPEC["per_layer"], tracer, phase, workload,
                                       breakdowns=[{}], max_dev=0.0)
        counts.append({k: v for k, v in values.items() if k.endswith(".calls")})
    assert counts[0] == counts[1]
    assert counts[0]["pole_residue.solve_poles.calls"] > 0
