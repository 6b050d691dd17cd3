"""Benchmark harness for dotcavity; `run.py` is its command-line entry.

One run of one workload:

1. pin the process to the currently fastest CPU (see `pin_to_fastest_cpu`).
2. set-up: `SETUP_RUNS` fresh interpreters (after one unmeasured warm-up
   that also writes the byte-code cache) each time `import dotcavity.cli`
   plus `build_parser()`; `setup_s` is their median.
3. run the workload's reference ops (seed 0) in-process, untimed; their
   outputs are compared with `reference.json`.  This also warms up.
4. timed phase: a closed loop with one client.  Op after op is built from
   the seed and passed to `dotcavity.cli.main` in-process (stdout captured
   in memory).  Between ops, untimed: the op's output check, a garbage
   collection, the choice of the next op's CPU, and the host calibration
   right before and right after the op.  The loop stops at a cycle
   boundary once the ops have taken `--seconds` in total and at least
   `MIN_OPS` ops ran.

Host normalisation: the host's speed drifts by up to 40% over seconds to
minutes, whatever runs.  Every op's wall time t is therefore reported as
t * CALIB_REF_MS / c, where c is the mean of the calibration kernel's wall
time just before and just after the op on the same CPU: milliseconds on a
host where the kernel takes CALIB_REF_MS.  A slower program raises t and
leaves c alone.  `setup_s` stays unnormalised: a kernel timed next to a
child interpreter is slowed by the child's start and exit, not only by
the host.

With `--trace 1` the timed phase alternates cycles without and with the
outside-in tracer (see tracer.py) and reports per-layer metrics instead of
the end-to-end ones.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded BLAS: the ops use small matrices, and idle BLAS workers on
# the other CPU only add noise.  Must be set before numpy is imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from tracer import Tracer
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

SETUP_RUNS = 5
SETUP_CODE = (
    "import time; t0 = time.perf_counter(); import dotcavity.cli as cli; "
    "cli.build_parser(); print(time.perf_counter() - t0)"
)
MIN_OPS = 20            # op_ms_tail needs ten samples beyond it
TRACE_COUNT_CYCLES = 2  # *.calls and cli.bytes_out come from this many traced cycles
CALIB_ROUNDS = 300      # host calibration kernel: 6-11 ms on the reference machine
CALIB_REF_MS = 10.0     # reported times are ms at a host speed where it takes this
CALIB_PROBES = 5        # calibration kernels per CPU when choosing the set-up CPU
REF_TOL = 1e-8          # |got - ref| <= REF_TOL * max(1, |ref|)


class SourceMissing(RuntimeError):
    """The checkout holds no dotcavity sources to benchmark."""


def pin_to_fastest_cpu(cpus: list[int], probes: int) -> tuple[int, float]:
    """Confine this thread, and the threads and children it starts, to the
    CPU of `cpus` on which the host calibration kernel currently runs
    fastest.  Returns (cpu, its calibration ms).

    On the two-vCPU reference machine, `--threads 2` maps drift between
    about 420 and 520 ms per op when the interpreter lock bounces between
    two CPUs, and take about 300 ms on one CPU.  The two vCPUs also differ
    in speed by up to 30% at a given moment, depending on load outside the
    machine.  This changes only the affinity of the benchmark's process.
    """
    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(calibrate() for _ in range(probes))
    best = min(speeds, key=speeds.get)
    os.sched_setaffinity(0, {best})
    return best, speeds[best]


def load_cli():
    """Import dotcavity.cli from the checkout's src/ (never an installed copy)."""
    if not (SRC / "dotcavity" / "__init__.py").is_file():
        raise SourceMissing(f"no dotcavity package under {SRC}")
    sys.path.insert(0, str(SRC))
    import dotcavity.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "dotcavity":
        raise SourceMissing(f"dotcavity imported from {cli.__file__}, not {SRC}")
    return cli


# -- set-up ----------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def _import_self_ms(stderr: str) -> dict[str, float]:
    """Sum `-X importtime` self times (us) per top-level package, in ms."""
    totals: dict[str, float] = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, _, name = (f.strip() for f in line[len("import time:"):].split("|"))
        if not self_us.isdigit():
            continue
        top = name.split(".", 1)[0]
        totals[top] = totals.get(top, 0.0) + int(self_us) / 1000.0
    return totals


def measure_setup(runs: int, importtime: bool):
    """Returns (seconds per fresh interpreter, import-time breakdowns)."""
    flags = ["-X", "importtime"] if importtime else []
    cmd = [sys.executable, *flags, "-c", SETUP_CODE]
    times, breakdowns = [], []
    for i in range(runs + 1):
        proc = subprocess.run(
            cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=120, check=True,
        )
        if i == 0:
            continue    # warm-up: byte-code cache and page cache
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        if importtime:
            breakdowns.append(_import_self_ms(proc.stderr))
    return times, breakdowns


# -- ops -------------------------------------------------------------------


_CALIB_X = np.linspace(0.0, 1.0, 200)


def calibrate() -> float:
    """Wall ms of a fixed kernel: the host's current speed.

    It mixes what the program does: small numpy array operations and a
    Python loop over floats.  A pure-Python integer loop tracked the ops'
    drift less well on the reference machine (see README.md).
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALIB_ROUNDS):
        y = np.exp(_CALIB_X * (-0.01 * i)) * np.cos(_CALIB_X)
        acc += float(np.trapezoid(y, _CALIB_X))
        acc += sum(float(v) for v in y[:20])
    return (time.perf_counter() - t0) * 1e3


def normalise(t: float, before_ms: float, after_ms: float) -> float:
    """`t` at the reference host speed, from the calibrations around it."""
    return t * CALIB_REF_MS / ((before_ms + after_ms) / 2.0)


def _call(cli, argv) -> tuple[int, str]:
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = -1
    return rc, buf.getvalue()


def run_op(cli, argvs, tracer: Tracer | None = None):
    """Run one op; returns (wall ms, [(exit code, stdout), ...])."""
    t0 = time.perf_counter()
    if tracer is None:
        outputs = [_call(cli, argv) for argv in argvs]
    else:
        outputs = tracer.call("bench.op", lambda: [_call(cli, argv) for argv in argvs])
    return (time.perf_counter() - t0) * 1e3, outputs


def check_op(workload, argvs, outputs):
    try:
        return workload.check(argvs, outputs)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unparseable output: {exc!r}"], {}


def compare(got: dict, ref: dict) -> tuple[list[str], float]:
    """Reference comparison; returns (problems, largest scaled deviation)."""
    problems, worst = [], 0.0
    for key, want in ref.items():
        if key not in got:
            problems.append(f"{key}: missing")
            continue
        if want is None:
            continue
        dev = abs(got[key] - want) / max(1.0, abs(want))
        if not dev <= REF_TOL:
            problems.append(f"{key}: {got[key]!r} vs reference {want!r}")
        worst = max(worst, dev)
    return problems, worst


def reference_ops(cli, workload):
    """Yield (op index, problems, values) for the workload's seed-0 reference ops."""
    for index in workload.reference_ops:
        argvs = workload.make_op(DEFAULT_SEED, index)
        _, outputs = run_op(cli, argvs)
        yield (index, *check_op(workload, argvs, outputs))


def check_reference(cli, workload) -> tuple[list[str], float]:
    refs = json.loads(REFERENCE.read_text())[workload.name]
    problems, worst = [], 0.0
    for index, op_problems, got in reference_ops(cli, workload):
        ref_problems, dev = compare(got, refs[str(index)])
        problems += [f"reference op {index}: {p}" for p in op_problems + ref_problems]
        worst = max(worst, dev)
    return problems, worst


# -- timed phase -----------------------------------------------------------


def _tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with >= 10 above it."""
    ordered = sorted(samples)
    n = len(ordered)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * (idx + 1) / n


def timed_phase(cli, workload, seed: int, seconds: float, tracer: Tracer | None,
                min_ops: int = MIN_OPS, cpus: list[int] | None = None):
    cpus = cpus or sorted(os.sched_getaffinity(0))
    plain, traced, calib = [], [], []       # wall ms, calibration ms
    plain_norm, traced_norm = [], []        # host-normalised ms
    attempted = failed = 0
    problems: list[str] = []
    count_snapshot = None
    bytes_first = 0
    traced_cycles = 0
    measured_s = 0.0
    index = 0
    while True:
        if index % workload.cycle == 0 and measured_s >= seconds:
            if tracer is None and len(plain) >= min_ops:
                break
            if tracer is not None and traced_cycles >= TRACE_COUNT_CYCLES:
                break
        cycle = index // workload.cycle
        use_tracer = tracer is not None and cycle % 2 == 1
        argvs = workload.make_op(seed, index)
        gc.collect()
        pin_to_fastest_cpu(cpus, probes=1)
        before = calibrate()
        if use_tracer:
            with tracer:
                wall, outputs = run_op(cli, argvs, tracer)
        else:
            wall, outputs = run_op(cli, argvs)
        after = calibrate()
        calib.append((before + after) / 2.0)
        if use_tracer:
            traced.append(wall)
            traced_norm.append(normalise(wall, before, after))
            if traced_cycles < TRACE_COUNT_CYCLES:
                bytes_first += sum(len(text) for _, text in outputs)
        else:
            plain.append(wall)
            plain_norm.append(normalise(wall, before, after))
        measured_s += wall / 1e3
        attempted += 1
        op_problems, _ = check_op(workload, argvs, outputs)
        if op_problems:
            failed += 1
            problems += [f"op {index}: {p}" for p in op_problems[:3]]
        index += 1
        if use_tracer and index % workload.cycle == 0:
            traced_cycles += 1
            if traced_cycles == TRACE_COUNT_CYCLES:
                count_snapshot = tracer.totals()
    return {
        "plain": plain, "traced": traced, "calib": calib,
        "plain_norm": plain_norm, "traced_norm": traced_norm,
        "attempted": attempted, "failed": failed, "problems": problems,
        "count_snapshot": count_snapshot, "bytes_first": bytes_first,
    }


# -- metrics ---------------------------------------------------------------


def end_to_end_metrics(setup_times, phase) -> tuple[dict[str, tuple[float, str]], float]:
    """({name: (value, unit)}, percentile of op_ms_tail).  Op timings are
    host-normalised, set-up times are not."""
    ops = phase["plain_norm"]
    tail, pct = _tail(ops)
    ok = phase["attempted"] - phase["failed"]
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_ms_p50": (statistics.median(ops), "ms"),
        "op_ms_tail": (tail, "ms"),
        "ops_per_s": (len(ops) / (sum(ops) / 1e3), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (ok / phase["attempted"], "frac"),
    }, pct


def layer_metrics(spec, tracer, phase, workload, breakdowns, max_dev):
    """Values for every per-layer metric name in `spec` (BENCHMARK.json)."""
    traced = phase["traced"]
    n_ops = len(traced)
    totals = tracer.totals()
    counts = phase["count_snapshot"]
    count_ops = TRACE_COUNT_CYCLES * workload.cycle
    wall_ms = sum(traced)
    layer_self = sum(rec[2] for key, rec in totals.items() if key != "bench.op") / 1e6
    special = {
        "host.calib_ms": statistics.median(phase["calib"]),
        "host.op_wall_ms_p50": statistics.median(phase["plain"]),
        "trace.overhead_frac": statistics.median(phase["traced_norm"])
            / statistics.median(phase["plain_norm"]) - 1.0,
        "trace.self_sum_frac": layer_self / wall_ms,
        "cli.worker_busy_frac": (
            tracer.worker_ns() / 1e6 / (wall_ms * workload.threads)
            if workload.threads > 1 else 0.0),
        "cli.bytes_out": phase["bytes_first"] / count_ops,
        "check.max_abs_dev": max_dev,
    }
    for name in ("numpy", "scipy", "dotcavity"):
        key = "dotcavity_self" if name == "dotcavity" else name
        special[f"setup.import_{key}_ms"] = statistics.median(
            b.get(name, 0.0) for b in breakdowns)

    values = {}
    for metric in spec:
        name = metric["name"]
        if name in special:
            values[name] = special[name]
            continue
        key, _, field = name.rpartition(".")
        rec = totals.get(key, [0, 0, 0])
        if field == "calls":
            values[name] = counts.get(key, [0])[0] / count_ops
        elif field == "self_ms":
            values[name] = rec[2] / 1e6 / n_ops
        elif field == "total_ms":
            values[name] = rec[1] / 1e6 / n_ops
        elif field == "us_per_call":
            values[name] = rec[2] / 1e3 / rec[0] if rec[0] else 0.0
        else:
            raise KeyError(f"no rule for per-layer metric {name}")
    return values


def run(workload_name: str, seed: int, seconds: float, trace: bool, spec: dict) -> dict:
    """One benchmark run; returns the result object printed by run.py."""
    workload = WORKLOADS[workload_name]
    cli = load_cli()
    cpus = sorted(os.sched_getaffinity(0))
    pin_to_fastest_cpu(cpus, CALIB_PROBES)
    setup_times, breakdowns = measure_setup(SETUP_RUNS, importtime=trace)
    ref_problems, max_dev = check_reference(cli, workload)
    tracer = Tracer() if trace else None
    phase = timed_phase(cli, workload, seed, seconds, tracer, cpus=cpus)

    problems = ref_problems + phase["problems"]
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    if trace:
        values = layer_metrics(spec["per_layer"], tracer, phase, workload,
                               breakdowns, max_dev)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print(f"# {workload_name}: {len(phase['traced'])} traced ops, "
              f"{len(phase['plain'])} untraced; calls counted over the first "
              f"{TRACE_COUNT_CYCLES * workload.cycle} traced ops")
    else:
        values, pct = end_to_end_metrics(setup_times, phase)
        metrics = {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}
        print(f"# {workload_name}: {len(phase['plain'])} ops "
              f"({workload.op_size}); op_ms_tail is p{pct:.1f}; "
              f"setup over {len(setup_times)} interpreters; op times are "
              f"host-normalised to a {CALIB_REF_MS:g}-ms calibration")
        print(f"# unnormalised: op wall p50 {statistics.median(phase['plain']):.1f} ms; "
              f"host.calib_ms "
              f"{statistics.median(phase['calib']):.3f}; check.max_abs_dev {max_dev:.3g}")
    for name, m in metrics.items():
        print(f"#   {name} = {m['value']:.6g} {m['unit']}")
    return {
        "correct": not problems,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "metrics": metrics,
    }
