"""Seeded workloads: the CLI calls that make up one op, and output checks.

An op is a list of argv lists handed to `dotcavity.cli.main`.  Op `i` of
workload `w` under seed `s` draws its working points from
`random.Random(f"{w}:{s}:{i}")`, so inputs are reproducible from the seed,
addressable by index, and distinct from op to op (no cross-op cache can
turn a run into repeats).

Each `check_*` function takes the op's [(exit_code, stdout), ...] and
returns (problems, values): a list of violated invariants (empty when the
op is correct) and a flat {name: float} of the numbers that are compared
against `reference.json` when the op is a reference op.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import Callable

DEFAULT_SEED = 0          # the seed whose reference ops are in reference.json
GRID_POINTS = 16          # 16 x 16 = 256 cells per purity-map op
GRID_THREADS = 2          # exercises purity-map's thread-pool path
REF_STRIDE_ROWS = 50      # at most this many rows per curve go into the reference


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(math.log10(lo), math.log10(hi))


# -- argv generation -------------------------------------------------------


def grid_op(seed: int, index: int, points: int = GRID_POINTS) -> list[list[str]]:
    """One g-unit log-log purity map; even ops resonant, odd ops detuned 2-10 g.

    Resonant maps keep kappa/g below 3.5: kappa = 4g is the documented
    critical-damping confluence, refused by the program by design.
    """
    rng = _rng("grid", seed, index)
    if index % 2 == 0:
        freq = ["--resonant"]
        kappa_max = rng.uniform(2.0, 3.5)
    else:
        freq = ["--detuning", repr(rng.uniform(2.0, 10.0))]
        kappa_max = _log_uniform(rng, 20.0, 100.0)
    return [[
        "purity-map", "--units", "g", *freq,
        "--kappa-min", repr(_log_uniform(rng, 0.05, 0.3)),
        "--kappa-max", repr(kappa_max),
        "--kappa-points", str(points),
        "--gamma-p-min", repr(_log_uniform(rng, 0.005, 0.05)),
        "--gamma-p-max", repr(_log_uniform(rng, 30.0, 200.0)),
        "--gamma-p-points", str(points),
        "--threads", str(GRID_THREADS),
    ]]


def curves_op(seed: int, index: int) -> list[list[str]]:
    """The figure set of one scenario: 17 CLI calls.

    ueV point: g = 25, kappa 60-300, detuning 100-800 (away from the
    resonant kappa = 4g confluence); survival, pulse and spectrum at four
    dephasing rates 5-5000, then decay-rate and energies.  g-unit point:
    time-filter, density-matrix and purity.
    """
    rng = _rng("curves", seed, index)
    uev = ["--g", "25", "--kappa", repr(_log_uniform(rng, 60.0, 300.0)),
           "--detuning", repr(rng.uniform(100.0, 800.0))]
    rates = sorted(_log_uniform(rng, 5.0, 5000.0) for _ in range(4))
    calls = []
    for gp in rates:
        for cmd in ("survival", "pulse", "spectrum"):
            calls.append([cmd, *uev, "--gamma-p", repr(gp)])
    calls.append(["decay-rate", *uev, "--gamma-p", repr(rates[1])])
    calls.append(["energies", *uev, "--gamma-p", repr(rates[1])])
    gunit = ["--units", "g", "--kappa", repr(_log_uniform(rng, 0.5, 3.0)),
             "--gamma-p", repr(_log_uniform(rng, 0.1, 2.0)),
             "--detuning", repr(rng.uniform(0.0, 2.0))]
    for cmd in ("time-filter", "density-matrix", "purity"):
        calls.append([cmd, *gunit])
    return calls


def validate_op(seed: int, index: int) -> list[list[str]]:
    """The built-in check battery; its input is fixed, the seed is unused."""
    return [["validate", "--json"]]


# -- output parsing --------------------------------------------------------


def _csv(text: str) -> tuple[dict[str, str], list[str], list[list[str]]]:
    header, rows, columns = {}, [], None
    for line in text.splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns or [], rows


def _stride(n: int) -> int:
    return max(1, math.ceil(n / REF_STRIDE_ROWS))


def _exit_problems(outputs) -> list[str]:
    return [f"call {i}: exit code {rc}" for i, (rc, _) in enumerate(outputs) if rc != 0]


# -- checks ----------------------------------------------------------------


def check_grid(argvs, outputs):
    problems = _exit_problems(outputs)
    if problems:
        return problems, {}
    argv = argvs[0]
    cells = int(argv[argv.index("--kappa-points") + 1]) * int(
        argv[argv.index("--gamma-p-points") + 1])
    _, columns, rows = _csv(outputs[0][1])
    values = {}
    if columns != ["kappa_over_g", "gamma_p_over_g", "purity", "status"]:
        problems.append(f"unexpected columns {columns}")
    if len(rows) != cells:
        problems.append(f"{len(rows)} rows for {cells} cells")
    for i, row in enumerate(rows):
        if row[3] != "ok":
            problems.append(f"cell {i}: status {row[3]}")
            continue
        p = float(row[2])
        # gamma = 0 on every map, so Tr rho = 1 and the bound trace^2 is 1
        if not 0.0 < p <= 1.0 + 1e-9:
            problems.append(f"cell {i}: purity {p} outside (0, trace^2 = 1]")
        values[f"purity[{i}]"] = p
    return problems, values


def check_curves(argvs, outputs):
    problems = _exit_problems(outputs)
    if problems:
        return problems, {}
    values = {}
    for n, (argv, (_, text)) in enumerate(zip(argvs, outputs)):
        cmd = argv[0]
        tag = f"{n}:{cmd}"
        if cmd in ("decay-rate", "energies", "purity"):
            res = json.loads(text)["results"]
            for key, v in res.items():
                values[f"{tag}.{key}"] = float(v)
            if cmd == "decay-rate" and not res["decay_rate"] > 0.0:
                problems.append(f"{tag}: decay rate {res['decay_rate']}")
            if cmd == "energies":
                dw = float(argv[argv.index("--detuning") + 1])
                if abs(res["E_p_plus_E_e"] - dw) > 1e-6 * max(1.0, dw):
                    problems.append(f"{tag}: E_p + E_e = {res['E_p_plus_E_e']} != {dw}")
            if cmd == "purity" and not (
                0.0 < res["purity"] <= res["trace"] ** 2 + 1e-12
                and abs(res["trace"] - 1.0) < 1e-9
            ):
                problems.append(f"{tag}: purity {res['purity']} trace {res['trace']}")
            continue

        header, _, rows = _csv(text)
        cols = [[float(x) for x in col] for col in zip(*rows)] if rows else []
        if not cols or not all(math.isfinite(x) for col in cols for x in col):
            problems.append(f"{tag}: empty or non-finite output")
            continue
        if cmd == "survival":
            if abs(cols[1][0] - 1.0) > 1e-9 or not all(
                    -1e-9 <= x <= 1.0 + 1e-9 for x in cols[1]):
                problems.append(f"{tag}: survival outside [0, 1] or P(0) != 1")
        elif cmd == "pulse":
            if min(cols[1]) < 0.0:
                problems.append(f"{tag}: negative pulse intensity")
        elif cmd == "spectrum":
            norm = float(header["spectrum_norm"])
            if min(cols[1]) < 0.0 or abs(norm - 1.0) > 1e-6:
                problems.append(f"{tag}: spectrum negative or norm {norm} != 1")
            for key in ("spectrum_norm", "spectral_width", "mean_photon_energy"):
                values[f"{tag}.{key}"] = float(header[key])
        elif cmd == "time-filter":
            if not all(0.0 <= x <= 1.0 + 1e-9 for col in cols[1:] for x in col):
                problems.append(f"{tag}: purity_T or efficiency_sq_T outside [0, 1]")
            for key in ("T_half_over_tau_g", "purity_at_T_half"):
                values[f"{tag}.{key}"] = float(header[key])
        elif cmd == "density-matrix":
            side = math.isqrt(len(rows))
            re, im = cols[2], cols[3]
            scale = max(abs(x) for x in re)
            for i in range(side):
                if re[i * side + i] < -1e-10 * scale:
                    problems.append(f"{tag}: negative diagonal at {i}")
                for j in range(i):
                    a, b = i * side + j, j * side + i
                    if abs(re[a] - re[b]) + abs(im[a] + im[b]) > 1e-9 * scale:
                        problems.append(f"{tag}: not Hermitian at ({i}, {j})")
                        break
        step = _stride(len(rows))
        for c, col in enumerate(cols[1:] if cmd != "density-matrix" else cols[2:]):
            for r in range(0, len(col), step):
                values[f"{tag}.c{c}[{r}]"] = col[r]
    return problems, values


def check_validate(argvs, outputs):
    rc, text = outputs[0]
    problems = [] if rc == 0 else [f"exit code {rc}"]
    doc = json.loads(text)
    checks = doc["checks"]
    if not doc["all_passed"] or not all(c["passed"] for c in checks):
        problems.append("validate: not all checks passed")
    if len(checks) < 93:
        problems.append(f"validate: {len(checks)} checks < 93")
    values = {}
    for c in checks:
        # purity and ridge checks carry |got - expected| of physical values
        if c["name"].startswith(("benchmark_", "ridge_")):
            values[c["name"]] = float(c["residual"])
        else:
            values[c["name"]] = None   # must be present and pass; no value
    return problems, values


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[int, int], list[list[str]]]   # (seed, op index) -> argvs
    check: Callable                                   # (argvs, outputs) -> (problems, values)
    cycle: int                  # ops in one balanced cycle
    reference_ops: tuple        # op indices of seed 0 kept in reference.json
    op_size: str
    threads: int = 1            # worker threads the op asks for


WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid", grid_op, check_grid, cycle=2, reference_ops=(0, 1),
                 op_size=f"one {GRID_POINTS}x{GRID_POINTS} purity-map",
                 threads=GRID_THREADS),
        Workload("curves", curves_op, check_curves, cycle=1, reference_ops=(0,),
                 op_size="17 CLI calls: one scenario's figure set"),
        Workload("validate", validate_op, check_validate, cycle=1,
                 reference_ops=(0,), op_size="one validate --json"),
    )
}
