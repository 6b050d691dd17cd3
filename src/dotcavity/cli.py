"""Command-line front end: single evaluations, grids, sweeps, validation.

Output is figure-ready CSV (one observable per file, `#` header comments,
15 significant digits) or JSON for scalar reports.  All commands are
deterministic: identical configuration produces byte-identical files
regardless of the worker count.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import __version__
from . import pole_residue
from .linear_dynamics import DegenerateEigenvalues, eigen_system
from .observables import (
    asymptotic_time,
    auto_k_range,
    decay_rate,
    mean_energies,
    pulse_shape,
    spectrum,
    spectrum_integrals,
    survival_probability,
)
from .params import ParameterError, SystemParams, make_params
from .photon_state import (
    PhotonDensityMatrix,
    coincidence_probability,
    dm_eval,
    half_efficiency_time,
    purity,
    purity_grid,
    time_filter,
    trace,
)
from .pole_residue import RepeatedPoles
from .validation import run_battery

_FLAG_OF_FIELD = {
    "omega_d": "--omega-d",
    "omega_c": "--omega-c",
    "g": "--g",
    "kappa": "--kappa",
    "gamma": "--gamma",
    "gamma_p": "--gamma-p",
}


class CliError(Exception):
    """Argument-level error; maps to exit code 2."""


def _add_common_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--g", type=float, default=None, help="coupling (ueV)")
    sub.add_argument("--kappa", type=float, default=0.0, help="cavity escape rate")
    sub.add_argument("--gamma", type=float, default=0.0, help="non-cavity decay rate")
    sub.add_argument("--gamma-p", type=float, default=0.0, help="pure dephasing rate")
    sub.add_argument("--omega-d", type=float, default=None, help="emitter frequency")
    sub.add_argument("--omega-c", type=float, default=None, help="cavity frequency")
    sub.add_argument(
        "--detuning", type=float, default=None,
        help="emitter-cavity detuning (cavity at 0)",
    )
    sub.add_argument(
        "--resonant", action="store_true", help="emitter resonant with the cavity"
    )
    sub.add_argument(
        "--units", choices=("uev", "g"), default="uev",
        help="uev: rates in ueV, times in hbar/ueV; g: rates in multiples of "
        "g (g fixed to 1), times in tau_g = hbar/g",
    )
    sub.add_argument("--output", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default=None)
    sub.add_argument(
        "--threads", type=int, default=1,
        help="accepted for compatibility and ignored: every command runs in "
        "one thread and purity-map evaluates its grid in one batched call",
    )


def _resolve_params(args) -> SystemParams:
    if args.units == "g":
        if args.g is not None and args.g != 1.0:
            raise CliError("--g: fixed to 1 in --units g mode (rates are multiples of g)")
        g = 1.0
    else:
        if args.g is None:
            raise CliError("--g: required in ueV mode")
        g = args.g

    explicit = args.omega_d is not None or args.omega_c is not None
    if args.resonant and (explicit or args.detuning is not None):
        raise CliError("--resonant: conflicts with --omega-d/--omega-c/--detuning")
    if args.detuning is not None and explicit:
        raise CliError("--detuning: conflicts with explicit --omega-d/--omega-c")

    if args.resonant:
        omega_d = omega_c = 0.0
    elif args.detuning is not None:
        omega_d, omega_c = args.detuning, 0.0
    elif explicit:
        omega_d = args.omega_d if args.omega_d is not None else 0.0
        omega_c = args.omega_c if args.omega_c is not None else 0.0
    else:
        raise CliError(
            "--resonant: one of --resonant, --detuning, or --omega-d/--omega-c "
            "is required"
        )

    try:
        return make_params(
            omega_d=omega_d, omega_c=omega_c, g=g, kappa=args.kappa,
            gamma=args.gamma, gamma_p=args.gamma_p,
        )
    except ParameterError as exc:
        flag = _FLAG_OF_FIELD.get(exc.field, exc.field)
        raise CliError(f"{flag}: {exc.message}") from exc


def _time_label(args) -> str:
    return "t_over_tau_g" if args.units == "g" else "t"


def _fmt(value: float) -> str:
    return f"{value:.15g}"


def _header(args, params: SystemParams, extra: dict | None = None) -> list[str]:
    lines = [
        f"# tool = dotcavity {__version__}",
        f"# subcommand = {args.subcommand}",
        f"# units = {args.units} (hbar = 1; uev: times in hbar/ueV; "
        "g: rates in multiples of g, times in tau_g = hbar/g)",
        f"# omega_d = {_fmt(params.omega_d)}",
        f"# omega_c = {_fmt(params.omega_c)}",
        f"# g = {_fmt(params.g)}",
        f"# kappa = {_fmt(params.kappa)}",
        f"# gamma = {_fmt(params.gamma)}",
        f"# gamma_p = {_fmt(params.gamma_p)}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"# {key} = {value}")
    return lines


def _emit(args, text: str) -> None:
    if args.output is None:
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_csv(args, params, columns, rows, extra=None) -> None:
    lines = _header(args, params, extra)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    _emit(args, "\n".join(lines) + "\n")


def _emit_json(args, params, payload: dict) -> None:
    doc = {
        "tool": f"dotcavity {__version__}",
        "subcommand": args.subcommand,
        "units": args.units,
        "params": {
            "omega_d": params.omega_d,
            "omega_c": params.omega_c,
            "g": params.g,
            "kappa": params.kappa,
            "gamma": params.gamma,
            "gamma_p": params.gamma_p,
        },
        "results": payload,
    }
    _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _pole_system(params: SystemParams):
    return pole_residue.solve_poles(eigen_system(params), params.gamma_p)


def _auto_span(args, ps) -> float:
    return asymptotic_time(ps)


def cmd_survival(args) -> int:
    params = _resolve_params(args)
    ps = _pole_system(params)
    t_max = _auto_span(args, ps) if args.t_max == "auto" else float(args.t_max)
    grid = np.linspace(0.0, t_max, args.t_points)
    values = survival_probability(ps, grid)
    _emit_csv(
        args, params, [_time_label(args), "survival_probability"],
        list(zip(grid.tolist(), values.tolist())),
    )
    return 0


def cmd_decay_rate(args) -> int:
    params = _resolve_params(args)
    ps = _pole_system(params)
    rate = decay_rate(ps)
    _emit_json(
        args, params,
        {
            "decay_rate": rate,
            "decay_rate_over_g": rate / params.g,
            "decay_time": math.inf if rate == 0.0 else 1.0 / rate,
        },
    )
    return 0


def cmd_pulse(args) -> int:
    params = _resolve_params(args)
    ps = _pole_system(params)
    tau_max = _auto_span(args, ps) if args.tau_max == "auto" else float(args.tau_max)
    grid = np.linspace(0.0, tau_max, args.tau_points)
    values = pulse_shape(ps, grid)
    label = "tau_over_tau_g" if args.units == "g" else "tau"
    _emit_csv(
        args, params, [label, "pulse_intensity"],
        list(zip(grid.tolist(), values.tolist())),
    )
    return 0


def cmd_spectrum(args) -> int:
    params = _resolve_params(args)
    ps = _pole_system(params)
    if args.k_range == "auto":
        k_lo, k_hi = auto_k_range(params)
    else:
        try:
            k_lo, k_hi = (float(x) for x in args.k_range.split(":"))
        except ValueError as exc:
            raise CliError("--k-range: expected 'auto' or 'MIN:MAX'") from exc
    grid = np.linspace(k_lo, k_hi, args.k_points)
    values = np.asarray(spectrum(params, ps, grid))
    integrals = spectrum_integrals(params, ps)
    _emit_csv(
        args, params, ["k", "spectral_density"],
        list(zip(grid.tolist(), values.tolist())),
        extra={
            "spectrum_norm": _fmt(integrals.norm),
            "spectral_width": _fmt(integrals.width),
            "mean_photon_energy": _fmt(integrals.mean),
        },
    )
    return 0


def cmd_energies(args) -> int:
    params = _resolve_params(args)
    report = mean_energies(params)
    _emit_json(
        args, params,
        {"E_p": report.E_p, "E_e": report.E_e, "E_p_plus_E_e": report.E_p + report.E_e},
    )
    return 0


def cmd_density_matrix(args) -> int:
    params = _resolve_params(args)
    dm = PhotonDensityMatrix.from_params(params)
    u_max = _auto_span(args, dm.ps) if args.u_max == "auto" else float(args.u_max)
    grid = np.linspace(0.0, u_max, args.u_points)
    kernel = dm_eval(dm, grid[:, None], grid[None, :])
    label = "u_over_tau_g" if args.units == "g" else "u"
    rows = []
    for i, u in enumerate(grid):
        for j, up in enumerate(grid):
            rows.append((float(u), float(up), float(kernel[i, j].real),
                         float(kernel[i, j].imag)))
    _emit_csv(
        args, params, [label, label.replace("u", "u_prime", 1), "real", "imag"], rows
    )
    return 0


def cmd_purity(args) -> int:
    params = _resolve_params(args)
    dm = PhotonDensityMatrix.from_params(params)
    value = purity(dm)
    _emit_json(
        args, params,
        {
            "purity": value,
            "trace": trace(dm),
            "coincidence_probability": coincidence_probability(value),
            "decay_rate": decay_rate(dm.ps),
        },
    )
    return 0


def cmd_purity_map(args) -> int:
    params = _resolve_params(args)
    for name, count in (
        ("--kappa-points", args.kappa_points),
        ("--gamma-p-points", args.gamma_p_points),
    ):
        if count < 2:
            raise CliError(f"{name}: grid needs at least 2 points")
    kappas = np.geomspace(args.kappa_min, args.kappa_max, args.kappa_points)
    gps = np.geomspace(args.gamma_p_min, args.gamma_p_max, args.gamma_p_points)
    values, statuses = purity_grid(
        params, kappas[:, None] * params.g, gps[None, :] * params.g
    )

    rows = [
        (k, gp, "" if math.isnan(value) else _fmt(value), status)
        for k, value_row, status_row in zip(
            kappas.tolist(), values.tolist(), statuses.tolist()
        )
        for gp, value, status in zip(gps.tolist(), value_row, status_row)
    ]
    _emit_csv(
        args, params, ["kappa_over_g", "gamma_p_over_g", "purity", "status"],
        rows,
        extra={"grid": f"{args.kappa_points}x{args.gamma_p_points} log-log"},
    )
    return 0


def cmd_time_filter(args) -> int:
    params = _resolve_params(args)
    dm = PhotonDensityMatrix.from_params(params)
    t_max = _auto_span(args, dm.ps) if args.T_max == "auto" else float(args.T_max)
    grid = np.linspace(t_max / args.T_points, t_max, args.T_points)
    tau_g = 1.0 / params.g
    rows = []
    for T in grid:
        rep = time_filter(dm, float(T))
        rows.append((float(T) / tau_g, rep.purity, rep.efficiency_sq))
    extra = {}
    try:
        t_half = half_efficiency_time(dm)
        extra["T_half_over_tau_g"] = _fmt(t_half / tau_g)
        extra["purity_at_T_half"] = _fmt(time_filter(dm, t_half).purity)
    except ValueError:
        extra["T_half_over_tau_g"] = "unreachable"
    _emit_csv(
        args, params, ["T_over_tau_g", "purity_T", "efficiency_sq_T"], rows,
        extra=extra,
    )
    return 0


def cmd_validate(args) -> int:
    results = run_battery()
    all_passed = all(r.passed for r in results)
    if args.json:
        doc = {
            "tool": f"dotcavity {__version__}",
            "all_passed": all_passed,
            "checks": [
                {
                    "name": r.name,
                    "passed": r.passed,
                    "expected": r.expected,
                    "got": r.got,
                    "residual": r.residual,
                    "tol": r.tol,
                }
                for r in results
            ],
        }
        _emit(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    else:
        lines = [r.line() for r in results]
        lines.append(
            f"{sum(r.passed for r in results)}/{len(results)} checks passed"
        )
        _emit(args, "\n".join(lines) + "\n")
    return 0 if all_passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dotcavity",
        description="Single-photon emission observables of a dephasing "
        "emitter in a leaky cavity",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("survival", help="emitter survival probability curve")
    _add_common_flags(sub)
    sub.add_argument("--t-max", default="auto")
    sub.add_argument("--t-points", type=int, default=400)
    sub.set_defaults(func=cmd_survival)

    sub = subs.add_parser("decay-rate", help="asymptotic decay rate")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_decay_rate)

    sub = subs.add_parser("pulse", help="emitted pulse intensity profile")
    _add_common_flags(sub)
    sub.add_argument("--tau-max", default="auto")
    sub.add_argument("--tau-points", type=int, default=400)
    sub.set_defaults(func=cmd_pulse)

    sub = subs.add_parser("spectrum", help="emission spectrum")
    _add_common_flags(sub)
    sub.add_argument("--k-range", default="auto", help="'auto' or 'MIN:MAX'")
    sub.add_argument("--k-points", type=int, default=801)
    sub.set_defaults(func=cmd_spectrum)

    sub = subs.add_parser("energies", help="mean photon and environment energies")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_energies)

    sub = subs.add_parser("density-matrix", help="photon kernel on a grid")
    _add_common_flags(sub)
    sub.add_argument("--u-max", default="auto")
    sub.add_argument("--u-points", type=int, default=41)
    sub.set_defaults(func=cmd_density_matrix)

    sub = subs.add_parser("purity", help="photon purity and coincidence probability")
    _add_common_flags(sub)
    sub.set_defaults(func=cmd_purity)

    sub = subs.add_parser("purity-map", help="purity over a (kappa, gamma_p) grid")
    _add_common_flags(sub)
    sub.add_argument("--kappa-min", type=float, default=0.1)
    sub.add_argument("--kappa-max", type=float, default=100.0)
    sub.add_argument("--kappa-points", type=int, default=40)
    sub.add_argument("--gamma-p-min", type=float, default=0.01)
    sub.add_argument("--gamma-p-max", type=float, default=100.0)
    sub.add_argument("--gamma-p-points", type=int, default=40)
    sub.set_defaults(func=cmd_purity_map)

    sub = subs.add_parser("time-filter", help="windowed purity and efficiency")
    _add_common_flags(sub)
    sub.add_argument("--T-max", default="auto")
    sub.add_argument("--T-points", type=int, default=200)
    sub.set_defaults(func=cmd_time_filter)

    sub = subs.add_parser("validate", help="run the built-in check battery")
    _add_common_flags(sub)
    sub.add_argument("--json", action="store_true", help="machine-readable report")
    sub.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ParameterError, DegenerateEigenvalues, RepeatedPoles, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
