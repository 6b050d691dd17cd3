import json
import math

import numpy as np
import pytest

from dotcavity import pole_residue
from dotcavity.cli import main


def _read(path):
    return path.read_text(encoding="utf-8")


def _data_rows(text):
    rows = [l for l in text.splitlines() if l and not l.startswith("#")]
    return rows[0].split(","), [r.split(",") for r in rows[1:]]


def test_survival_csv(tmp_path):
    out = tmp_path / "survival.csv"
    code = main([
        "survival", "--g", "25", "--kappa", "150", "--gamma-p", "0",
        "--resonant", "--t-max", "auto", "--output", str(out),
    ])
    assert code == 0
    text = _read(out)
    assert text.startswith("# tool = dotcavity")
    assert "# kappa = 150" in text
    header, rows = _data_rows(text)
    assert header == ["t", "survival_probability"]
    values = [float(r[1]) for r in rows]
    assert values[0] == pytest.approx(1.0)
    assert values[-1] < 1e-6
    assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_spectrum_peak_and_header(tmp_path):
    out = tmp_path / "spectrum.csv"
    code = main([
        "spectrum", "--g", "25", "--kappa", "150", "--gamma-p", "200",
        "--detuning", "600", "--k-range", "auto", "--k-points", "4801",
        "--output", str(out),
    ])
    assert code == 0
    header, rows = _data_rows(_read(out))
    ks = np.array([float(r[0]) for r in rows])
    vals = np.array([float(r[1]) for r in rows])
    # cavity peak dominates for gamma_p > kappa; cavity sits at 0, emitter
    # at 600 (the exact lineshape pulls the maximum a few ueV inward)
    assert abs(ks[np.argmax(vals)]) < 0.05 * 600.0
    # 15 significant digits in the data rows
    assert any(len(r[1].split(".")[-1]) >= 10 for r in rows)


def test_energies_json():
    import io
    import contextlib

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main([
            "energies", "--g", "25", "--kappa", "150", "--gamma-p", "200",
            "--detuning", "600",
        ])
    assert code == 0
    doc = json.loads(buf.getvalue())
    res = doc["results"]
    assert res["E_p"] + res["E_e"] == pytest.approx(600.0, abs=1e-9)


def test_purity_json_g_units(tmp_path):
    out = tmp_path / "purity.json"
    code = main([
        "purity", "--units", "g", "--kappa", "2", "--gamma-p", "0.5",
        "--resonant", "--output", str(out),
    ])
    assert code == 0
    doc = json.loads(_read(out))
    assert doc["results"]["purity"] == pytest.approx(0.61, abs=0.01)
    assert doc["results"]["coincidence_probability"] == pytest.approx(
        (1 - doc["results"]["purity"]) / 2, abs=1e-12
    )


def test_time_filter_summary(tmp_path):
    out = tmp_path / "filter.csv"
    code = main([
        "time-filter", "--units", "g", "--kappa", "2", "--gamma-p", "0.5",
        "--resonant", "--T-points", "40", "--output", str(out),
    ])
    assert code == 0
    text = _read(out)
    t_half = None
    p_half = None
    for line in text.splitlines():
        if line.startswith("# T_half_over_tau_g"):
            t_half = float(line.split("=")[1])
        if line.startswith("# purity_at_T_half"):
            p_half = float(line.split("=")[1])
    assert t_half == pytest.approx(2.0, abs=0.25)
    assert p_half == pytest.approx(0.85, abs=0.02)
    header, rows = _data_rows(text)
    assert header == ["T_over_tau_g", "purity_T", "efficiency_sq_T"]
    effs = [float(r[2]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(effs, effs[1:]))


def test_purity_map_degenerate_status(tmp_path):
    out = tmp_path / "map.csv"
    # the grid corner sits at kappa = 8g, gamma_p = 2g exactly, which is
    # critical damping (|kappa/2 - gamma_p| = 2g); the run must continue
    # (grid endpoints are exact, interior log-grid points are not)
    code = main([
        "purity-map", "--units", "g", "--resonant",
        "--kappa-min", "8", "--kappa-max", "32", "--kappa-points", "3",
        "--gamma-p-min", "2", "--gamma-p-max", "8",
        "--gamma-p-points", "3", "--output", str(out),
    ])
    assert code == 0
    header, rows = _data_rows(_read(out))
    assert header == ["kappa_over_g", "gamma_p_over_g", "purity", "status"]
    by_point = {(r[0], r[1]): r for r in rows}
    degenerate = by_point[("8", "2")]
    assert degenerate[3] == "degenerate"
    assert degenerate[2] == ""
    assert sum(1 for r in rows if r[3] == "ok") >= 7


def test_purity_map_detuned_narrower_high_purity_region(tmp_path):
    out_res = tmp_path / "res.csv"
    out_det = tmp_path / "det.csv"
    grid = [
        "--kappa-min", "0.2", "--kappa-max", "20", "--kappa-points", "12",
        "--gamma-p-min", "0.01", "--gamma-p-max", "10", "--gamma-p-points", "12",
    ]
    assert main(["purity-map", "--units", "g", "--resonant", *grid,
                 "--output", str(out_res)]) == 0
    assert main(["purity-map", "--units", "g", "--detuning", "8", *grid,
                 "--output", str(out_det)]) == 0

    def high_count(path):
        _, rows = _data_rows(_read(path))
        return sum(1 for r in rows if r[2] and float(r[2]) > 0.9)

    assert high_count(out_det) < high_count(out_res)


def test_purity_map_structure_resonant(tmp_path):
    out = tmp_path / "map40.csv"
    code = main([
        "purity-map", "--units", "g", "--resonant", "--threads", "4",
        "--kappa-min", "0.1", "--kappa-max", "100", "--kappa-points", "40",
        "--gamma-p-min", "0.01", "--gamma-p-max", "100",
        "--gamma-p-points", "40", "--output", str(out),
    ])
    assert code == 0
    _, rows = _data_rows(_read(out))
    cells = [
        (float(r[0]), float(r[1]), float(r[2])) for r in rows if r[3] == "ok"
    ]
    high = [(k, gp) for k, gp, p in cells if p > 0.9]
    assert high
    # the high-purity region sits below gamma_p = min(kappa/2, 2 g^2/kappa)
    for k, gp in high:
        assert gp < min(k / 2.0, 2.0 / k)
    # the secondary ridge is visible in the small-kappa columns: a local
    # maximum close to 3 - 2 sqrt(2) near gamma_p = 2 sqrt(2) g^2 / kappa,
    # well past the dip that separates it from the high-purity region
    k_min = min(k for k, _, _ in cells)
    column = sorted((gp, p) for k, gp, p in cells if k == k_min)
    ridge_gp = 2.0 * math.sqrt(2.0) / k_min
    local_maxima = [
        (gp, p)
        for (gl, pl), (gp, p), (gr, pr) in zip(column, column[1:], column[2:])
        if p >= pl and p >= pr and gp > 1.0
    ]
    assert local_maxima
    best_gp, best_p = max(local_maxima, key=lambda t: t[1])
    assert best_p == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=0.1)
    assert best_gp == pytest.approx(ridge_gp, rel=0.5)


def test_purity_map_invalid_parameters_exit_2(capsys):
    small = ["--kappa-points", "3", "--gamma-p-points", "3"]
    assert main(["purity-map", "--g", "0", "--resonant", *small]) == 2
    assert "g: no photon reaches the output mode" in capsys.readouterr().err
    assert main(["purity-map", "--g", "1", "--resonant", "--kappa-min", "0",
                 *small]) == 2
    assert "error:" in capsys.readouterr().err
    assert main(["purity-map", "--g", "1", "--resonant", "--kappa-min", "-1",
                 "--kappa-max", "-5", *small]) == 2
    assert "kappa: must be >= 0, got -1.0" in capsys.readouterr().err
    assert main(["purity-map", "--units", "g", "--resonant", "--gamma-p-min",
                 "-1", "--gamma-p-max", "-5", *small]) == 2
    assert "gamma_p: must be >= 0, got -1.0" in capsys.readouterr().err


def test_purity_map_small_dephasing_is_linear(tmp_path):
    """1 - P grows linearly in gamma_p from 0; no jump where solve_poles
    switches to its gamma_p = 0 tables (gamma_p < 1e-6 max(g, kappa))."""
    out = tmp_path / "small.csv"
    assert main([
        "purity-map", "--units", "g", "--detuning", "8",
        "--kappa-min", "0.05", "--kappa-max", "0.05", "--kappa-points", "2",
        "--gamma-p-min", "1e-8", "--gamma-p-max", "2e-6",
        "--gamma-p-points", "9", "--output", str(out),
    ]) == 0
    _, rows = _data_rows(_read(out))
    assert all(r[3] == "ok" for r in rows)
    slopes = [(1.0 - float(r[2])) / float(r[1]) for r in rows]
    assert max(slopes) <= 1.01 * min(slopes)


def test_determinism_across_threads(tmp_path):
    base = [
        "purity-map", "--units", "g", "--resonant",
        "--kappa-min", "0.5", "--kappa-max", "8", "--kappa-points", "7",
        "--gamma-p-min", "0.05", "--gamma-p-max", "5", "--gamma-p-points", "7",
    ]
    out1 = tmp_path / "t1.csv"
    out4 = tmp_path / "t4.csv"
    assert main([*base, "--threads", "1", "--output", str(out1)]) == 0
    assert main([*base, "--threads", "4", "--output", str(out4)]) == 0
    assert out1.read_bytes() == out4.read_bytes()


def test_determinism_of_curves(tmp_path):
    for cmd in (
        ["survival", "--g", "25", "--kappa", "150", "--gamma-p", "200",
         "--detuning", "600"],
        ["pulse", "--g", "25", "--kappa", "150", "--gamma-p", "50",
         "--resonant"],
        ["spectrum", "--g", "25", "--kappa", "150", "--gamma-p", "200",
         "--detuning", "600", "--k-points", "201"],
        ["density-matrix", "--units", "g", "--kappa", "2", "--gamma-p", "0.5",
         "--resonant", "--u-points", "11"],
    ):
        a = tmp_path / "a.out"
        b = tmp_path / "b.out"
        assert main([*cmd, "--threads", "1", "--output", str(a)]) == 0
        assert main([*cmd, "--threads", "3", "--output", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_argument_errors_exit_2(capsys):
    assert main(["survival", "--g", "-1", "--kappa", "150", "--resonant"]) == 2
    assert "--g" in capsys.readouterr().err
    assert main(["survival", "--kappa", "150", "--resonant"]) == 2  # no --g
    assert main(["survival", "--g", "25", "--kappa", "150"]) == 2  # no freq
    assert main(["survival", "--g", "25", "--kappa", "150", "--resonant",
                 "--detuning", "5"]) == 2
    assert main(["purity-map", "--units", "g", "--resonant",
                 "--kappa-points", "1"]) == 2
    # critical damping surfaces as an error, not a crash
    assert main(["purity", "--units", "g", "--kappa", "4", "--resonant"]) == 2


def test_validate_passes(tmp_path):
    out = tmp_path / "report.json"
    code = main(["validate", "--resonant", "--json", "--output", str(out)])
    assert code == 0
    doc = json.loads(_read(out))
    assert doc["all_passed"] is True
    assert len(doc["checks"]) > 50
    names = {c["name"] for c in doc["checks"]}
    assert any("kernel_vs_ode" in n for n in names)
    assert all("residual" in c and "tol" in c for c in doc["checks"])


def test_validate_catches_kernel_sign_mutation(tmp_path, monkeypatch, capsys):
    real_solve = pole_residue.solve_poles

    def mutated(es, gamma_p):
        ps = real_solve(es, gamma_p)
        bad = ps.kernel_weights.copy()
        bad[0, :] = -bad[0, :]
        return pole_residue.PoleSystem(
            poles=ps.poles,
            survival_weights=ps.survival_weights,
            pulse_weights=ps.pulse_weights,
            kernel_weights=bad,
            eigen=ps.eigen,
            gamma_p=ps.gamma_p,
            bypass=ps.bypass,
            pinned=ps.pinned,
            snapped=ps.snapped,
        )

    monkeypatch.setattr(pole_residue, "solve_poles", mutated)
    code = main(["validate", "--resonant"])
    assert code == 1
    text = capsys.readouterr().out
    failing = [l for l in text.splitlines() if l.startswith("[FAIL]")]
    assert any("kernel_vs_ode" in l for l in failing)
