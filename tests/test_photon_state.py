import math

import numpy as np
import pytest

from dotcavity.linear_dynamics import DegenerateEigenvalues, beta0, eigen_system
from dotcavity.observables import asymptotic_time, pulse_shape
from dotcavity.oracle import emitted_fraction, generator_matrix
from dotcavity.params import (
    NegativeRate,
    NoEscapeChannel,
    NonFinite,
    ParameterError,
    make_params,
)
from dotcavity.pole_residue import RepeatedPoles
from dotcavity.photon_state import (
    NoInteriorMax,
    PhotonDensityMatrix,
    clenshaw_curtis,
    coincidence_probability,
    dm_eval,
    half_efficiency_time,
    min_eigenvalue_ratio,
    purity,
    purity_grid,
    purity_max_line,
    time_filter,
    trace,
)

from helpers import purity_by_quadrature, purity_mpmath

RESONANT_FILTER = make_params(omega_d=0, omega_c=0, g=1.0, kappa=2.0, gamma=0,
                              gamma_p=0.5)
DETUNED_FILTER = make_params(omega_d=8.0, omega_c=0, g=1.0,
                             kappa=math.sqrt(2) / 50, gamma=0, gamma_p=100.0)
PHYSICAL = make_params(omega_d=600.0, omega_c=0, g=25.0, kappa=150.0, gamma=0,
                       gamma_p=200.0)


# --- kernel -----------------------------------------------------------------


def test_kernel_vanishes_at_origin():
    dm = PhotonDensityMatrix.from_params(RESONANT_FILTER)
    assert abs(dm.eval(0.0, 0.0)) < 1e-12


def test_kernel_diagonal_is_pulse():
    dm = PhotonDensityMatrix.from_params(PHYSICAL)
    us = np.linspace(0.0, 2.0, 40)
    diag = np.asarray(dm.eval(us, us))
    assert np.allclose(diag.imag, 0.0, atol=1e-12)
    assert np.allclose(diag.real, pulse_shape(dm.ps, us), atol=1e-12)


def test_kernel_hermitian():
    dm = PhotonDensityMatrix.from_params(PHYSICAL)
    us = np.linspace(0.0, 1.5, 25)
    grid = dm_eval(dm, us[:, None], us[None, :])
    assert np.allclose(grid, grid.conj().T, atol=1e-13)


def test_kernel_stationary_in_emission_time():
    # values depend only on the retarded coordinates; translating both
    # arguments by the same lab-time offset is the identity by construction,
    # so check the dephasing-free factorized form explicitly instead
    p = make_params(omega_d=600.0, omega_c=0, g=25.0, kappa=150.0, gamma=0,
                    gamma_p=0.0)
    dm = PhotonDensityMatrix.from_params(p)
    es = eigen_system(p)
    for u, up in ((0.3, 0.1), (1.0, 0.25), (0.05, 0.6)):
        expected = p.kappa * beta0(u, es) * np.conj(beta0(up, es))
        expected *= np.exp(-1j * p.frame_shift * (u - up))
        assert abs(dm.eval(u, up) - expected) < 1e-12


def test_kernel_reporting_frame_carrier():
    shifted = make_params(omega_d=1600.0, omega_c=1000.0, g=25.0, kappa=150.0,
                          gamma=0, gamma_p=200.0)
    base = make_params(omega_d=600.0, omega_c=0.0, g=25.0, kappa=150.0,
                       gamma=0, gamma_p=200.0)
    dm_s = PhotonDensityMatrix.from_params(shifted)
    dm_b = PhotonDensityMatrix.from_params(base)
    u, up = 0.7, 0.2
    expected = dm_b.eval(u, up) * np.exp(-1j * 1000.0 * (u - up))
    assert abs(dm_s.eval(u, up) - expected) < 1e-12
    # moduli (hence purity) are frame independent
    assert purity(dm_s) == pytest.approx(purity(dm_b), rel=1e-12)


# --- trace ------------------------------------------------------------------


def test_trace_unity_without_extra_loss():
    for p in (RESONANT_FILTER, DETUNED_FILTER, PHYSICAL):
        dm = PhotonDensityMatrix.from_params(p)
        assert trace(dm) == pytest.approx(1.0, abs=1e-10)


def test_trace_with_loss_matches_ode_emission():
    p = make_params(omega_d=0.0, omega_c=0, g=25.0, kappa=150.0, gamma=30.0,
                    gamma_p=120.0)
    dm = PhotonDensityMatrix.from_params(p)
    horizon = asymptotic_time(dm.ps, folds=40.0)
    ode_value = emitted_fraction(p, horizon)
    assert trace(dm) == pytest.approx(ode_value, abs=1e-8)
    assert trace(dm) < 1.0


def test_no_escape_channel_rejected():
    closed = make_params(omega_d=0, omega_c=0, g=25.0, kappa=0.0, gamma=0.0,
                         gamma_p=10.0)
    with pytest.raises(NoEscapeChannel):
        PhotonDensityMatrix.from_params(closed)


def test_decoupled_emitter_rejected():
    from dotcavity.params import ParameterError

    decoupled = make_params(omega_d=0, omega_c=0, g=0.0, kappa=150.0,
                            gamma=0.0, gamma_p=10.0)
    with pytest.raises(ParameterError):
        PhotonDensityMatrix.from_params(decoupled)


# --- purity -----------------------------------------------------------------


def test_purity_one_without_dephasing():
    p = make_params(omega_d=0, omega_c=0, g=1.0, kappa=2.0, gamma=0, gamma_p=0.0)
    dm = PhotonDensityMatrix.from_params(p)
    assert purity(dm) == pytest.approx(1.0, abs=1e-12)


def test_purity_benchmark_value():
    dm = PhotonDensityMatrix.from_params(RESONANT_FILTER)
    assert purity(dm) == pytest.approx(0.61, abs=0.01)


def test_purity_matches_2d_quadrature():
    dm = PhotonDensityMatrix.from_params(RESONANT_FILTER)
    quad_value = purity_by_quadrature(dm, asymptotic_time(dm.ps), n=700)
    assert purity(dm) == pytest.approx(quad_value, abs=1e-6)


def test_purity_bounded_by_trace_squared():
    for p in (RESONANT_FILTER, DETUNED_FILTER, PHYSICAL):
        dm = PhotonDensityMatrix.from_params(p)
        assert purity(dm) <= trace(dm) ** 2 + 1e-12
        assert purity(dm) > 0.0


# --- batched purity ---------------------------------------------------------


def _scalar_cell(base, kappa, gamma_p):
    """One cell through solve_poles, with the statuses of the batched route."""
    p = make_params(omega_d=base.omega_d, omega_c=base.omega_c, g=base.g,
                    kappa=kappa, gamma=base.gamma, gamma_p=gamma_p)
    try:
        dm = PhotonDensityMatrix.from_params(p)
    except DegenerateEigenvalues:
        return math.nan, "degenerate"
    except RepeatedPoles:
        return math.nan, "repeated-poles"
    value, bound = purity(dm), trace(dm) ** 2
    if not 0.0 <= value <= bound + 1e-6 * max(1.0, bound):
        return math.nan, "ill-conditioned"
    return value, "ok"


@pytest.mark.parametrize(
    "base, kappas, gamma_ps",
    [
        # resonant and 8g-detuned g-unit maps over the default CLI ranges
        (make_params(0, 0, g=1.0, kappa=0), np.geomspace(0.1, 100, 9),
         np.geomspace(0.01, 100, 9)),
        (make_params(8, 0, g=1.0, kappa=0), np.geomspace(0.1, 100, 9),
         np.geomspace(0.01, 100, 9)),
        # extra emitter loss
        (make_params(2, 0, g=1.0, kappa=0, gamma=0.3), np.geomspace(0.1, 100, 7),
         np.geomspace(0.01, 100, 7)),
        # ueV rates with the cavity off zero in the reporting frame
        (make_params(600, -100, g=25.0, kappa=0), np.geomspace(2.5, 2500, 7),
         np.geomspace(0.25, 2500, 7)),
        # within 1e-3 of critical damping kappa = 4g
        (make_params(0, 0, g=1.0, kappa=0),
         4.0 + np.array([-1e-3, -1e-5, 1e-6, 1e-4, 1e-3]),
         np.geomspace(1e-3, 10, 7)),
        # the corner kappa = 8g, gamma_p = 2g sits exactly on the confluence
        (make_params(0, 0, g=1.0, kappa=0), np.geomspace(8, 32, 3),
         np.geomspace(2, 8, 3)),
    ],
    ids=["resonant", "detuned8g", "gamma", "uev-omega_c", "near-4g", "degenerate"],
)
def test_purity_grid_matches_scalar_route(base, kappas, gamma_ps):
    values, statuses = purity_grid(base, kappas[:, None], gamma_ps[None, :])
    assert values.shape == statuses.shape == (len(kappas), len(gamma_ps))
    for i, kappa in enumerate(kappas):
        for j, gp in enumerate(gamma_ps):
            expected, status = _scalar_cell(base, float(kappa), float(gp))
            assert statuses[i, j] == status, (kappa, gp)
            if status == "ok":
                assert abs(values[i, j] - expected) <= 1e-10, (kappa, gp)
            else:
                assert math.isnan(values[i, j])


def test_purity_grid_error_tracks_eigenvector_conditioning():
    """Toward resonant kappa = 4g, gamma_p -> 0 two poles collide: the error
    of an "ok" value stays within 3 eps cond(V)^2 of a 50-digit evaluation,
    and a numerically singular V is flagged."""
    base = make_params(0, 0, g=1.0, kappa=0)
    kappas = 4.0 * (1.0 + np.array([1e-2, 1e-4, 1e-7, 1e-12]))
    gamma_ps = np.array([1e-2, 1e-4, 1e-8, 1e-12, 1e-15])
    values, statuses = purity_grid(base, kappas[:, None], gamma_ps[None, :])
    eps = np.finfo(float).eps
    for i, kappa in enumerate(kappas):
        for j, gp in enumerate(gamma_ps):
            if statuses[i, j] != "ok":
                continue
            p = make_params(0, 0, g=1.0, kappa=float(kappa), gamma_p=float(gp))
            _, vecs = np.linalg.eig(-generator_matrix(p))
            bound = 3.0 * eps * np.linalg.cond(vecs) ** 2 + 1e-12
            assert abs(values[i, j] - purity_mpmath(p)) <= bound, (kappa, gp)
    assert np.all(statuses[:2, :2] == "ok")
    # kappa = 4g (1 + 1e-12), gamma_p = 1e-15 g: cond(V) ~ 1e10
    assert statuses[3, 4] == "repeated-poles"


def test_purity_grid_refuses_invalid_points():
    base = make_params(0, 0, g=1.0, kappa=0)
    with pytest.raises(NegativeRate, match="kappa"):
        purity_grid(base, [1.0, -2.0], 0.5)
    with pytest.raises(NonFinite, match="gamma_p"):
        purity_grid(base, 1.0, [0.5, math.nan])
    with pytest.raises(NoEscapeChannel):
        purity_grid(base, [1.0, 0.0], 0.5)
    with pytest.raises(ParameterError, match="g = 0"):
        purity_grid(make_params(0, 0, g=0.0, kappa=0), 1.0, 0.5)


# --- coincidence ------------------------------------------------------------


def test_coincidence_values():
    assert coincidence_probability(1.0) == 0.0
    assert coincidence_probability(0.61) == pytest.approx(0.195, abs=1e-12)
    ridge = 3.0 - 2.0 * math.sqrt(2.0)
    assert coincidence_probability(ridge) == pytest.approx(
        (1.0 - ridge) / 2.0, abs=1e-12
    )
    with pytest.raises(ValueError):
        coincidence_probability(0.0)
    with pytest.raises(ValueError):
        coincidence_probability(1.5)


# --- ridge search -----------------------------------------------------------


def test_ridge_small_kappa_resonant():
    p = make_params(omega_d=0, omega_c=0, g=1.0, kappa=0.1, gamma=0, gamma_p=1.0)
    gp_star, p_star = purity_max_line(p, 1.0, 500.0)
    target = 3.0 - 2.0 * math.sqrt(2.0)
    location = 2.0 * math.sqrt(2.0) / p.kappa
    assert p_star == pytest.approx(target, rel=0.05)
    assert gp_star == pytest.approx(location, rel=0.05)


def test_ridge_detuned_branches():
    target = 3.0 - 2.0 * math.sqrt(2.0)
    gp_lo, p_lo = purity_max_line(DETUNED_FILTER, 0.05, 8.0)
    gp_hi, p_hi = purity_max_line(DETUNED_FILTER, 8.0, 2000.0)
    assert p_lo == pytest.approx(target, rel=0.05)
    assert p_hi == pytest.approx(target, rel=0.05)
    eps = DETUNED_FILTER.g**2 / DETUNED_FILTER.detuning**2
    assert gp_lo == pytest.approx(DETUNED_FILTER.kappa / (2 * math.sqrt(2) * eps),
                                  rel=0.15)
    assert gp_hi == pytest.approx(2 * math.sqrt(2) / DETUNED_FILTER.kappa, rel=0.05)


def test_ridge_monotone_scan_raises():
    p = make_params(omega_d=0, omega_c=0, g=1.0, kappa=2.0, gamma=0, gamma_p=0.05)
    with pytest.raises(NoInteriorMax):
        purity_max_line(p, 0.001, 0.1)


# --- time filtering ---------------------------------------------------------


def test_filter_longtime_limits():
    dm = PhotonDensityMatrix.from_params(RESONANT_FILTER)
    rep = time_filter(dm, asymptotic_time(dm.ps, folds=60.0))
    assert rep.purity == pytest.approx(purity(dm), abs=1e-6)
    assert rep.efficiency_sq == pytest.approx(trace(dm) ** 2, abs=1e-6)


def test_filter_benchmark_resonant():
    dm = PhotonDensityMatrix.from_params(RESONANT_FILTER)
    t_half = half_efficiency_time(dm)
    assert t_half == pytest.approx(2.0, abs=0.25)  # in tau_g units since g = 1
    rep = time_filter(dm, t_half)
    assert rep.efficiency_sq == pytest.approx(0.5, abs=1e-8)
    assert rep.purity == pytest.approx(0.85, abs=0.02)


def test_filter_benchmark_detuned():
    dm = PhotonDensityMatrix.from_params(DETUNED_FILTER)
    assert purity(dm) == pytest.approx(0.17, abs=0.01)
    rep = time_filter(dm, half_efficiency_time(dm))
    assert rep.purity == pytest.approx(0.28, abs=0.02)


def test_filter_efficiency_monotone():
    dm = PhotonDensityMatrix.from_params(DETUNED_FILTER)
    horizon = asymptotic_time(dm.ps, folds=1.0)
    effs = [time_filter(dm, t).efficiency_sq
            for t in np.linspace(0.05, 3.0, 25) * horizon]
    assert all(b >= a for a, b in zip(effs, effs[1:]))


def test_filter_purity_never_below_asymptote():
    for p in (RESONANT_FILTER, DETUNED_FILTER):
        dm = PhotonDensityMatrix.from_params(p)
        base = purity(dm)
        horizon = asymptotic_time(dm.ps, folds=1.0)
        for t in np.linspace(0.1, 4.0, 16) * horizon:
            assert time_filter(dm, t).purity >= base - 1e-9


def test_filter_pure_state_stays_pure():
    p = make_params(omega_d=0, omega_c=0, g=1.0, kappa=2.0, gamma=0, gamma_p=0.0)
    dm = PhotonDensityMatrix.from_params(p)
    for t in (0.3, 1.0, 5.0, 20.0):
        rep = time_filter(dm, t)
        assert rep.purity == pytest.approx(1.0, abs=1e-10)
        assert rep.purity_normalized == pytest.approx(1.0, abs=1e-10)


def test_filter_conventions_coincide():
    dm = PhotonDensityMatrix.from_params(DETUNED_FILTER)
    for t in (5.0, 20.0, 80.0):
        rep = time_filter(dm, t)
        assert rep.purity == pytest.approx(rep.purity_normalized, rel=1e-12)


def test_filter_matches_windowed_quadrature():
    dm = PhotonDensityMatrix.from_params(RESONANT_FILTER)
    T = 2.0
    nodes, weights = np.polynomial.legendre.leggauss(400)
    us = 0.5 * T * (nodes + 1.0)
    ws = 0.5 * T * weights
    kernel = dm_eval(dm, us[:, None], us[None, :])
    num = float(np.einsum("i,j,ij->", ws, ws, np.abs(kernel) ** 2).real)
    tr = float(np.sum(ws * np.diag(kernel).real))
    rep = time_filter(dm, T)
    assert rep.efficiency_sq == pytest.approx(tr**2, abs=1e-10)
    assert rep.purity == pytest.approx(num / tr**2, abs=1e-9)


def test_half_efficiency_unreachable_with_loss():
    lossy = make_params(omega_d=0, omega_c=0, g=1.0, kappa=0.2, gamma=2.0,
                        gamma_p=0.1)
    dm = PhotonDensityMatrix.from_params(lossy)
    assert trace(dm) ** 2 < 0.5
    with pytest.raises(ValueError):
        half_efficiency_time(dm)


# --- discretized kernel -----------------------------------------------------


def test_clenshaw_curtis_integrates_polynomials():
    nodes, weights = clenshaw_curtis(16, -1.0, 3.0)
    for degree in range(16):
        exact = (3.0 ** (degree + 1) - (-1.0) ** (degree + 1)) / (degree + 1)
        assert np.sum(weights * nodes**degree) == pytest.approx(exact, rel=1e-12)


def test_kernel_positive_semidefinite():
    for p in (RESONANT_FILTER, DETUNED_FILTER, PHYSICAL):
        dm = PhotonDensityMatrix.from_params(p)
        assert min_eigenvalue_ratio(dm, n=64) >= -1e-8
