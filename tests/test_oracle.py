import math

import numpy as np
import pytest

from dotcavity.linear_dynamics import beta0, decay_pair_poles, eigen_system
from dotcavity.observables import asymptotic_time, pulse_shape, survival_probability
from dotcavity.oracle import (
    StepTooLarge,
    asymptotic_purities,
    default_dt,
    emitted_fraction,
    generator_eigenvalues,
    generator_matrix,
    integrate_master,
    reconstruct_dm,
    reconstruct_dm_grid,
)
from dotcavity.params import make_params
from dotcavity.photon_state import PhotonDensityMatrix, dm_eval, purity
from dotcavity.pole_residue import solve_poles

PHYSICAL = make_params(omega_d=600.0, omega_c=0, g=25.0, kappa=150.0, gamma=0,
                       gamma_p=200.0)


def test_generator_structure():
    gen = generator_matrix(PHYSICAL)
    assert gen.shape == (4, 4)
    assert gen[0, 0] == PHYSICAL.gamma
    assert gen[3, 3] == PHYSICAL.kappa
    halfw = 0.5 * (PHYSICAL.gamma + PHYSICAL.kappa) + PHYSICAL.gamma_p
    assert gen[1, 1] == halfw + 1j * PHYSICAL.detuning
    assert gen[2, 2] == np.conj(gen[1, 1])


def test_decoupled_state_is_stationary():
    p = make_params(omega_d=0, omega_c=0, g=0.0, kappa=150.0, gamma=0.0,
                    gamma_p=0.0)
    states = integrate_master(p, [0.5, 2.0, 9.0])
    for s in states:
        assert s.rho_ss == pytest.approx(1.0, abs=1e-12)
        assert abs(s.rho_aa) < 1e-14


def test_population_only_flows_outward():
    times = np.linspace(0.05, 1.0, 12)
    states = integrate_master(PHYSICAL, times)
    total = np.array([s.rho_ss.real + s.rho_aa.real for s in states])
    assert np.all(np.diff(total) < 0.0)


def test_conjugate_pair_maintained():
    states = integrate_master(PHYSICAL, np.linspace(0.01, 0.8, 20))
    for s in states:
        assert abs(s.rho_as - np.conj(s.rho_sa)) < 1e-12


def test_survival_matches_analytic():
    ps = solve_poles(eigen_system(PHYSICAL), PHYSICAL.gamma_p)
    times = np.linspace(0.02, 1.2, 40)
    states = integrate_master(PHYSICAL, times)
    ode = np.array([s.rho_ss.real for s in states])
    assert np.max(np.abs(ode - survival_probability(ps, times))) < 1e-8


def test_pulse_matches_cavity_population():
    ps = solve_poles(eigen_system(PHYSICAL), PHYSICAL.gamma_p)
    times = np.linspace(0.02, 1.2, 40)
    states = integrate_master(PHYSICAL, times)
    ode = np.array([PHYSICAL.kappa * s.rho_aa.real for s in states])
    assert np.max(np.abs(ode - pulse_shape(ps, times))) < 1e-8


def test_dt_contract_enforced():
    scale = float(np.max(np.abs(generator_matrix(PHYSICAL))))
    with pytest.raises(ValueError):
        integrate_master(PHYSICAL, [0.5], dt=1.0 / scale)


def test_step_halving_guard():
    # weak damping with strong coupling accumulates truncation error over a
    # long horizon, so the contract-limit dt fails the 1e-9 endpoint check
    weak = make_params(omega_d=0.0, omega_c=0, g=25.0, kappa=0.05, gamma=0,
                       gamma_p=0.02)
    scale = float(np.max(np.abs(generator_matrix(weak))))
    with pytest.raises(StepTooLarge):
        integrate_master(weak, [200.0], dt=0.05 / scale)
    # the default dt passes its own check on the same problem
    integrate_master(weak, [200.0])
    assert default_dt(PHYSICAL) <= 0.05 / float(
        np.max(np.abs(generator_matrix(PHYSICAL)))
    )


def test_generator_eigenvalues_no_dephasing_are_pair_sums():
    p = make_params(omega_d=600.0, omega_c=0, g=25.0, kappa=150.0, gamma=0,
                    gamma_p=0.0)
    es = eigen_system(p)
    pairs = decay_pair_poles(es)
    eigs = generator_eigenvalues(p, reference=pairs)
    assert np.max(np.abs(eigs - pairs)) < 1e-10 * max(1.0, np.max(np.abs(pairs)))


def test_generator_eigenvalues_match_poles_on_grid():
    worst = 0.0
    for kappa in np.geomspace(20.0, 600.0, 4):
        for gp in np.geomspace(5.0, 3000.0, 4):
            p = make_params(omega_d=600.0, omega_c=0, g=25.0, kappa=kappa,
                            gamma=0, gamma_p=gp)
            ps = solve_poles(eigen_system(p), gp)
            eigs = generator_eigenvalues(p, reference=ps.poles)
            scale = max(1.0, float(np.max(np.abs(ps.poles))))
            worst = max(worst, float(np.max(np.abs(eigs - ps.poles))) / scale)
            assert np.all(eigs.real < 0.0)
    assert worst <= 1e-10


def test_reconstruction_no_dephasing_closed_form():
    p = make_params(omega_d=600.0, omega_c=0, g=25.0, kappa=150.0, gamma=0,
                    gamma_p=0.0)
    es = eigen_system(p)
    states = integrate_master(p, [0.3])
    for gap in (0.0, 0.2, 0.7):
        got = reconstruct_dm(p, states, 0.3 + gap, 0.3, es=es)
        expected = p.kappa * beta0(0.3 + gap, es) * np.conj(beta0(0.3, es))
        expected *= np.exp(-1j * p.frame_shift * gap)
        assert abs(got - expected) < 1e-9


def test_reconstruction_diagonal_is_cavity_population():
    states = integrate_master(PHYSICAL, [0.4])
    got = reconstruct_dm(PHYSICAL, states, 0.4, 0.4)
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert got.real == pytest.approx(PHYSICAL.kappa * states[0].rho_aa.real,
                                     abs=1e-12)


def test_reconstruction_hermitian_branches():
    states = integrate_master(PHYSICAL, [0.2, 0.6])
    ab = reconstruct_dm(PHYSICAL, states, 0.6, 0.2)
    ba = reconstruct_dm(PHYSICAL, states, 0.2, 0.6)
    assert ab == pytest.approx(np.conj(ba), abs=1e-14)


def test_reconstruction_grid_matches_analytic():
    dm = PhotonDensityMatrix.from_params(PHYSICAL)
    us = np.linspace(0.0, 1.5, 20)
    analytic = dm_eval(dm, us[:, None], us[None, :])
    oracle = reconstruct_dm_grid(PHYSICAL, us)
    assert np.max(np.abs(analytic - oracle)) < 1e-8


@pytest.mark.parametrize("params", [
    make_params(omega_d=0.0, omega_c=0, g=1.0, kappa=2.0, gamma=0,
                gamma_p=math.sqrt(2.0)),
    make_params(omega_d=600.0, omega_c=-50.0, g=25.0, kappa=150.0, gamma=2.0,
                gamma_p=200.0),
], ids=["resonant", "detuned"])
def test_reconstruction_grid_matches_pointwise(params):
    us = np.array([0.0, 0.7, 0.05, 1.3, 0.7, 0.4, 2.0, 0.9])
    grid = reconstruct_dm_grid(params, us)
    states = integrate_master(params, np.sort(us))
    es = eigen_system(params)
    scale = float(np.max(np.abs(grid)))
    for i, u in enumerate(us):
        for j, up in enumerate(us):
            expected = reconstruct_dm(params, states, u, up, es=es)
            assert abs(grid[i, j] - expected) <= 1e-13 * scale


def test_emitted_fraction_conserves_total():
    p = make_params(omega_d=0.0, omega_c=0, g=25.0, kappa=150.0, gamma=0.0,
                    gamma_p=50.0)
    ps = solve_poles(eigen_system(p), 50.0)
    assert emitted_fraction(p, asymptotic_time(ps, folds=40.0)) == pytest.approx(
        1.0, abs=1e-8
    )


# --- limiting-case purity formulas ------------------------------------------


def test_limiting_formula_values():
    g = 1.0
    kappa = g / 30.0
    dw = 30.0 * g
    eps = g**2 / dw**2
    p = make_params(omega_d=dw, omega_c=0, g=g, kappa=kappa, gamma=0,
                    gamma_p=kappa * eps / 2.0)
    forms = asymptotic_purities(p)
    # second spectral-broadening factor is 1/2 exactly at gamma_p = kappa*eps/2
    assert forms["dot_weak_coupling"].value == pytest.approx(
        0.5 * kappa / (2 * p.gamma_p + kappa), rel=1e-12
    )

    p2 = make_params(omega_d=0, omega_c=0, g=g, kappa=60.0, gamma=0,
                     gamma_p=2.0 * g**2 / 60.0)
    assert asymptotic_purities(p2)["dot_large_kappa"].value == pytest.approx(0.5)

    p3 = make_params(omega_d=0, omega_c=0, g=g, kappa=g / 30.0, gamma=0,
                     gamma_p=2.0 * math.sqrt(2.0) * 30.0 * g)
    got = asymptotic_purities(p3)["cav_rate_equation"].value
    assert got == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)


def test_cav_weak_coupling_max_at_lower_branch():
    g, dw = 1.0, 30.0
    eps = g**2 / dw**2
    kappa = g / 10000.0
    gp_star = kappa / (2.0 * math.sqrt(2.0) * eps)
    p = make_params(omega_d=dw, omega_c=0, g=g, kappa=kappa, gamma=0,
                    gamma_p=gp_star)
    value = asymptotic_purities(p)["cav_weak_coupling"].value
    assert value == pytest.approx(3.0 - 2.0 * math.sqrt(2.0), rel=1e-12)
    for factor in (0.7, 1.4):
        other = make_params(omega_d=dw, omega_c=0, g=g, kappa=kappa, gamma=0,
                            gamma_p=factor * gp_star)
        assert asymptotic_purities(other)["cav_weak_coupling"].value < value


def test_resonant_form_half_purity_threshold():
    g = 1.0
    # P >= 1/2 iff kappa >= (1 + sqrt(3)) gamma_p ~= 2.73 gamma_p
    threshold = 1.0 + math.sqrt(3.0)
    for ratio, expect_high in ((1.8, False), (2.72, False), (2.74, True),
                               (4.0, True)):
        gp = 0.01 * g
        p = make_params(omega_d=0, omega_c=0, g=g, kappa=ratio * gp, gamma=0,
                        gamma_p=gp)
        value = asymptotic_purities(p)["resonant_weak_coupling"].value
        assert (value >= 0.5) == expect_high
        assert (ratio >= threshold) == expect_high


def test_limiting_formulas_match_exact_in_regime():
    g = 1.0
    cases = []

    kappa = g / 30.0
    dw = 30.0 * g
    eps = g**2 / dw**2
    cases.append((
        make_params(omega_d=dw, omega_c=0, g=g, kappa=kappa, gamma=0,
                    gamma_p=kappa * eps / 2.0),
        "dot_weak_coupling",
    ))
    cases.append((
        make_params(omega_d=0, omega_c=0, g=g, kappa=60.0 * g, gamma=0,
                    gamma_p=g / 30.0),
        "dot_large_kappa",
    ))
    eps_wide = g**2 / (30.0 * g) ** 2
    kappa_small = g / 10000.0
    cases.append((
        make_params(omega_d=30.0 * g, omega_c=0, g=g, kappa=kappa_small, gamma=0,
                    gamma_p=kappa_small / (2.0 * math.sqrt(2.0) * eps_wide)),
        "cav_weak_coupling",
    ))
    cases.append((
        make_params(omega_d=0, omega_c=0, g=g, kappa=g / 30.0, gamma=0,
                    gamma_p=2.0 * math.sqrt(2.0) * 30.0 * g),
        "cav_rate_equation",
    ))
    cases.append((
        make_params(omega_d=0, omega_c=0, g=g, kappa=g / 30.0, gamma=0,
                    gamma_p=g / 60.0),
        "resonant_weak_coupling",
    ))

    for params, name in cases:
        exact = purity(PhotonDensityMatrix.from_params(params))
        approx = asymptotic_purities(params)[name].value
        if name == "dot_weak_coupling":
            # total purity also carries the (tiny) cavity-line term
            approx += asymptotic_purities(params)["cav_weak_coupling"].value
        assert exact == pytest.approx(approx, rel=0.10), (name, exact, approx)


def test_exact_half_purity_at_high_kappa_line():
    g = 1.0
    p = make_params(omega_d=0, omega_c=0, g=g, kappa=60.0 * g, gamma=0,
                    gamma_p=2.0 * g / 60.0)
    exact = purity(PhotonDensityMatrix.from_params(p))
    assert exact == pytest.approx(0.5, rel=0.02)
