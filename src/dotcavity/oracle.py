"""Independent numerical cross-checks of the analytic residue pipeline.

The one-excitation expectation values (rho_ss, rho_sa, rho_as, rho_aa)
obey a linear equation d/dt v = -G v with a constant 4x4 generator G.
Integrating it with a boring fixed-step classical Runge-Kutta scheme gives
an oracle for the survival probability (rho_ss), the pulse shape
(kappa * rho_aa), the emitted photon kernel (via composition with the
amplitude propagators) and, through its spectrum, the pole locations.

Because G is constant, one RK4 step is multiplication by the fixed matrix
I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24 with A = -G; repeated steps are
applied as matrix powers, which reproduces the sequential fixed-step
result up to float associativity and keeps huge step counts cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .linear_dynamics import EigenSystem, beta0, beta0_tilde, eigen_system
from .params import SystemParams

DT_SAFETY = 0.002
DT_LIMIT = 0.05
HALVING_TOL = 1e-9


class StepTooLarge(RuntimeError):
    """Step-halving self-check failed; the requested dt is too coarse."""


@dataclass(frozen=True)
class OracleState:
    """One sample of the master-equation trajectory."""

    t: float
    rho_ss: complex
    rho_sa: complex
    rho_as: complex
    rho_aa: complex

    @property
    def vector(self) -> np.ndarray:
        return np.array([self.rho_ss, self.rho_sa, self.rho_as, self.rho_aa])


def generator_matrix(params: SystemParams) -> np.ndarray:
    """The 4x4 relaxation generator G, so that d/dt v = -G v."""
    g = params.g
    dw = params.detuning
    halfw = 0.5 * (params.gamma + params.kappa) + params.gamma_p
    return np.array(
        [
            [params.gamma, 1j * g, -1j * g, 0.0],
            [1j * g, halfw + 1j * dw, 0.0, -1j * g],
            [-1j * g, 0.0, halfw - 1j * dw, 1j * g],
            [0.0, -1j * g, 1j * g, params.kappa],
        ],
        dtype=complex,
    )


def _rk4_step_matrix(a: np.ndarray, h: float) -> np.ndarray:
    ha = h * a
    term = np.eye(4, dtype=complex)
    step = np.eye(4, dtype=complex)
    for order in (1.0, 2.0, 3.0, 4.0):
        term = term @ ha / order
        step = step + term
    return step


def default_dt(params: SystemParams) -> float:
    scale = float(np.max(np.abs(generator_matrix(params))))
    if scale == 0.0:
        return 1.0
    return DT_SAFETY / scale


def integrate_master(
    params: SystemParams,
    sample_times,
    dt: float | None = None,
    check_halving: bool = True,
) -> list[OracleState]:
    """Fixed-step RK4 trajectory from (1, 0, 0, 0), sampled at sample_times.

    Each sampling interval is covered by uniform steps no longer than dt
    (default 0.01 / max|G|; an explicit dt must respect 0.05 / max|G|).
    A step-halving self-check on the endpoint guards against a too-coarse
    dt and raises StepTooLarge beyond 1e-9 disagreement.
    """
    a = -generator_matrix(params)
    scale = float(np.max(np.abs(a)))
    if dt is None:
        dt = default_dt(params)
    elif scale > 0.0 and dt > DT_LIMIT / scale:
        raise ValueError(
            f"dt = {dt!r} exceeds the stability contract {DT_LIMIT / scale:.3e}"
        )

    times = [float(t) for t in np.atleast_1d(np.asarray(sample_times, dtype=float))]
    if any(t < 0.0 for t in times):
        raise ValueError("sample times must be >= 0")

    def propagate(step_scale: float) -> list[np.ndarray]:
        v = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
        out = []
        t_prev = 0.0
        for t in times:
            span = t - t_prev
            if span < 0.0:
                raise ValueError("sample times must be non-decreasing")
            if span > 0.0:
                n = max(1, math.ceil(span / (dt * step_scale)))
                step = _rk4_step_matrix(a, span / n)
                v = np.linalg.matrix_power(step, n) @ v
            out.append(v.copy())
            t_prev = t
        return out

    states = propagate(1.0)
    if check_halving and times:
        refined = propagate(0.5)
        drift = float(np.max(np.abs(states[-1] - refined[-1])))
        if drift > HALVING_TOL:
            raise StepTooLarge(
                f"halving the step moved the endpoint by {drift:.3e} > "
                f"{HALVING_TOL:.0e}; decrease dt"
            )

    result = []
    for t, v in zip(times, states):
        conj_drift = abs(v[2] - np.conj(v[1]))
        if conj_drift > 1e-10 * max(1.0, float(np.max(np.abs(v)))):
            raise RuntimeError(
                f"conjugate-pair structure degraded: |rho_as - conj(rho_sa)| "
                f"= {conj_drift:.3e} at t = {t}"
            )
        result.append(
            OracleState(t=t, rho_ss=v[0], rho_sa=v[1], rho_as=v[2], rho_aa=v[3])
        )
    return result


def emitted_fraction(params: SystemParams, t_end: float, dt: float | None = None) -> float:
    """kappa * int_0^t_end rho_aa dt via the same RK4 scheme, augmented.

    The cumulative integral is carried as a fifth component with
    d/dt q = kappa * rho_aa, so it shares the integrator's accuracy.
    """
    a4 = -generator_matrix(params)
    a = np.zeros((5, 5), dtype=complex)
    a[:4, :4] = a4
    a[4, 3] = params.kappa
    scale = float(np.max(np.abs(a)))
    if dt is None:
        dt = DT_SAFETY / scale if scale > 0.0 else 1.0

    v = np.zeros(5, dtype=complex)
    v[0] = 1.0
    n = max(1, math.ceil(t_end / dt))
    h = t_end / n
    ha = h * a
    term = np.eye(5, dtype=complex)
    step = np.eye(5, dtype=complex)
    for order in (1.0, 2.0, 3.0, 4.0):
        term = term @ ha / order
        step = step + term
    v = np.linalg.matrix_power(step, n) @ v
    return float(v[4].real)


def generator_eigenvalues(params: SystemParams, reference: np.ndarray | None = None):
    """Eigenvalues of -G, optionally permuted to match a reference pole set."""
    eigs = np.linalg.eigvals(-generator_matrix(params))
    if reference is None:
        idx = np.lexsort((-eigs.imag, -eigs.real))
        return eigs[idx]
    cost = np.abs(np.asarray(reference)[:, None] - eigs[None, :])
    _, cols = linear_sum_assignment(cost)
    return eigs[cols]


def reconstruct_dm(
    params: SystemParams,
    trajectory: list[OracleState],
    u: float,
    u_prime: float,
    es: EigenSystem | None = None,
) -> complex:
    """Photon kernel value composed from the master-equation trajectory.

    For u >= u' the kernel is kappa * (rho_aa(u') * beta0_tilde(u - u')
    - rho_sa(u') * beta0(u - u')); the u < u' branch follows by Hermitian
    symmetry.  The overall kappa scale and the sign of the coherence term
    are fixed once by the dephasing-free closed form
    kappa * beta0(u) * conj(beta0(u')) and by the trace identity.
    The trajectory must contain a sample at min(u, u').
    """
    if es is None:
        es = eigen_system(params)
    if u < u_prime:
        return complex(np.conj(reconstruct_dm(params, trajectory, u_prime, u, es)))

    lo, gap = u_prime, u - u_prime
    state = None
    for s in trajectory:
        if abs(s.t - lo) <= 1e-12 * max(1.0, lo):
            state = s
            break
    if state is None:
        raise ValueError(f"trajectory has no sample at t = {lo!r}")

    value = params.kappa * (
        state.rho_aa * beta0_tilde(gap, es) - state.rho_sa * beta0(gap, es)
    )
    if params.frame_shift != 0.0:
        value = value * np.exp(-1j * params.frame_shift * gap)
    return complex(value)


def reconstruct_dm_grid(params: SystemParams, u_values) -> np.ndarray:
    """Kernel matrix on a grid of retarded coordinates, oracle route.

    The same composition as `reconstruct_dm`, evaluated for all pairs at
    once: the lower triangle u_i >= u_j from the trajectory at u_j and the
    amplitude propagators at u_i - u_j, the upper one by Hermitian mirror.
    """
    u_values = np.asarray(u_values, dtype=float)
    order = np.argsort(u_values)
    es = eigen_system(params)
    trajectory = integrate_master(params, u_values[order])
    rho_sa = np.empty(len(u_values), dtype=complex)
    rho_aa = np.empty(len(u_values), dtype=complex)
    rho_sa[order] = [s.rho_sa for s in trajectory]
    rho_aa[order] = [s.rho_aa for s in trajectory]

    lower = u_values[:, None] >= u_values[None, :]
    gap = np.where(lower, u_values[:, None] - u_values[None, :], 0.0)
    value = params.kappa * (
        rho_aa[None, :] * beta0_tilde(gap, es) - rho_sa[None, :] * beta0(gap, es)
    )
    if params.frame_shift != 0.0:
        value = value * np.exp(-1j * params.frame_shift * gap)
    return np.where(lower, value, np.conj(value.T))


@dataclass(frozen=True)
class LimitingPurity:
    """One closed-form limiting value plus the regime it assumes."""

    name: str
    value: float
    assumes: str


def asymptotic_purities(params: SystemParams) -> dict[str, LimitingPurity]:
    """All five limiting-case purity formulas, evaluated verbatim.

    Each entry notes the inequality regime in which it approximates the
    exact purity; the caller picks the entry matching their parameters.
    """
    g, kappa, gp = params.g, params.kappa, params.gamma_p
    dw = abs(params.detuning)
    eps = g**2 / dw**2 if dw > 0.0 else math.inf

    out = {}
    if math.isfinite(eps):
        out["dot_weak_coupling"] = LimitingPurity(
            name="dot_weak_coupling",
            value=(kappa / (2.0 * gp + kappa))
            * (kappa * eps / (2.0 * gp + kappa * eps)),
            assumes="gamma_p, kappa << g << |detuning|",
        )
        out["cav_weak_coupling"] = LimitingPurity(
            name="cav_weak_coupling",
            value=2.0 * gp * eps * kappa
            / ((kappa + 2.0 * gp * eps) * (kappa + 4.0 * gp * eps)),
            assumes="gamma_p, kappa << g << |detuning|",
        )
    out["dot_large_kappa"] = LimitingPurity(
        name="dot_large_kappa",
        value=2.0 * g**2 / (2.0 * g**2 + gp * kappa),
        assumes="gamma_p << g << kappa and kappa >> |detuning|",
    )
    rate = 2.0 * g**2 / gp if gp > 0.0 else math.inf
    out["cav_rate_equation"] = LimitingPurity(
        name="cav_rate_equation",
        value=(
            kappa * rate / ((kappa + 2.0 * rate) * (kappa + rate))
            if math.isfinite(rate)
            else 0.0
        ),
        assumes="kappa << g << gamma_p",
    )
    out["resonant_weak_coupling"] = LimitingPurity(
        name="resonant_weak_coupling",
        value=kappa * (2.0 * kappa + gp)
        / (2.0 * (kappa + gp) * (kappa + 2.0 * gp)),
        assumes="gamma_p, kappa << g, detuning = 0",
    )
    return out
