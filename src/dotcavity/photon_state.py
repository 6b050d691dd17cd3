"""Real-space density matrix of the emitted photon and its functionals.

In the long-time limit the photon state depends only on the retarded
coordinates u = t - r and u' = t - r', with kernel

    rho(u, u') = sum_{j,m} w_jm exp(lambda_m (u - u') + mu_j u')   (u >= u')

extended Hermitianly to u < u'.  All functionals below (trace, purity,
window-filtered purity and efficiency) have closed forms in the residue
tables; grid evaluation is only used for property checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linear_dynamics import _amplitude_weights, _eigenvalue_pair, eigen_system
from .params import ParameterError, SystemParams, make_params
from .pole_residue import REPEATED_RTOL, PoleSystem, solve_poles
from .observables import decay_rate, asymptotic_time


class NoInteriorMax(RuntimeError):
    """Purity scan was monotone; no interior ridge point to refine."""


def _require_photon(params: SystemParams) -> None:
    """Refuse parameter sets that emit no photon into the output mode."""
    if params.g_zero:
        raise ParameterError(
            "g", "no photon reaches the output mode in the decoupled "
            "g = 0 limit"
        )
    params.require_escape_channel()


@dataclass(frozen=True)
class PhotonDensityMatrix:
    """Evaluator for the emitted photon's two-point kernel.

    `carrier` is the reporting-frame cavity frequency; the kernel picks up
    the travelling phase exp(-i * carrier * (u - u')) relative to the
    internal cavity-frame tables.
    """

    ps: PoleSystem
    carrier: float

    @classmethod
    def from_params(cls, params: SystemParams) -> "PhotonDensityMatrix":
        _require_photon(params)
        es = eigen_system(params)
        return cls(ps=solve_poles(es, params.gamma_p), carrier=params.frame_shift)

    @property
    def params(self) -> SystemParams:
        return self.ps.params

    def eval(self, u, u_prime):
        """Kernel value(s) at retarded coordinates u, u' >= 0."""
        return dm_eval(self, u, u_prime)

    def trace(self) -> float:
        return trace(self)

    def purity(self) -> float:
        return purity(self)


def dm_eval(dm: PhotonDensityMatrix, u, u_prime):
    """Hermitian kernel evaluation, broadcasting over array arguments."""
    u_arr, up_arr = np.broadcast_arrays(
        np.asarray(u, dtype=float), np.asarray(u_prime, dtype=float)
    )
    if np.any(u_arr < 0.0) or np.any(up_arr < 0.0):
        raise ValueError("retarded coordinates must be >= 0")
    lo = np.minimum(u_arr, up_arr)
    diff = np.abs(u_arr - up_arr)

    ps = dm.ps
    lam = ps.eigen.lambdas
    flat_lo = lo.reshape(-1)
    flat_diff = diff.reshape(-1)
    exp_mu_lo = np.exp(np.multiply.outer(ps.poles, flat_lo))
    values = np.zeros(flat_lo.shape, dtype=complex)
    for m in range(2):
        values += np.exp(lam[m] * flat_diff) * (ps.kernel_weights[:, m] @ exp_mu_lo)
    values = values.reshape(lo.shape)

    values = np.where(u_arr >= up_arr, values, np.conj(values))
    if dm.carrier != 0.0:
        values = values * np.exp(-1j * dm.carrier * (u_arr - up_arr))
    if values.ndim == 0:
        return complex(values)
    return values


def trace(dm: PhotonDensityMatrix) -> float:
    """Emitted fraction: closed form sum_j f_j / (-mu_j); 1 when gamma = 0."""
    ps = dm.ps
    value = np.sum(ps.pulse_weights / (-ps.poles))
    return float(value.real)


def _pair_denominators(ps: PoleSystem):
    mu = ps.poles
    lam = ps.eigen.lambdas
    mu_pairs = mu[:, None] + np.conj(mu)[None, :]          # (j, j')
    lam_pairs = lam[:, None] + np.conj(lam)[None, :]       # (m, m')
    return mu_pairs, lam_pairs


def purity(dm: PhotonDensityMatrix) -> float:
    """Tr(rho^2) of the unnormalized kernel, in closed form.

    Double residue sum 2 w_jm conj(w_j'm') / ((mu_j + conj(mu_j')) *
    (lambda_m + conj(lambda_m'))).
    """
    ps = dm.ps
    w = ps.kernel_weights
    mu_pairs, lam_pairs = _pair_denominators(ps)
    cross = np.einsum("jm,kn->jkmn", w, np.conj(w))
    total = 2.0 * np.sum(cross / (mu_pairs[:, :, None, None] * lam_pairs[None, None]))
    return float(total.real)


def purity_grid(
    base: SystemParams, kappas, gamma_ps
) -> tuple[np.ndarray, np.ndarray]:
    """Purity at many (kappa, gamma_p) points that share the rest of `base`.

    `kappas` and `gamma_ps` are rates in the units of `base` and broadcast
    against each other (kappas[:, None] and gamma_ps[None, :] give an outer
    grid).  All points are evaluated at once from the eigendecomposition of
    their stacked 4x4 generators -G = V diag(mu) V^-1, the dynamics of
    (rho_ss, rho_sa, rho_as, rho_aa): with c = V^-1 e1 the kernel weights
    are kappa * (V[3] c (x) At - V[1] c (x) B), and the purity is the same
    double residue sum as `purity`.

    Returns (values, statuses) in the broadcast shape.  A status is "ok"
    or says why the value is NaN:

    degenerate      : confluent amplitude eigenvalues, the rule under which
                      `eigen_system` raises DegenerateEigenvalues
    repeated-poles  : cond(V) >= 1 / REPEATED_RTOL.  Poles at relative
                      distance d have eigenvectors at an angle of order d,
                      so cond(V) ~ 1/d and this is the gap rule under which
                      `solve_poles` raises RepeatedPoles, read off V (eig
                      splits a collision only to ~sqrt(eps), so the computed
                      gap cannot be used)
    ill-conditioned : purity outside [0, Tr^2]

    The residues grow like cond(V) and cancel in the purity, so an "ok"
    value carries a rounding error of order eps * cond(V)^2 (at most
    3 eps cond(V)^2 against 50-digit arithmetic in the tests): below 1e-10
    while cond(V) < 400, which holds away from pole collisions such as
    resonant kappa -> 4g with gamma_p -> 0.

    A point that `make_params` or `PhotonDensityMatrix.from_params` would
    refuse raises that error for the first such point in row-major order.
    """
    kappa, gamma_p = np.broadcast_arrays(
        np.asarray(kappas, dtype=float), np.asarray(gamma_ps, dtype=float)
    )
    shape = kappa.shape
    kappa, gamma_p = kappa.ravel(), gamma_p.ravel()
    refused = (
        ~np.isfinite(kappa) | ~np.isfinite(gamma_p) | (kappa < 0.0)
        | (gamma_p < 0.0) | ((kappa <= 0.0) & (base.gamma <= 0.0)) | base.g_zero
    )
    if np.any(refused):
        first = int(np.argmax(refused))
        _require_photon(make_params(
            omega_d=base.omega_d, omega_c=base.omega_c, g=base.g,
            kappa=float(kappa[first]), gamma=base.gamma,
            gamma_p=float(gamma_p[first]),
        ))

    values = np.full(kappa.shape, np.nan)
    statuses = np.full(kappa.shape, "ok", dtype=object)
    g, gamma, dw = base.g, base.gamma, base.detuning
    wd = dw - 0.5j * (gamma + 2.0 * gamma_p)      # cavity frame, as `internal`
    wc = -0.5j * kappa
    lam_a, lam_b, confluent = _eigenvalue_pair(wd, wc, g)
    statuses[confluent] = "degenerate"

    live = np.flatnonzero(~confluent)
    k = kappa[live]
    halfw = 0.5 * (gamma + k) + gamma_p[live]
    gen = np.zeros((len(live), 4, 4), dtype=complex)
    gen[:, 0, :] = [-gamma, -1j * g, 1j * g, 0.0]
    gen[:, 1, 0], gen[:, 1, 1], gen[:, 1, 3] = -1j * g, -(halfw + 1j * dw), 1j * g
    gen[:, 2, 0], gen[:, 2, 2], gen[:, 2, 3] = 1j * g, -(halfw - 1j * dw), -1j * g
    gen[:, 3, 1], gen[:, 3, 2], gen[:, 3, 3] = 1j * g, -1j * g, -k
    mu, vecs = np.linalg.eig(gen)

    sv = np.linalg.svd(vecs, compute_uv=False)
    singular = sv[:, -1] <= REPEATED_RTOL * sv[:, 0]
    statuses[live[singular]] = "repeated-poles"
    keep = ~singular
    live, k, mu, vecs = live[keep], k[keep], mu[keep], vecs[keep]

    c = np.linalg.solve(vecs, np.eye(4, 1))[..., 0]        # V^-1 e1
    sa = vecs[:, 1, :] * c               # rho_sa(t) = sum_j sa_j exp(mu_j t)
    aa = vecs[:, 3, :] * c               # rho_aa(t) = sum_j aa_j exp(mu_j t)
    lam = np.stack([lam_a[live], lam_b[live]], axis=-1)
    _, _, B1, B2, At1, At2 = _amplitude_weights(
        lam[:, 0], lam[:, 1], wd[live], wc[live], g
    )
    w = k[:, None, None] * (
        aa[:, :, None] * np.stack([At1, At2], axis=-1)[:, None, :]
        - sa[:, :, None] * np.stack([B1, B2], axis=-1)[:, None, :]
    )
    mu_pairs = mu[:, :, None] + np.conj(mu)[:, None, :]
    lam_pairs = lam[:, :, None] + np.conj(lam)[:, None, :]
    value = 2.0 * np.einsum(
        "njm,nkl,njk,nml->n", w, np.conj(w), 1.0 / mu_pairs, 1.0 / lam_pairs
    ).real

    # near-critical gaps lose the tables' precision; flag, never report
    bound = np.sum(k[:, None] * aa / -mu, axis=-1).real ** 2     # Tr^2
    sane = (0.0 <= value) & (value <= bound + 1e-6 * np.maximum(1.0, bound))
    statuses[live[~sane]] = "ill-conditioned"
    values[live[sane]] = value[sane]
    return values.reshape(shape), statuses.reshape(shape)


def coincidence_probability(purity_value: float) -> float:
    """Two-photon coincidence probability (1 - P) / 2 behind a 50:50 splitter."""
    if not 0.0 < purity_value <= 1.0 + 1e-9:
        raise ValueError(f"purity must lie in (0, 1], got {purity_value!r}")
    return (1.0 - min(purity_value, 1.0)) / 2.0


@dataclass(frozen=True)
class FilterReport:
    """Functionals of the kernel truncated to the leading window of length T.

    purity        : Tr(rho_T^2) / efficiency_sq, the windowed purity
    efficiency_sq : (Tr rho_T)^2, square of the capture probability
    purity_normalized : Tr(rho_hat^2) for rho_hat = rho_T / Tr rho_T;
                        algebraically identical to `purity`, kept separate
                        so both conventions stay checkable
    """

    T: float
    purity: float
    efficiency_sq: float
    purity_normalized: float


def _exp_interval(c: complex, T: float) -> complex:
    """int_0^T exp(c u) du, stable for |c T| -> 0."""
    cT = c * T
    if abs(cT) < 1e-8:
        return T * (1.0 + cT / 2.0 + cT * cT / 6.0)
    return (np.exp(cT) - 1.0) / c


def _windowed_trace(ps: PoleSystem, T: float) -> float:
    vals = sum(
        w * _exp_interval(mu, T) for w, mu in zip(ps.pulse_weights, ps.poles)
    )
    return float(vals.real)


def efficiency_sq(dm: PhotonDensityMatrix, T: float) -> float:
    """(Tr rho_T)^2: square of the emission probability within the window."""
    return _windowed_trace(dm.ps, T) ** 2


def _iterated_exponential(a: complex, b: complex, T: float) -> complex:
    """int_0^T du' e^{b u'} int_{u'}^T du e^{a (u - u')}.

    Written with decaying exponentials only; the a -> b confluence is a
    removable singularity replaced by its limit below |a - b| = 1e-8.
    """
    gap = b - a
    if abs(gap) < 1e-8 * max(abs(a), abs(b), 1.0):
        mid = 0.5 * (a + b)
        cross = T * np.exp(mid * T)
    else:
        cross = (np.exp(b * T) - np.exp(a * T)) / gap
    return (cross - _exp_interval(b, T)) / a


def time_filter(dm: PhotonDensityMatrix, T: float) -> FilterReport:
    """Windowed purity and efficiency of photons in the leading length T."""
    if T <= 0.0:
        raise ValueError(f"window length must be positive, got {T!r}")
    ps = dm.ps
    w = ps.kernel_weights
    mu_pairs, lam_pairs = _pair_denominators(ps)

    numerator = 0.0 + 0.0j
    for j in range(4):
        for jp in range(4):
            for m in range(2):
                for mp in range(2):
                    numerator += (
                        w[j, m]
                        * np.conj(w[jp, mp])
                        * _iterated_exponential(lam_pairs[m, mp], mu_pairs[j, jp], T)
                    )
    numerator = 2.0 * numerator.real

    trace_t = _windowed_trace(ps, T)
    eff = trace_t**2
    return FilterReport(
        T=float(T),
        purity=numerator / eff,
        efficiency_sq=eff,
        purity_normalized=numerator / trace_t**2,
    )


def half_efficiency_time(dm: PhotonDensityMatrix, target: float = 0.5) -> float:
    """Window length where the squared capture probability hits `target`.

    Bisection on the closed-form efficiency, converged to 1e-9 in the
    efficiency value.
    """
    ps = dm.ps
    limit = trace(dm) ** 2
    if limit <= target:
        raise ValueError(
            f"efficiency_sq saturates at {limit:.6f} <= target {target}; "
            "no finite half-efficiency window"
        )
    hi = asymptotic_time(ps, folds=1.0)
    while efficiency_sq(dm, hi) < target:
        hi *= 2.0
        if hi > asymptotic_time(ps, folds=1e4):
            raise RuntimeError("failed to bracket the half-efficiency window")
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = efficiency_sq(dm, mid)
        if abs(value - target) <= 1e-9:
            return mid
        if value < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _purity_at(params: SystemParams, gamma_p: float) -> float:
    trial = SystemParams(
        omega_d=params.omega_d,
        omega_c=params.omega_c,
        g=params.g,
        kappa=params.kappa,
        gamma=params.gamma,
        gamma_p=float(gamma_p),
    )
    return purity(PhotonDensityMatrix.from_params(trial))


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def purity_max_line(
    params: SystemParams,
    gamma_p_min: float,
    gamma_p_max: float,
    n_scan: int = 60,
) -> tuple[float, float]:
    """Locate the interior purity maximum over gamma_p in a log window.

    Scans n_scan log-spaced dephasing rates at fixed (g, kappa, detuning)
    in one `purity_grid` call (cells it flags are skipped), brackets every
    interior local maximum of the samples and refines each by
    golden-section search on log gamma_p.  Returns (gamma_p*, purity*)
    for the highest refined maximum; raises NoInteriorMax when the scan is
    monotone.
    """
    if not 0.0 < gamma_p_min < gamma_p_max:
        raise ValueError("need 0 < gamma_p_min < gamma_p_max")
    grid = np.logspace(math.log10(gamma_p_min), math.log10(gamma_p_max), n_scan)
    values, _ = purity_grid(params, params.kappa, grid)

    best: tuple[float, float] | None = None
    logs = np.log(grid)
    for i in range(1, n_scan - 1):
        window = values[i - 1 : i + 2]
        if np.any(np.isnan(window)):
            continue
        if values[i] >= values[i - 1] and values[i] >= values[i + 1]:
            lo, hi = logs[i - 1], logs[i + 1]
            x1 = hi - _GOLDEN * (hi - lo)
            x2 = lo + _GOLDEN * (hi - lo)
            f1 = _purity_at(params, math.exp(x1))
            f2 = _purity_at(params, math.exp(x2))
            while hi - lo > 1e-10 * max(1.0, abs(hi)):
                if f1 < f2:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + _GOLDEN * (hi - lo)
                    f2 = _purity_at(params, math.exp(x2))
                else:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - _GOLDEN * (hi - lo)
                    f1 = _purity_at(params, math.exp(x1))
            x_star = math.exp(0.5 * (lo + hi))
            p_star = _purity_at(params, x_star)
            if best is None or p_star > best[1]:
                best = (x_star, p_star)

    if best is None:
        raise NoInteriorMax(
            "purity is monotone over the scanned gamma_p window; widen the "
            "window to bracket a ridge"
        )
    return best


def clenshaw_curtis(n: int, a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Chebyshev (Clenshaw-Curtis) nodes and weights on [a, b], n+1 points."""
    if n < 2:
        raise ValueError("need n >= 2")
    k = np.arange(n + 1)
    theta = k * math.pi / n
    nodes = np.cos(theta)

    weights = np.zeros(n + 1)
    jmax = n // 2
    for idx in range(n + 1):
        acc = 0.0
        for j in range(1, jmax + 1):
            factor = 1.0 if 2 * j == n else 2.0
            acc += factor * math.cos(2.0 * j * theta[idx]) / (4.0 * j**2 - 1.0)
        weights[idx] = (1.0 - acc) * 2.0 / n
    weights[0] *= 0.5
    weights[-1] *= 0.5

    half = 0.5 * (b - a)
    return a + half * (1.0 - nodes), half * weights


def discretized_kernel(
    dm: PhotonDensityMatrix, n: int = 64, horizon: float | None = None
) -> np.ndarray:
    """Quadrature-weighted kernel matrix W^(1/2) rho W^(1/2) on Chebyshev nodes.

    Its eigenvalues approximate the occupation spectrum of the photon state;
    positive semidefiniteness of the state shows up as a non-negative
    spectrum up to discretization error.
    """
    if horizon is None:
        horizon = asymptotic_time(dm.ps)
    nodes, weights = clenshaw_curtis(n, 0.0, horizon)
    kernel = dm_eval(dm, nodes[:, None], nodes[None, :])
    root_w = np.sqrt(weights)
    return root_w[:, None] * kernel * root_w[None, :]


def min_eigenvalue_ratio(dm: PhotonDensityMatrix, n: int = 64) -> float:
    """min(eig) / max(eig) of the discretized kernel (PSD check helper)."""
    matrix = discretized_kernel(dm, n=n)
    eigs = np.linalg.eigvalsh(matrix)
    return float(eigs[0] / eigs[-1])
