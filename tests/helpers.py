"""Independent oracles used across the test suite.

Everything here is deliberately boring and separate from the library's
evaluation paths: plain-loop RK4 for the amplitude ODE, midpoint Riemann
sums for spectra, Gauss-Legendre products for kernel functionals.
"""

import numpy as np

from dotcavity.params import SystemParams


def amplitude_matrix(params: SystemParams) -> np.ndarray:
    """The 2x2 amplitude evolution matrix in the cavity frame."""
    freqs = params.internal
    return np.array(
        [
            [-1j * freqs.omega_d_tilde, -1j * params.g],
            [-1j * params.g, -1j * freqs.omega_c_tilde],
        ],
        dtype=complex,
    )


def rk4_amplitudes(params: SystemParams, t_end: float, n_steps: int,
                   initial=(1.0, 0.0)) -> np.ndarray:
    """Classic fixed-step RK4 for the amplitude pair, plain loop."""
    m = amplitude_matrix(params)
    h = t_end / n_steps
    v = np.array(initial, dtype=complex)
    for _ in range(n_steps):
        k1 = m @ v
        k2 = m @ (v + 0.5 * h * k1)
        k3 = m @ (v + 0.5 * h * k2)
        k4 = m @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return v


def alpha_sq_integral(params: SystemParams, horizon: float) -> float:
    """Adaptive quadrature of |alpha0(t)|^2 with expm-propagated amplitudes."""
    from scipy.integrate import quad
    from scipy.linalg import expm

    m = amplitude_matrix(params)

    def density(t):
        return abs((expm(m * t) @ np.array([1.0, 0.0]))[0]) ** 2

    marks = [horizon * 10.0**e for e in range(-6, 0)]
    value, _ = quad(density, 0.0, horizon, points=marks, limit=500)
    return float(value)


def spectral_moments_brute(params: SystemParams, norm_factor: float,
                           half_width: float, n: int = 1_000_000):
    """Midpoint Riemann moments of S(k) over [-W, W] plus leading tails.

    Works in the cavity frame.  The window alone underestimates the second
    moment by ~2N/W, so the leading closed-form tail integrals of the
    1/k^4 asymptote are added; without them a 50*kappa window is several
    permille short on the width.
    """
    freqs = params.internal
    wd, wc = freqs.omega_d_tilde, freqs.omega_c_tilde
    k = (np.arange(n) + 0.5) * (2.0 * half_width / n) - half_width
    dens = norm_factor / np.abs((k - wd) * (k - wc) - params.g**2) ** 2
    dk = 2.0 * half_width / n
    m0 = float(np.sum(dens) * dk)
    m1 = float(np.sum(k * dens) * dk)
    m2 = float(np.sum(k**2 * dens) * dk)

    u = wd + wc
    m0 += 2.0 * norm_factor / (3.0 * half_width**3)
    m1 += 4.0 * norm_factor * u.real / (3.0 * half_width**3)
    m2 += 2.0 * norm_factor / half_width
    return m0, m1, m2


def gauss_legendre_nodes(n: int, a: float, b: float):
    x, w = np.polynomial.legendre.leggauss(n)
    half = 0.5 * (b - a)
    return a + half * (x + 1.0), half * w


def purity_by_quadrature(dm, horizon: float, n: int = 600) -> float:
    """2D Gauss-Legendre quadrature of |rho(u, u')|^2 over [0, horizon]^2."""
    from dotcavity.photon_state import dm_eval

    nodes, weights = gauss_legendre_nodes(n, 0.0, horizon)
    kernel = dm_eval(dm, nodes[:, None], nodes[None, :])
    return float(np.einsum("i,j,ij->", weights, weights, np.abs(kernel) ** 2).real)


def group_weights_by_pole(poles, weights, rtol=1e-6):
    """Sum weights over coincident poles; returns sorted (pole, weight) list.

    Residue tables are only defined up to redistribution among coincident
    poles (resonant parameter sets always carry one duplicated slot), so
    continuity comparisons must group first.
    """
    scale = max(1.0, float(np.max(np.abs(poles))))
    groups: list[tuple[complex, np.ndarray]] = []
    order = np.lexsort((np.asarray(poles).imag, np.asarray(poles).real))
    for idx in order:
        pole, weight = poles[idx], np.asarray(weights[idx])
        for gi, (gp, gw) in enumerate(groups):
            if abs(pole - gp) <= rtol * scale:
                groups[gi] = (gp, gw + weight)
                break
        else:
            groups.append((pole, weight.astype(complex)))
    return groups


def purity_mpmath(params: SystemParams, dps: int = 50) -> float:
    """Purity from the 4x4 generator's eigendecomposition in `dps` digits.

    The same formulas as the batched route (poles mu = eig(-G), c = V^-1 e1,
    kernel weights kappa * (V[3] c (x) At - V[1] c (x) B)), evaluated in
    arbitrary precision, so the float result's rounding error is measured
    against it.
    """
    import mpmath as mp

    with mp.workdps(dps):
        i = mp.mpc(0, 1)
        g, kappa, gamma, gp, dw = (
            mp.mpf(x) for x in (params.g, params.kappa, params.gamma,
                                params.gamma_p, params.detuning)
        )
        halfw = (gamma + kappa) / 2 + gp
        gen = -mp.matrix([
            [gamma, i * g, -i * g, 0],
            [i * g, halfw + i * dw, 0, -i * g],
            [-i * g, 0, halfw - i * dw, i * g],
            [0, -i * g, i * g, kappa],
        ])
        mu, vecs = mp.eig(gen)
        c = mp.lu_solve(vecs, mp.matrix([1, 0, 0, 0]))

        wd = dw - i * (gamma + 2 * gp) / 2
        wc = -i * kappa / 2
        disc = mp.sqrt((-i * (wd - wc) / 2) ** 2 - g**2)
        lam = [-i * (wd + wc) / 2 + disc, -i * (wd + wc) / 2 - disc]
        gap = lam[0] - lam[1]
        b = [-i * g / gap, i * g / gap]
        at = [(lam[0] + i * wd) / gap, (lam[1] + i * wd) / (-gap)]
        w = [[kappa * c[j] * (vecs[3, j] * at[m] - vecs[1, j] * b[m])
              for m in range(2)] for j in range(4)]
        total = mp.mpf(0)
        for j in range(4):
            for k in range(4):
                for m in range(2):
                    for n in range(2):
                        total += (w[j][m] * mp.conj(w[k][n])
                                  / ((mu[j] + mp.conj(mu[k]))
                                     * (lam[m] + mp.conj(lam[n]))))
        return float(mp.re(2 * total))
