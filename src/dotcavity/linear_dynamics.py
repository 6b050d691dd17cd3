"""Closed-form solution of the coupled emitter/cavity amplitude equations.

The single-excitation amplitudes (alpha0, beta0) obey

    d/dt (alpha0, beta0) = [[-i*wd~, -i*g], [-i*g, -i*wc~]] (alpha0, beta0)

with wd~, wc~ the complex emitter/cavity frequencies.  This module
diagonalizes that 2x2 matrix once and exposes the amplitudes for both
initial conditions (1, 0) and (0, 1), plus the Laplace transform of
|alpha0|^2 that drives the pole analysis downstream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import SystemParams

DEGENERACY_RTOL = 1e-9


class DegenerateEigenvalues(ValueError):
    """Confluent eigenvalues; the exponential closed forms do not apply."""


class PoleHit(ValueError):
    """Laplace transform evaluated on (or too close to) one of its poles."""


@dataclass(frozen=True)
class EigenSystem:
    """Eigenvalues and amplitude weights of the 2x2 evolution matrix.

    lambda1/lambda2 are ordered by descending real part (ties broken by
    descending imaginary part).  A1, A2 weigh alpha0 for the emitter-excited
    initial condition; B1, B2 weigh beta0.  At1, At2 weigh beta0_tilde, the
    cavity amplitude for the cavity-excited initial condition (0, 1), and by
    symmetry of the evolution matrix alpha0_tilde equals beta0.
    """

    lambda1: complex
    lambda2: complex
    A1: complex
    A2: complex
    B1: complex
    B2: complex
    At1: complex
    At2: complex
    params: SystemParams

    @property
    def lambdas(self) -> np.ndarray:
        return np.array([self.lambda1, self.lambda2])

    @property
    def A(self) -> np.ndarray:
        return np.array([self.A1, self.A2])

    @property
    def B(self) -> np.ndarray:
        return np.array([self.B1, self.B2])


def eigen_system(params: SystemParams) -> EigenSystem:
    """Diagonalize the amplitude evolution matrix for the given parameters.

    The g = 0 limit is handled by an explicit bypass (lambda1 = -i*wd~,
    lambda2 = -i*wc~, A1 = 1, A2 = 0, B1 = B2 = 0) to avoid 0/0 in the
    weight formulas.  Raises DegenerateEigenvalues when the eigenvalue gap
    is below 1e-9 of the eigenvalue scale (critical damping); perturbing
    kappa by one part in 1e6 moves the parameters off the confluence.
    """
    freqs = params.internal
    wd, wc = freqs.omega_d_tilde, freqs.omega_c_tilde

    if params.g_zero:
        lam1, lam2 = -1j * wd, -1j * wc
        return EigenSystem(
            lambda1=lam1,
            lambda2=lam2,
            A1=1.0 + 0.0j,
            A2=0.0 + 0.0j,
            B1=0.0 + 0.0j,
            B2=0.0 + 0.0j,
            At1=0.0 + 0.0j,
            At2=1.0 + 0.0j,
            params=params,
        )

    lam_a, lam_b, confluent = _eigenvalue_pair(wd, wc, params.g)
    lam1, lam2 = sorted(
        (complex(lam_a), complex(lam_b)), key=lambda z: (-z.real, -z.imag)
    )
    if confluent:
        scale = max(abs(lam1), abs(lam2), 1.0)
        raise DegenerateEigenvalues(
            f"|lambda1 - lambda2| = {abs(lam1 - lam2):.3e} <= {DEGENERACY_RTOL:.0e}"
            f" * {scale:.3e}; parameters sit at critical damping. "
            "Perturb kappa by ~1e-6 relative to move off the confluence."
        )

    A1, A2, B1, B2, At1, At2 = _amplitude_weights(lam1, lam2, wd, wc, params.g)
    return EigenSystem(
        lambda1=lam1,
        lambda2=lam2,
        A1=A1,
        A2=A2,
        B1=B1,
        B2=B2,
        At1=At1,
        At2=At2,
        params=params,
    )


def _eigenvalue_pair(wd, wc, g):
    """Unordered eigenvalues of the amplitude matrix and their confluence flag.

    wd, wc are the cavity-frame complex frequencies.  Broadcasts over
    arrays, so `eigen_system` and the batched `photon_state.purity_grid`
    apply the same refusal rule: confluent when |lambda_a - lambda_b| <=
    DEGENERACY_RTOL * max(|lambda_a|, |lambda_b|, 1).
    """
    half_sum = -0.5j * (wd + wc)
    half_diff = -0.5j * (wd - wc)
    disc = np.sqrt(half_diff * half_diff - g**2 + 0.0j)
    lam_a, lam_b = half_sum + disc, half_sum - disc
    scale = np.maximum(np.maximum(np.abs(lam_a), np.abs(lam_b)), 1.0)
    return lam_a, lam_b, np.abs(lam_a - lam_b) <= DEGENERACY_RTOL * scale


def _amplitude_weights(lam1, lam2, wd, wc, g):
    """(A1, A2, B1, B2, At1, At2) for the labelled eigenvalues; broadcasts."""
    gap = lam1 - lam2
    return (
        (lam1 + 1j * wc) / gap,
        (lam2 + 1j * wc) / (-gap),
        -1j * g / gap,
        1j * g / gap,
        (lam1 + 1j * wd) / gap,
        (lam2 + 1j * wd) / (-gap),
    )


def _check_times(t) -> np.ndarray:
    t = np.asarray(t)
    if np.any(t < 0.0):
        raise ValueError("times must be >= 0 (all decay exponents would grow)")
    return t


def alpha0(t, es: EigenSystem):
    """Emitter amplitude at time t >= 0 for the emitter-excited start."""
    t = _check_times(t)
    return es.A1 * np.exp(es.lambda1 * t) + es.A2 * np.exp(es.lambda2 * t)


def beta0(t, es: EigenSystem):
    """Cavity amplitude at time t >= 0 for the emitter-excited start."""
    t = _check_times(t)
    return es.B1 * np.exp(es.lambda1 * t) + es.B2 * np.exp(es.lambda2 * t)


def alpha0_tilde(t, es: EigenSystem):
    """Emitter amplitude for the cavity-excited start (0, 1).

    Equals beta0(t): the evolution matrix is symmetric, so the two
    off-diagonal propagator entries coincide.
    """
    return beta0(t, es)


def beta0_tilde(t, es: EigenSystem):
    """Cavity amplitude for the cavity-excited start (0, 1)."""
    t = _check_times(t)
    return es.At1 * np.exp(es.lambda1 * t) + es.At2 * np.exp(es.lambda2 * t)


# (m, n) index pairs enumerating lambda_m + conj(lambda_n) in fixed order.
_PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))


def decay_pair_poles(es: EigenSystem) -> np.ndarray:
    """The four lambda_m + conj(lambda_n) values, in fixed (m, n) order."""
    lam = es.lambdas
    return np.array([lam[m] + np.conj(lam[n]) for m, n in _PAIRS])


def survival_pair_weights(es: EigenSystem) -> np.ndarray:
    """A_m * conj(A_n) matching decay_pair_poles ordering."""
    amp = es.A
    return np.array([amp[m] * np.conj(amp[n]) for m, n in _PAIRS])


def _laplace_terms(z, es: EigenSystem):
    return survival_pair_weights(es), z - decay_pair_poles(es)


def laplace_alpha0_sq(z: complex, es: EigenSystem) -> complex:
    """Laplace transform of |alpha0(t)|^2 at the complex point z.

    Exact rational function sum_{m,n} A_m conj(A_n) / (z - lambda_m -
    conj(lambda_n)).  Raises PoleHit when z is numerically on a pole.
    """
    weights, gaps = _laplace_terms(z, es)
    scale = max(1.0, float(np.max(np.abs(decay_pair_poles(es)))))
    if np.min(np.abs(gaps)) <= 1e-12 * scale:
        raise PoleHit(f"z = {z!r} coincides with a pole of the transform")
    return complex(np.sum(weights / gaps))
