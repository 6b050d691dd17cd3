"""Exact single-photon emission from a dephasing emitter in a leaky cavity."""

from .params import (
    ComplexFrequencies,
    NegativeRate,
    NoEscapeChannel,
    NonFinite,
    ParameterError,
    RequiresGammaZero,
    SystemParams,
    make_params,
)
from .linear_dynamics import (
    DegenerateEigenvalues,
    EigenSystem,
    PoleHit,
    alpha0,
    alpha0_tilde,
    beta0,
    beta0_tilde,
    eigen_system,
    laplace_alpha0_sq,
)
from .pole_residue import (
    PoleSystem,
    RepeatedPoles,
    dm_residues,
    match_to_previous,
    pulse_residues,
    solve_poles,
    survival_residues,
)
from .observables import (
    EnergyReport,
    SpectrumCurve,
    asymptotic_time,
    auto_k_range,
    decay_rate,
    mean_energies,
    pulse_mean_length,
    pulse_shape,
    spectral_width,
    spectrum,
    spectrum_approx,
    spectrum_approx_weights,
    spectrum_curve,
    spectrum_integrals,
    survival_probability,
)
from .photon_state import (
    FilterReport,
    NoInteriorMax,
    PhotonDensityMatrix,
    coincidence_probability,
    dm_eval,
    half_efficiency_time,
    purity,
    purity_grid,
    purity_max_line,
    time_filter,
    trace,
)
from .oracle import (
    LimitingPurity,
    OracleState,
    StepTooLarge,
    asymptotic_purities,
    emitted_fraction,
    generator_eigenvalues,
    generator_matrix,
    integrate_master,
    reconstruct_dm,
    reconstruct_dm_grid,
)

__version__ = "0.1.0"
