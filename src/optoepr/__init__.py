"""Radiation-pressure EPR criterion engine for a two-mode pendular cavity.

Numerical machinery for the continuous-variable EPR test in which two
orthogonally polarized cavity modes become correlated only through the
radiation pressure they exert on a shared oscillating mirror: closed-form
criterion evaluation, full frequency-domain spectra of the linearized
fluctuation dynamics, steady-state/bistability solving, and an independent
stochastic-simulation oracle.
"""

from .constants import C_LIGHT, HBAR, K_B
from .criterion import EprResult, ScanGrid, epr_lhs, paradox_boundary, scan
from .errors import (ConvergenceError, InstabilityError, InvalidRegimeError,
                     NumericalError, OptoEprError, ParameterError)
from .model import (DimensionlessParams, PhysicalParams, SteadyState,
                    drive_kappa, locality_check, steady_state,
                    steady_state_residual, to_dimensionless)
from .sde import (Estimate, SimConfig, SimulationRecords, default_sim_config,
                  epr_product_estimate, estimate_inference_variance,
                  integrate, sample_inference_variance, windowed_transform)
from .spectra import (NoisePsd, SpectralMatrix, StateSpace, brownian_psd,
                      build_state_space, commutator_norm_check,
                      inferred_variance_at, noise_psd, output_response,
                      output_spectral_matrix, realize_dimensionless,
                      require_stable, state_space_matrices)

__version__ = "0.1.0"

__all__ = [
    "C_LIGHT", "HBAR", "K_B",
    "ConvergenceError", "InstabilityError", "InvalidRegimeError",
    "NumericalError", "OptoEprError", "ParameterError",
    "DimensionlessParams", "PhysicalParams", "SteadyState",
    "drive_kappa", "locality_check", "steady_state",
    "steady_state_residual", "to_dimensionless",
    "EprResult", "ScanGrid", "epr_lhs", "paradox_boundary", "scan",
    "NoisePsd", "SpectralMatrix", "StateSpace", "brownian_psd",
    "build_state_space", "commutator_norm_check", "inferred_variance_at",
    "noise_psd", "output_response", "output_spectral_matrix",
    "realize_dimensionless", "require_stable", "state_space_matrices",
    "Estimate", "SimConfig", "SimulationRecords", "default_sim_config",
    "epr_product_estimate", "estimate_inference_variance", "integrate",
    "sample_inference_variance", "windowed_transform",
    "__version__",
]
