"""Viscous shock profiles and vanishing-viscosity convergence for 1-D
Lagrangian gas dynamics with a volume-dependent viscous coefficient."""

from .convergence_harness import (FullErrorResult, OmegaSpec, SolverSizing,
                                  SweepResult, alpha_sweep, full_error,
                                  omega_positions, profile_only_error)
from .energy_diagnostics import (EnergyReport, PerturbationFields,
                                 RemainderSample, energy_snapshot,
                                 longtime_decay_check, perturbation,
                                 quadratic_remainder, sobolev_norms,
                                 sobolev_triple)
from .errors import NumericalError, ValidationError, ViscoshockError
from .euler_waves import (LaxReport, PressureLaw, ShockData, build_shock,
                          check_lax, d_pressure, dd_pressure, lambda1,
                          pressure, rh_residuals, riemann_shock_eval)
from .lagrangian_solver import (Grid1D, RunRecord, SolverState, init_constant,
                                init_state, run, step, step_flux_balance)
from .shock_profile import (ProfilePropertyReport, ViscousProfile,
                            compute_profile, profile_residual, reduced_rhs,
                            rescaled_profile_eval, residual_on_samples,
                            tail_rates, verify_profile_properties)

__version__ = "0.1.0"

__all__ = [
    "ViscoshockError", "ValidationError", "NumericalError",
    "PressureLaw", "ShockData", "LaxReport",
    "pressure", "d_pressure", "dd_pressure", "lambda1",
    "build_shock", "rh_residuals", "check_lax", "riemann_shock_eval",
    "ViscousProfile", "ProfilePropertyReport",
    "reduced_rhs", "tail_rates", "compute_profile", "profile_residual",
    "residual_on_samples", "rescaled_profile_eval",
    "verify_profile_properties",
    "Grid1D", "SolverState", "RunRecord",
    "init_state", "init_constant", "step", "run", "step_flux_balance",
    "PerturbationFields", "EnergyReport", "RemainderSample",
    "perturbation", "sobolev_norms", "sobolev_triple", "energy_snapshot",
    "quadratic_remainder", "longtime_decay_check",
    "OmegaSpec", "SolverSizing", "FullErrorResult", "SweepResult",
    "omega_positions", "profile_only_error", "full_error", "alpha_sweep",
]
