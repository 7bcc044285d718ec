"""Sensitivity analysis of Kolmogorov PDE values under model uncertainty.

The package estimates, by nested Monte Carlo, how the value function of a
linear Kolmogorov terminal-value problem reacts to worst-case perturbations
of the drift (weight gamma) and volatility (weight eta) within a radius
epsilon, and assembles the first-order approximation

    v(eps) ~ v0 + eps * (gamma * sens_drift + eta * sens_vol),

valid for eps below min(1, smallest singular value of the volatility).
Closed-form/quadrature references for the two built-in experiment families
and a one-dimensional finite-difference solver for the fully nonlinear
problem provide independent checks on the estimators.
"""

from .analytic import (QuadratureConfig, gauss_abs_expectation, quartic_sensitivity_quadrature,
                       quartic_v0, sine_sensitivity_quadrature, sine_v0)
from .engine import (EstimatorStats, McConfig, SensitivityReport, compute_report,
                     default_bump, first_order_approx, predicted_complexity, repeated_runs,
                     seeded_runs, sensitivity_mc, v0_mc)
from .errors import GenerationError, NumericError, StabilityError, ValidationError
from .fd1d import (EpsSweepResult, FdProblem1d, FdSolution1d, SweepPlan, epsilon_sweep,
                   fd_problem_from_model, fit_loglog_slope, plan_epsilon_sweep, solve)
from .model import (BaselineModel, BoundaryCheck, BoundaryFunction, EvalPoint, RegimeReport,
                    RidgeProfile, UncertaintySpec, check_boundary, generate_normalized_model,
                    lambda_min, quartic_boundary, ridge_boundary, sine_boundary,
                    validate_expansion_regime)
from .sampling import SampleGrid, TimeGrid, build_time_grid, draw_samples

__version__ = "0.1.0"

__all__ = [
    "BaselineModel", "BoundaryCheck", "BoundaryFunction", "EpsSweepResult",
    "EstimatorStats", "EvalPoint", "FdProblem1d", "FdSolution1d", "GenerationError",
    "McConfig", "NumericError", "QuadratureConfig", "RegimeReport", "RidgeProfile",
    "SampleGrid", "SensitivityReport", "StabilityError", "SweepPlan", "TimeGrid",
    "UncertaintySpec",
    "ValidationError", "build_time_grid", "check_boundary", "compute_report",
    "default_bump", "draw_samples", "epsilon_sweep", "fd_problem_from_model",
    "first_order_approx", "fit_loglog_slope", "gauss_abs_expectation",
    "generate_normalized_model", "lambda_min", "plan_epsilon_sweep", "predicted_complexity",
    "quartic_boundary",
    "quartic_sensitivity_quadrature", "quartic_v0", "repeated_runs", "ridge_boundary",
    "seeded_runs", "sensitivity_mc", "sine_boundary", "sine_sensitivity_quadrature",
    "sine_v0", "solve", "v0_mc", "validate_expansion_regime",
]
