"""Stationary density control for reversible diffusions.

Designs, computes and verifies stabilizing infinite-horizon optimal
controls for stochastic agents with multiplicative noise: forward
solve of the stationary HJB problem through the desirability
eigenproblem, spectral stability certificates, Crank-Nicolson density
evolution, Monte Carlo path-integral estimation, and analytic inverse
design of the cost from a target density.
"""
__version__ = "0.1.0"

from .config import RunConfig, SamplingOptions, SolverOptions, load_config, parse_config
from .errors import (
    ConfigError,
    DensctlError,
    InverseError,
    ModelError,
    OperatorError,
    PdeError,
    SamplingError,
    SpectralError,
)
from .expressions import (
    ExpressionError,
    compile_expression,
    derivative,
    evaluate,
    free_variables,
    parse_expression,
    to_string,
)
from .fields import (
    FieldError,
    ScalarField,
    TensorField,
    VectorField,
    eval_scalar_field,
    gradient_values,
    interpolant,
    interpolate_values,
)
from .grid import Grid
from .inverse import (
    InverseSolution,
    RoundtripReport,
    control_from_target,
    cost_from_target,
    desirability_from_target,
    roundtrip_verify,
    solve_inverse,
)
from .model import (
    LAMBDA,
    ConstraintReport,
    ProblemSpec,
    ValidationReport,
    confinement_report,
    control_law,
    drift_from_potential,
    validate_spec,
)
from .operators import (
    AdjointOperator,
    GeneratorOperator,
    adjoint_of,
    apply,
    assemble_generator,
    dump_operator,
    weighted_inner,
    weighted_norm,
)
from .pde import (
    DensityTrajectory,
    PerturbationCoefficients,
    eigen_evolution,
    evolve_fp,
    evolve_perturbation,
    expand_in_eigenbasis,
    fit_decay_rate,
    project_mass_zero,
)
from .sampling import (
    Ensemble,
    Estimate,
    SdeConfig,
    TrajectoryBatch,
    estimate_c_mc,
    histogram_density,
    path_integral_desirabilities,
    path_integral_desirability,
    simulate_density_feedback,
    simulate_sde,
    tv_distance,
    uniform_ensemble,
)
from .spectral import (
    HJBSolution,
    Spectrum,
    controlled_operator,
    eig_generator,
    solve_hjb_principal,
    spectral_gap,
    verify_hjb_residual,
)

__all__ = [
    "AdjointOperator", "ConfigError", "ConstraintReport", "DensctlError",
    "DensityTrajectory", "Ensemble", "Estimate", "ExpressionError",
    "FieldError", "GeneratorOperator", "Grid", "HJBSolution",
    "InverseError", "InverseSolution", "LAMBDA", "ModelError",
    "OperatorError", "PdeError", "PerturbationCoefficients", "ProblemSpec",
    "RoundtripReport", "RunConfig", "SamplingError", "SamplingOptions",
    "SdeConfig", "SolverOptions", "SpectralError", "Spectrum",
    "TensorField", "TrajectoryBatch", "ValidationReport", "VectorField",
    "ScalarField",
    "adjoint_of", "apply", "assemble_generator", "confinement_report",
    "compile_expression", "control_from_target", "control_law",
    "cost_from_target", "derivative",
    "controlled_operator", "desirability_from_target", "drift_from_potential",
    "dump_operator", "eig_generator", "eigen_evolution", "estimate_c_mc",
    "eval_scalar_field", "evaluate", "evolve_fp",
    "evolve_perturbation", "expand_in_eigenbasis", "fit_decay_rate",
    "free_variables", "gradient_values",
    "histogram_density", "interpolant", "interpolate_values", "load_config",
    "parse_config", "parse_expression", "path_integral_desirabilities",
    "path_integral_desirability",
    "project_mass_zero", "roundtrip_verify", "simulate_density_feedback",
    "simulate_sde", "solve_hjb_principal", "solve_inverse", "spectral_gap",
    "to_string", "tv_distance", "uniform_ensemble", "validate_spec",
    "verify_hjb_residual", "weighted_inner", "weighted_norm",
]
