"""Successive approximations for Caputo fractional Dirichlet problems.

The package splits along the stages of the method: weakly singular
quadrature and fractional operators (:mod:`fracbvp.fracops`), the
right-hand-side expression language (:mod:`fracbvp.exprlang`), problem
configuration (:mod:`fracbvp.problem`), solvability conditions and
error bounds (:mod:`fracbvp.conditions`), the iteration itself
(:mod:`fracbvp.iterate`), the determining equation and parameter-domain
exclusion (:mod:`fracbvp.determine`), and a-posteriori residual checks
(:mod:`fracbvp.verify`).  ``fracbvp.cli`` wires these into the
``fracbvp`` command.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .conditions import (
    BoundUndefinedError,
    ConditionsReport,
    apriori_error,
    check_conditions,
    combined_error_bound,
    delta_gap_bound,
    radius_bound,
    spectral_radius,
)
from .determine import (
    DeterminingResult,
    ExclusionResult,
    ExistenceVerdict,
    NonConvergenceError,
    NoRootBracketError,
    delta_at,
    delta_m,
    exclusion_sweep,
    existence_check_scalar,
    solve_depths,
    solve_determining,
)
from .exprlang import ExprEvalError, ExprSyntaxError, evaluate, parse, pretty, pretty_source
from .fracops import (
    Grid,
    GridFunction,
    ProductTrapezoid,
    alpha1,
    caputo_derivative,
    frac_integral,
    gamma,
    kernel_constant,
)
from .iterate import ApproxSolution, DomainEscape, DomainEscapeError, iterate_step, run_iteration, u0
from .problem import (
    BUILTIN_PROBLEMS,
    Box,
    Problem,
    ProblemError,
    builtin_problem,
    estimate_bounds,
    load_problem,
    problem_from_config,
    resolve_bounds,
)
from .verify import ResidualReport, emit_figure_data, residuals

__all__ = [
    "__version__",
    "ApproxSolution",
    "BUILTIN_PROBLEMS",
    "BoundUndefinedError",
    "Box",
    "ConditionsReport",
    "DeterminingResult",
    "DomainEscape",
    "DomainEscapeError",
    "ExclusionResult",
    "ExistenceVerdict",
    "ExprEvalError",
    "ExprSyntaxError",
    "Grid",
    "GridFunction",
    "NoRootBracketError",
    "NonConvergenceError",
    "Problem",
    "ProblemError",
    "ProductTrapezoid",
    "ResidualReport",
    "alpha1",
    "apriori_error",
    "builtin_problem",
    "caputo_derivative",
    "check_conditions",
    "combined_error_bound",
    "delta_at",
    "delta_gap_bound",
    "delta_m",
    "emit_figure_data",
    "estimate_bounds",
    "evaluate",
    "exclusion_sweep",
    "existence_check_scalar",
    "frac_integral",
    "gamma",
    "iterate_step",
    "kernel_constant",
    "load_problem",
    "parse",
    "pretty",
    "pretty_source",
    "problem_from_config",
    "residuals",
    "resolve_bounds",
    "run_iteration",
    "solve_depths",
    "solve_determining",
    "radius_bound",
    "spectral_radius",
    "u0",
]
