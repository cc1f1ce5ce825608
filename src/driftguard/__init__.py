"""driftguard: keep a symmetric random walk inside a convex box by
discarding steps online, with closed-form bound calculators and exact 1-d
optimality oracles for checking the discard counts."""

from .bodies import (
    Box,
    Density,
    FisherMatrix,
    cube_eigen_density,
    dirichlet_lambda1_box,
    fisher_closed_form_cube,
    fisher_monte_carlo,
    fisher_operator_norm,
    fisher_quadrature,
)
from .bounds import (
    BoundReport,
    isotropic_bound,
    lower_bound_1d,
    matching_bounds,
    upper_bound_cube,
    upper_bound_general,
)
from .harness import (
    ExperimentConfig,
    RunStats,
    StepGenerator,
    emit_report,
    generate_steps,
    run_experiment,
    run_stats_from_json,
)
from .metropolis import (
    ContainmentError,
    Trajectory,
    filter_run,
    rejection_rate_exact_1d,
    rejection_rate_monte_carlo,
    run_ensemble,
)
from .oracle1d import (
    ValidSubsequence,
    dp_longest_valid,
    exact_chain_expectation,
    exact_chain_expectation_fraction,
    reflected_walk,
    signs_from_string,
    verify_lex_optimality,
    verify_start_shift,
)

__version__ = "0.1.0"

__all__ = [
    "Box",
    "Density",
    "FisherMatrix",
    "cube_eigen_density",
    "dirichlet_lambda1_box",
    "fisher_closed_form_cube",
    "fisher_quadrature",
    "fisher_monte_carlo",
    "fisher_operator_norm",
    "ContainmentError",
    "Trajectory",
    "filter_run",
    "run_ensemble",
    "rejection_rate_exact_1d",
    "rejection_rate_monte_carlo",
    "BoundReport",
    "upper_bound_general",
    "upper_bound_cube",
    "isotropic_bound",
    "lower_bound_1d",
    "matching_bounds",
    "ValidSubsequence",
    "signs_from_string",
    "reflected_walk",
    "dp_longest_valid",
    "verify_lex_optimality",
    "verify_start_shift",
    "exact_chain_expectation",
    "exact_chain_expectation_fraction",
    "StepGenerator",
    "ExperimentConfig",
    "RunStats",
    "generate_steps",
    "run_experiment",
    "emit_report",
    "run_stats_from_json",
    "__version__",
]
