"""Stress-strength reliability P(Y < X) for censored exponential samples.

Point estimators (MLE, UMVUE, two Bayes posterior means), asymptotic and
exact confidence intervals, and a seeded Monte Carlo harness that compares
them over grids of sample sizes and censoring counts.
"""

from .estimators import (
    NONINFORMATIVE,
    EstimateSet,
    GammaPrior,
    estimate_all,
    estimate_kernel,
    true_reliability,
)
from .intervals import (
    METHODS,
    IntervalEstimate,
    asymptotic_ci,
    exact_ci,
    interval_kernel,
)
from .sampling import (
    CensoredSample,
    ExponentialScales,
    RngStream,
    StressStrengthData,
    draw_totals,
)
from .simulation import (
    CellFailure,
    CoverageResult,
    SimCellConfig,
    SimCellResult,
    SimulationError,
    run_cell,
    run_coverage,
    run_grid,
)
from .specfun import (
    NonConvergenceError,
    f_quantile,
    normal_quantile,
)

__version__ = "0.1.0"

__all__ = [
    "CellFailure",
    "CensoredSample",
    "CoverageResult",
    "EstimateSet",
    "ExponentialScales",
    "GammaPrior",
    "IntervalEstimate",
    "METHODS",
    "NONINFORMATIVE",
    "NonConvergenceError",
    "RngStream",
    "SimCellConfig",
    "SimCellResult",
    "SimulationError",
    "StressStrengthData",
    "asymptotic_ci",
    "draw_totals",
    "estimate_all",
    "estimate_kernel",
    "exact_ci",
    "f_quantile",
    "interval_kernel",
    "normal_quantile",
    "run_cell",
    "run_coverage",
    "run_grid",
    "true_reliability",
]
