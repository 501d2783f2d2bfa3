"""Stress-strength reliability P(Y < X) for censored exponential samples.

Point estimators (MLE, UMVUE, two Bayes posterior means), asymptotic and
exact confidence intervals, and a seeded Monte Carlo harness that compares
them over grids of sample sizes and censoring counts.
"""

from .estimators import (
    NONINFORMATIVE,
    EstimateSet,
    GammaPrior,
    PosteriorParams,
    bayes_noninf_reliability,
    bayes_reliability,
    estimate_all,
    estimate_kernel,
    mle_reliability,
    mle_scale,
    posterior_params,
    true_reliability,
    umvue_reliability,
)
from .intervals import (
    METHODS,
    IntervalEstimate,
    asymptotic_ci,
    delta_variance,
    exact_ci,
)
from .sampling import (
    CensoredSample,
    ExponentialScales,
    RngStream,
    StressStrengthData,
    apply_type2_censoring,
    draw_dataset,
    draw_exponential_sample,
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
    chisq_cdf,
    chisq_quantile,
    f_cdf,
    f_quantile,
    gauss_legendre,
    ln_gamma,
    normal_cdf,
    normal_quantile,
    reg_incomplete_beta,
    reg_lower_gamma,
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
    "PosteriorParams",
    "RngStream",
    "SimCellConfig",
    "SimCellResult",
    "SimulationError",
    "StressStrengthData",
    "apply_type2_censoring",
    "asymptotic_ci",
    "bayes_noninf_reliability",
    "bayes_reliability",
    "chisq_cdf",
    "chisq_quantile",
    "delta_variance",
    "draw_dataset",
    "draw_exponential_sample",
    "estimate_all",
    "estimate_kernel",
    "exact_ci",
    "f_cdf",
    "f_quantile",
    "gauss_legendre",
    "ln_gamma",
    "mle_reliability",
    "mle_scale",
    "normal_cdf",
    "normal_quantile",
    "posterior_params",
    "reg_incomplete_beta",
    "reg_lower_gamma",
    "run_cell",
    "run_coverage",
    "run_grid",
    "true_reliability",
    "umvue_reliability",
]
