"""Confidence intervals for the reliability R = P(Y < X).

Two constructions: a delta-method interval around the MLE, and an exact
interval from the scaled F pivot of the two total times on test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .estimators import mle_reliability
from .sampling import StressStrengthData
from .specfun import f_quantile, normal_quantile

__all__ = [
    "IntervalEstimate",
    "METHODS",
    "delta_variance",
    "asymptotic_ci",
    "exact_ci",
]

METHODS = ("asymptotic", "exact")


@dataclass(frozen=True)
class IntervalEstimate:
    lower: float
    upper: float
    level: float
    method: str

    def __post_init__(self) -> None:
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if not 0.0 <= self.lower <= self.upper <= 1.0:
            raise ValueError(
                f"bounds must satisfy 0 <= lower <= upper <= 1, got [{self.lower}, {self.upper}]"
            )


def _check_delta_args(r_hat: float, r1: int, r2: int) -> None:
    if not 0.0 < r_hat < 1.0:
        raise ValueError(f"r_hat must lie strictly inside (0, 1), got {r_hat}")
    if r1 < 1 or r2 < 1:
        raise ValueError(f"observed counts must be >= 1, got r1={r1}, r2={r2}")


def delta_variance(r_hat: float, r1: int, r2: int) -> float:
    """Delta-method variance of the reliability MLE.

    The scale MLEs have variances ``alpha**2/r1`` and ``beta**2/r2``
    (inverse Fisher information), and the gradient of R contracts them to
    ``R**2 * (1 - R)**2 * (1/r1 + 1/r2)``, evaluated here at ``r_hat``.
    """
    _check_delta_args(r_hat, r1, r2)
    return r_hat * r_hat * (1.0 - r_hat) * (1.0 - r_hat) * (1.0 / r1 + 1.0 / r2)


def asymptotic_ci(data: StressStrengthData, level: float = 0.95) -> IntervalEstimate:
    """Normal-approximation interval around the MLE, clamped to [0, 1].

    The standard deviation R(1 - R) * sqrt(1/r1 + 1/r2) is computed as a
    product rather than as the root of :func:`delta_variance`, whose square
    underflows to 0 once r_hat falls below about 1e-154.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    r_hat = mle_reliability(data)
    r1, r2 = data.strength.observed, data.stress.observed
    _check_delta_args(r_hat, r1, r2)
    sigma = r_hat * (1.0 - r_hat) * math.sqrt(1.0 / r1 + 1.0 / r2)
    z = normal_quantile(0.5 * (1.0 + level))
    return IntervalEstimate(
        lower=max(0.0, r_hat - z * sigma),
        upper=min(1.0, r_hat + z * sigma),
        level=level,
        method="asymptotic",
    )


def exact_ci(data: StressStrengthData, level: float = 0.95) -> IntervalEstimate:
    """Exact interval from the F pivot.

    Twice each total time on test over its scale is chi-square with twice
    the observed count as degrees of freedom, so ``(r1*V*alpha)/(r2*Z*beta)``
    is F(2*r2, 2*r1) exactly.  Inverting the central probability statement
    gives bounds that hold at the nominal level for every sample size.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")
    r1 = data.strength.observed
    r2 = data.stress.observed
    w = (r1 * data.stress.ttt) / (r2 * data.strength.ttt)
    tail = 0.5 * (1.0 - level)
    f_lower_tail = f_quantile(tail, 2.0 * r2, 2.0 * r1)
    f_upper_tail = f_quantile(1.0 - tail, 2.0 * r2, 2.0 * r1)
    return IntervalEstimate(
        lower=1.0 / (1.0 + w / f_lower_tail),
        upper=1.0 / (1.0 + w / f_upper_tail),
        level=level,
        method="exact",
    )
