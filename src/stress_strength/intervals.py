"""Confidence intervals for the reliability R = P(Y < X).

Two constructions: a delta-method interval around the MLE, and an exact
interval from the scaled F pivot of the two total times on test.
:func:`interval_kernel` computes either over many pairs of totals at once,
and :func:`asymptotic_ci` and :func:`exact_ci` are its length-1 case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import _check_inside, _check_totals, _mle
from .sampling import StressStrengthData
from .specfun import f_quantile, normal_quantile

__all__ = [
    "IntervalEstimate",
    "METHODS",
    "asymptotic_ci",
    "exact_ci",
    "interval_kernel",
]

METHODS = ("asymptotic", "exact")


@dataclass(frozen=True)
class IntervalEstimate:
    """One interval, checked by :func:`asymptotic_ci` or :func:`exact_ci`."""

    lower: float
    upper: float
    level: float
    method: str


def _check_level(level: float) -> None:
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must lie in (0, 1), got {level}")


def _check_method_and_level(method: str, level: float) -> None:
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    _check_level(level)


def interval_kernel(
    method: str, r1: int, z, r2: int, v, level: float
) -> tuple[np.ndarray, np.ndarray]:
    """Bounds of the ``method`` interval for each pair of totals on test
    (z[i], v[i]), as two arrays (lower, upper).

    ``"asymptotic"`` is the delta-method normal interval around the MLE,
    clamped to [0, 1].  The scale MLEs have variances ``alpha**2/r1`` and
    ``beta**2/r2`` (inverse Fisher information), and the gradient of
    R = alpha / (alpha + beta) contracts them to the variance
    ``R**2 * (1 - R)**2 * (1/r1 + 1/r2)``, evaluated at the MLE.  Its
    standard deviation R(1 - R) * sqrt(1/r1 + 1/r2) is computed as a
    product rather than as the root of that variance, whose square
    underflows to 0 once the MLE falls below about 1e-154.  An MLE that
    rounds to 0 or 1 raises ValueError.

    ``"exact"`` inverts the F pivot.  Twice each total time on test over
    its scale is chi-square with twice the observed count as degrees of
    freedom, so ``(r1*V*alpha)/(r2*Z*beta)`` is F(2*r2, 2*r1) exactly, and
    the central probability statement gives bounds that hold at the nominal
    level for every sample size.  Its two F quantiles depend only on
    (r1, r2, level), so they are found once per call.

    Exact bounds that break 0 <= lower <= upper <= 1, or are NaN, raise
    ValueError; the asymptotic bounds satisfy it by construction.
    """
    _check_method_and_level(method, level)
    z, v = _check_totals(r1, z, r2, v)
    return _intervals(method, r1, z, r2, v, level)


def _intervals(
    method: str, r1: int, z: np.ndarray, r2: int, v: np.ndarray, level: float
) -> tuple[np.ndarray, np.ndarray]:
    if method == "asymptotic":
        r_hat = _mle(r1, z, r2, v)
        _check_inside(r_hat[:, None], ("r_hat",))
        # These bounds need no check.  r_hat lies inside (0, 1), so the spread
        # lies in [0, 1/4] (it may underflow to 0); normal_quantile rejects
        # 0.5 * (1 + level) = 1, so its factor is finite and >= 0; so half
        # is finite and >= 0, and nothing here is NaN.  Rounding is monotone,
        # so r_hat - half <= r_hat <= r_hat + half, and with 0 < r_hat < 1,
        # 0 <= max(r_hat - half, 0) <= r_hat <= min(r_hat + half, 1) <= 1.
        spread = r_hat * (1.0 - r_hat)
        half = normal_quantile(0.5 * (1.0 + level)) * (spread * math.sqrt(1.0 / r1 + 1.0 / r2))
        return np.maximum(r_hat - half, 0.0), np.minimum(r_hat + half, 1.0)
    tail = 0.5 * (1.0 - level)
    quantiles = [[f_quantile(tail, 2.0 * r2, 2.0 * r1)],
                 [f_quantile(1.0 - tail, 2.0 * r2, 2.0 * r1)]]
    lower, upper = _mle(r1, z, r2, v, np.array(quantiles))
    ok = (lower >= 0.0) & (lower <= upper) & (upper <= 1.0)  # NaN fails each
    if np.count_nonzero(ok) < ok.size:
        i = np.argmin(ok)
        raise ValueError(
            f"bounds must satisfy 0 <= lower <= upper <= 1, got [{lower[i]}, {upper[i]}]")
    return lower, upper


def _interval_of(method: str, data: StressStrengthData, level: float) -> IntervalEstimate:
    # The length-1 case of interval_kernel; a sample's total is already
    # known to be positive and finite.
    _check_method_and_level(method, level)
    lower, upper = _intervals(method, data.strength.observed, np.array([data.strength.ttt]),
                              data.stress.observed, np.array([data.stress.ttt]), level)
    return IntervalEstimate(float(lower[0]), float(upper[0]), level, method)


def asymptotic_ci(data: StressStrengthData, level: float = 0.95) -> IntervalEstimate:
    """Normal-approximation interval around the MLE, clamped to [0, 1]; see
    :func:`interval_kernel`."""
    return _interval_of("asymptotic", data, level)


def exact_ci(data: StressStrengthData, level: float = 0.95) -> IntervalEstimate:
    """Exact interval from the F pivot; see :func:`interval_kernel`."""
    return _interval_of("exact", data, level)
