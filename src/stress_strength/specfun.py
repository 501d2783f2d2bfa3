"""Special functions and quadrature rules used by the estimators.

Everything here is self-contained and deterministic: quantiles are obtained
by bracketed bisection on CDFs built from the regularized incomplete beta
function, and Gauss-Legendre rules are built by Newton's method on the
Legendre three-term recurrence.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable

import numpy as np

__all__ = [
    "NonConvergenceError",
    "reg_incomplete_beta",
    "normal_cdf",
    "normal_quantile",
    "f_cdf",
    "f_quantile",
    "gauss_legendre",
]

_CF_MAX_ITER = 500
_CF_TINY = 1e-300


class NonConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    # Modified Lentz evaluation of the standard continued fraction for the
    # incomplete beta; converges fast when x < (a + 1) / (a + b + 2).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _CF_TINY:
        d = _CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, _CF_MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise NonConvergenceError(f"incomplete beta continued fraction stalled at a={a}, b={b}, x={x}")


def reg_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (math.isfinite(a) and a > 0.0 and math.isfinite(b) and b > 0.0):
        raise ValueError(f"shape parameters must be positive, got a={a}, b={b}")
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        a * math.log(x)
        + b * math.log1p(-x)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


def normal_cdf(z: float) -> float:
    """Standard normal CDF."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def _bisect_monotone(cdf: Callable[[float], float], p: float, lo: float, hi: float) -> float:
    # Bisection on a nondecreasing cdf with cdf(lo) <= p <= cdf(hi); iterates
    # until the bracket collapses to adjacent floats, so the answer is as
    # accurate as the cdf itself.
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            break
        if cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@lru_cache(maxsize=8192)
def normal_quantile(p: float) -> float:
    """Standard normal quantile, found by bisection on :func:`normal_cdf`."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return _bisect_monotone(normal_cdf, p, -40.0, 40.0)


def f_cdf(x: float, d1: float, d2: float) -> float:
    """F distribution CDF with (d1, d2) degrees of freedom."""
    if not (math.isfinite(d1) and d1 > 0.0 and math.isfinite(d2) and d2 > 0.0):
        raise ValueError(f"degrees of freedom must be positive, got d1={d1}, d2={d2}")
    if x <= 0.0:
        return 0.0
    y = d1 * x / (d1 * x + d2)
    return reg_incomplete_beta(0.5 * d1, 0.5 * d2, y)


@lru_cache(maxsize=8192)
def f_quantile(p: float, d1: float, d2: float) -> float:
    """Lower-tail F quantile, found by bisection on :func:`f_cdf`."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not (math.isfinite(d1) and d1 > 0.0 and math.isfinite(d2) and d2 > 0.0):
        raise ValueError(f"degrees of freedom must be positive, got d1={d1}, d2={d2}")
    lo, hi = _expand_bracket(lambda q: f_cdf(q, d1, d2), p, start=1.0)
    return _bisect_monotone(lambda q: f_cdf(q, d1, d2), p, lo, hi)


def _expand_bracket(
    cdf: Callable[[float], float], p: float, start: float
) -> tuple[float, float]:
    # Multiplicative search outward from a positive starting point.
    lo = hi = start
    for _ in range(2100):
        if cdf(lo) <= p:
            break
        lo *= 0.5
    else:
        raise NonConvergenceError(f"failed to bracket quantile below, p={p}")
    for _ in range(2100):
        if cdf(hi) >= p:
            break
        hi *= 2.0
    else:
        raise NonConvergenceError(f"failed to bracket quantile above, p={p}")
    return lo, hi


def _legendre_with_derivative(k: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Bonnet's recurrence (j+1) P_{j+1} = (2j+1) x P_j - j P_{j-1} up to P_k,
    # then P_k' = k (x P_k - P_{k-1}) / (x**2 - 1); O(len(x)) memory.
    previous = np.ones_like(x)
    current = x.copy()
    for j in range(1, k):
        previous, current = current, ((2 * j + 1) / (j + 1)) * x * current - (j / (j + 1)) * previous
    return current, k * (x * current - previous) / ((x - 1.0) * (x + 1.0))


def gauss_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the k-point Gauss-Legendre rule on
    [-1, 1]; exact for polynomials of degree up to 2k - 1.

    The nonnegative roots of P_k start from Tricomi's approximation and are
    polished by Newton's method on the three-term recurrence, so building a
    rule takes O(k) memory and O(k**2) arithmetic; the negative half is the
    mirror image.
    """
    if not (isinstance(k, int) and k >= 1):
        raise ValueError(f"k must be a positive integer, got {k!r}")
    i = np.arange(1, (k + 1) // 2 + 1)
    x = (1.0 - (k - 1.0) / (8.0 * k**3)) * np.cos(np.pi * (i - 0.25) / (k + 0.5))
    for _ in range(100):
        p, dp = _legendre_with_derivative(k, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        raise NonConvergenceError(f"Gauss-Legendre nodes for k={k} did not converge")
    if k % 2:
        x[-1] = 0.0  # the middle root of an odd-degree P_k
    _, dp = _legendre_with_derivative(k, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # x runs from the largest root down; mirror it onto the negative half.
    mirrored = slice(None, -1) if k % 2 else slice(None)
    nodes = np.concatenate((-x[mirrored], x[::-1]))
    weights = np.concatenate((w[mirrored], w[::-1]))
    return nodes, weights
