"""Special functions and quadrature rules used by the estimators.

Everything here is self-contained and deterministic: the normal quantile is
found by bisection on its CDF, the F quantile by safeguarded Halley steps on
the regularized incomplete beta function, and Gauss-Legendre rules by
Newton's method on the Legendre three-term recurrence.
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
# Enough steps for bisection alone to take [0, 1] down to adjacent floats
# around any root, including one among the subnormals.
_QUANTILE_MAX_ITER = 1200


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
    return _beta_tails(a, b, x)[0]


def _beta_tails(a: float, b: float, x: float) -> tuple[float, float, float]:
    # (I_x(a, b), 1 - I_x(a, b), x**a * (1 - x)**b / B(a, b)) for 0 < x < 1.
    # The continued fraction gives one tail directly, to full relative
    # precision; the other is its complement.
    front = math.exp(
        a * math.log(x)
        + b * math.log1p(-x)
        + math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        lower = front * _beta_continued_fraction(a, b, x) / a
        return lower, 1.0 - lower, front
    upper = front * _beta_continued_fraction(b, a, 1.0 - x) / b
    return 1.0 - upper, upper, front


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
    """Lower-tail F quantile with (d1, d2) degrees of freedom.

    F = (d2 * x) / (d1 * (1 - x)), where I_x(d1/2, d2/2) = p is solved by
    :func:`_beta_quantile`, so the quantile is as accurate as the incomplete
    beta function in whichever tail is the smaller.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not (math.isfinite(d1) and d1 > 0.0 and math.isfinite(d2) and d2 > 0.0):
        raise ValueError(f"degrees of freedom must be positive, got d1={d1}, d2={d2}")
    x, y = _beta_quantile(p, 0.5 * d1, 0.5 * d2)
    return (d2 * x) / (d1 * y)


def _beta_quantile(p: float, a: float, b: float) -> tuple[float, float]:
    # (x, 1 - x) with I_x(a, b) = p.  The iteration runs on whichever of x
    # and 1 - x is below 1/2, written t ~ Beta(a, b) after swapping the
    # shapes and tails if need be, so both are returned to full relative
    # precision.  The residual compares the tail whose target is exact,
    # I_t(a, b) = p for p <= 1/2 and I_(1-t)(b, a) = 1 - p above (1 - p is
    # then exact), so neither is lost to cancellation.  Halley steps use the
    # beta density front / (t (1 - t)); a step that leaves the bracket
    # [lo, hi] kept from the residual signs, or shrinks by less than half,
    # becomes a bisection step, so the search ends wherever bisection would.
    q = 1.0 - p
    x, y = _beta_guess(p, q, a, b)
    swapped = y < x
    if swapped:
        a, b, p, q, x = b, a, q, p, y
    t = x if 0.0 < x < 1.0 else 0.5
    lo, hi, step = 0.0, 1.0, 1.0
    for _ in range(_QUANTILE_MAX_ITER):
        if t > 0.5:  # carry on in the complement, which is exact here
            a, b, p, q, swapped = b, a, q, p, not swapped
            t, lo, hi = 1.0 - t, 1.0 - hi, 1.0 - lo
        lower_tail, upper_tail, front = _beta_tails(a, b, t)
        residual = q - upper_tail if p > 0.5 else lower_tail - p  # increasing in t
        if residual == 0.0:
            break
        if residual < 0.0:
            lo = t
        else:
            hi = t
        previous, step = step, math.inf
        if front > 0.0:
            u = residual * t * (1.0 - t) / front
            step = u / (1.0 - 0.5 * min(1.0, u * ((a - 1.0) / t - (b - 1.0) / (1.0 - t))))
        new = t - step
        # Halley steps shrink cubically near the root; one below 1e-9 t that
        # fails to halve is noise in the incomplete beta, which t can no
        # longer improve on.
        if abs(step) <= 1e-13 * t or (abs(step) <= 1e-9 * t and abs(step) > 0.5 * abs(previous)):
            t = min(max(new, lo), hi)
            break
        if lo < new < hi and abs(step) <= 0.5 * abs(previous):
            t = new
            continue
        new = 0.5 * (lo + hi)
        if not lo < new < hi:
            break  # the bracket is down to adjacent floats
        step, t = t - new, new
    else:
        raise NonConvergenceError(f"beta quantile did not converge at p={p}, a={a}, b={b}")
    return (1.0 - t, t) if swapped else (t, 1.0 - t)


def _beta_guess(p: float, q: float, a: float, b: float) -> tuple[float, float]:
    # A rough (x, 1 - x) with I_x(a, b) = p, q = 1 - p (Numerical Recipes,
    # invbetai).  For a, b >= 1, the Abramowitz-Stegun 26.5.22 normal
    # approximation; otherwise whichever power-law tail holds p.
    if a >= 1.0 and b >= 1.0:
        s = math.sqrt(-2.0 * math.log(min(p, q)))
        z = s - (2.30753 + 0.27061 * s) / (1.0 + s * (0.99229 + 0.04481 * s))
        if p > 0.5:
            z = -z
        al = (z * z - 3.0) / 6.0
        h = 2.0 / (1.0 / (2.0 * a - 1.0) + 1.0 / (2.0 * b - 1.0))
        w = z * math.sqrt(al + h) / h - (1.0 / (2.0 * b - 1.0) - 1.0 / (2.0 * a - 1.0)) * (
            al + 5.0 / 6.0 - 2.0 / (3.0 * h)
        )
        # x = a / (a + b exp(2w)), written so that neither side overflows.
        e = 2.0 * w + math.log(b / a)
        small = math.exp(-abs(e)) / (1.0 + math.exp(-abs(e)))
        return (small, 1.0 - small) if e > 0.0 else (1.0 - small, small)
    lower_mass = math.exp(a * math.log(a / (a + b))) / a
    upper_mass = math.exp(b * math.log(b / (a + b))) / b
    total = lower_mass + upper_mass
    if p < lower_mass / total:
        x = (a * total * p) ** (1.0 / a)
        return x, 1.0 - x
    y = (b * total * q) ** (1.0 / b)
    return 1.0 - y, y


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
