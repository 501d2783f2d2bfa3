"""Special functions and quadrature rules used by the estimators.

Everything here is self-contained and deterministic: the normal quantile
comes from the standard library (Wichura's AS 241), the F quantile from
safeguarded Halley steps on the regularized incomplete beta function, and
Gauss-Legendre rules from Newton's method on the Legendre three-term
recurrence.
"""

from __future__ import annotations

import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

__all__ = [
    "NonConvergenceError",
    "normal_quantile",
    "f_quantile",
    "gauss_legendre",
]

_CF_MAX_ITER = 500
_CF_TINY = 1e-300
# Enough steps for bisection alone to take [0, 1] down to adjacent floats
# around any root, including one among the subnormals.
_QUANTILE_MAX_ITER = 1200
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
# B_2n / (2n (2n - 1)) for n = 7 down to 1: the terms of Stirling's series.
_STIRLING_COEFFICIENTS = (1 / 156, -691 / 360360, 1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)


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
    for m in map(float, range(1, _CF_MAX_ITER + 1)):  # float m mixes faster with floats
        m2 = m + m
        am2 = a + m2
        aa = m * (b - m) * x / ((qam + m2) * am2)
        d = 1.0 + aa * d
        if abs(d) < _CF_TINY:
            d = _CF_TINY
        c = 1.0 + aa / c
        if abs(c) < _CF_TINY:
            c = _CF_TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / (am2 * (qap + m2))
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


def _beta_tails(a: float, b: float, x: float, log_beta: float) -> tuple[float, float, float]:
    # (I_x(a, b), 1 - I_x(a, b), x**a * (1 - x)**b / B(a, b)) for 0 < x < 1,
    # given log_beta = log B(a, b).  The continued fraction gives one tail
    # directly, to full relative precision; the other is its complement.
    front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
    if x < (a + 1.0) / (a + b + 2.0):
        lower = front * _beta_continued_fraction(a, b, x) / a
        return lower, 1.0 - lower, front
    upper = front * _beta_continued_fraction(b, a, 1.0 - x) / b
    return 1.0 - upper, upper, front


def _log_beta(a: float, b: float) -> float:
    # log B(a, b), symmetric in its shapes: kept by their sorted pair, so
    # that the two quantiles of an exact interval share one memo entry.
    return _sorted_log_beta(min(a, b), max(a, b))


@lru_cache(maxsize=128)
def _sorted_log_beta(a: float, b: float) -> float:
    # log B(a, b) for a <= b.  For b >= 10, lgamma(b) - lgamma(a + b) is taken
    # from Stirling's formula for both, so the two large values never cancel,
    # and for a >= 10 so is lgamma(a) (DiDonato & Morris, ACM TOMS 708,
    # 1992: betaln and algdiv).
    if b < 10.0:
        return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    rest = _stirling_remainder(b) - _stirling_remainder(a + b) - (b - 0.5) * math.log1p(a / b)
    if a < 10.0:
        return math.lgamma(a) + a * (1.0 - math.log(a + b)) + rest
    return (_HALF_LOG_2PI + _stirling_remainder(a) + (a - 0.5) * math.log(a / (a + b))
            - 0.5 * math.log(a + b) + rest)


def _stirling_remainder(x: float) -> float:
    # lgamma(x) - ((x - 0.5) log x - x + log sqrt(2 pi)) for x >= 10, by
    # Stirling's series; the first term left out is below 4e-17.
    t = 1.0 / (x * x)
    c0, c1, c2, c3, c4, c5, c6 = _STIRLING_COEFFICIENTS
    return ((((((c0 * t + c1) * t + c2) * t + c3) * t + c4) * t + c5) * t + c6) / x


@lru_cache(maxsize=8192)
def normal_quantile(p: float) -> float:
    """Standard normal quantile, by the standard library's
    ``NormalDist().inv_cdf`` (Wichura's algorithm AS 241)."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return NormalDist().inv_cdf(p)


@lru_cache(maxsize=8192)
def f_quantile(p: float, d1: float, d2: float) -> float:
    """Lower-tail F quantile with (d1, d2) degrees of freedom.

    F = (d2 * x) / (d1 * (1 - x)), where I_x(d1/2, d2/2) = p is solved by
    :func:`_beta_quantile`, so the quantile is as accurate as the incomplete
    beta function in whichever tail is the smaller.  The search stops once
    two Halley steps in a row put the next correction below rounding, so a
    quantile typically takes two evaluations of the incomplete beta.

    Degrees of freedom above 1e6 are rejected: larger shapes stall the
    incomplete beta's continued fraction near the mean.  With p from 1e-10
    to 1 - 1e-6 and the other count from 1 to 2000 or equal, every quantile
    converges up to 1.69e6; p = 0.5 with d1 = d2 fails first.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"p must lie in (0, 1), got {p}")
    if not (0.0 < d1 <= 1e6 and 0.0 < d2 <= 1e6):
        raise ValueError(f"degrees of freedom must lie in (0, 1e6], got d1={d1}, d2={d2}")
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
    # becomes a bisection step (geometric while the bracket is wide), so the
    # search ends wherever bisection would.  Two Halley steps in a row whose
    # cubic rate puts the next correction below rounding end it at once.
    q = 1.0 - p
    x, y = _beta_guess(p, q, a, b)
    swapped = y < x
    if swapped:
        a, b, p, q, x = b, a, q, p, y
    t = x if 0.0 < x < 1.0 else 0.5
    log_beta = _log_beta(a, b)  # symmetric, so unchanged when the shapes swap
    lo, hi, step, halley = 0.0, 1.0, 1.0, False
    for _ in range(_QUANTILE_MAX_ITER):
        if t > 0.5:  # carry on in the complement, which is exact here
            a, b, p, q, swapped = b, a, q, p, not swapped
            t, lo, hi = 1.0 - t, 1.0 - hi, 1.0 - lo
        lower_tail, upper_tail, front = _beta_tails(a, b, t, log_beta)
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
            # Where the density is subnormal, u can underflow or the correction
            # overflow, rounding the step to 0; the residual is not 0, so it failed.
            step = step or math.inf
        new = t - step
        # Halley steps shrink cubically near the root; one below 1e-9 t that
        # fails to halve is noise in the incomplete beta, which t can no
        # longer improve on.
        if abs(step) <= 1e-13 * t or (abs(step) <= 1e-9 * t and abs(step) > 0.5 * abs(previous)):
            t = min(max(new, lo), hi)
            break
        if lo < new < hi and abs(step) <= 0.5 * abs(previous):
            # Next correction ~ step**4 / previous**3; relative to t, it cannot underflow.
            if halley and abs(step / t * (step / previous) ** 3) <= 1e-17:
                t = new
                break
            t, halley = new, True
            continue
        halley = False
        # Bisect in log t while the bracket spans more than a factor of 16,
        # so that a root orders of magnitude below hi is not walked down
        # to one halving at a time.
        new = math.sqrt(lo) * math.sqrt(hi) if lo > 0.0 and hi > 16.0 * lo else 0.5 * (lo + hi)
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


def gauss_legendre(k: int, count: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Nodes (increasing) and weights of the k-point Gauss-Legendre rule on
    [-1, 1], exact for polynomials of degree up to 2k - 1: the ``count``
    smallest nodes, or all k by default.

    The nonnegative roots of P_k start from Tricomi's approximation and are
    polished by Newton's method on the three-term recurrence; the negative
    half is the mirror image.  Only the roots that the returned nodes need
    are polished, so ``count`` nodes take O(count) memory and O(k * count)
    arithmetic; the largest root converges last, so each node is the full rule's.
    """
    count = k if count is None else count
    if not all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in (k, count)) or count > k:
        raise ValueError(f"k and count must be positive integers, count <= k; got {k!r} and {count!r}")
    i = np.arange(1, min(count, (k + 1) // 2) + 1)
    x = (1.0 - (k - 1.0) / (8.0 * k**3)) * np.cos(np.pi * (i - 0.25) / (k + 0.5))
    for _ in range(100):
        p, dp = _legendre_with_derivative(k, x)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-14:
            break
    else:
        raise NonConvergenceError(f"Gauss-Legendre nodes for k={k} did not converge")
    if k % 2 and 2 * x.size > k:
        x[-1] = 0.0  # the middle root of an odd-degree P_k
    _, dp = _legendre_with_derivative(k, x)
    w = 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)
    # x runs from the largest root down; mirror it onto the negative half.
    nodes = np.concatenate((-x[: k // 2], x[::-1]))[:count]
    weights = np.concatenate((w[: k // 2], w[::-1]))[:count]
    return nodes, weights
