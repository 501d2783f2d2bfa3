"""Exact reference values for the benchmark's output checks, computed with
scipy and numpy only, never with the package under test.

Everything rests on Epstein & Sobel (1953): the total time on test of a
type-II censored exponential sample with r failures is scale * Gamma(r).
So the scale-MLE ratio W = (V/r2)/(Z/r1) * (alpha/beta) is F(2*r2, 2*r1),
and every estimator of R = alpha/(alpha+beta) has an exact law.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import special, stats

# Sizes of the rules below.  selftest.py checks the F-law, Gamma-law and
# log-odds rules against rules twice as large; the polynomial rules are
# exact.
F_LAW_NODES = 200
GAMMA_LAW_NODES = 24
LOG_ODDS_POINTS = 200
REGION_NODES = 64


@lru_cache(maxsize=None)
def _unit_legendre(k: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = leggauss(k)
    return 0.5 * (nodes + 1.0), 0.5 * weights


@lru_cache(maxsize=None)
def f_law(r1: int, r2: int) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and weights for E[g(W)], W ~ F(2*r2, 2*r1).

    Gauss-Legendre in the probability scale u, with W = F^{-1}(u), so the
    rule follows the law however sharply it peaks at large r.
    """
    u, w = _unit_legendre(F_LAW_NODES)
    return stats.f.ppf(u, 2 * r2, 2 * r1), w


@lru_cache(maxsize=None)
def _gamma_law(shape: int) -> tuple[np.ndarray, np.ndarray]:
    # Generalised Gauss-Laguerre: E[g(G)] for G ~ Gamma(shape).
    x, w = special.roots_genlaguerre(GAMMA_LAW_NODES, shape - 1)
    return x, w / math.gamma(shape)


def posterior_mean(a1, zeta, a2, tau):
    """E[zeta*G2 / (zeta*G2 + tau*G1)], G1 ~ Gamma(a1), G2 ~ Gamma(a2).

    This is the Bayes estimate of R with strength posterior (a1, zeta) and
    stress posterior (a2, tau), written as a Beta integral in the log-odds
    y = log(G1/G2): density exp(a1*y) / (1 + exp(y))**(a1+a2) / B(a1, a2),
    integrand 1 / (1 + (tau/zeta) * exp(y)).  Both are analytic near the
    real line and decay exponentially, so the trapezoidal rule over mode
    +- max(12 sd, 45/shape) converges geometrically; it matches
    high-precision quadrature to 1e-13 for shapes 1 to 3000 and tau/zeta
    out to 1e+-12.  (scipy's hyp2f1 form of the same integral returns NaN
    or wrong values once the shapes reach the hundreds.)
    """
    a1, zeta, a2, tau = np.broadcast_arrays(*(np.asarray(v, float) for v in (a1, zeta, a2, tau)))
    shape = a1.shape
    a1, a2 = a1.reshape(-1, 1), a2.reshape(-1, 1)
    log_c = np.log(tau / zeta).reshape(-1, 1)
    mode = np.log(a1 / a2)
    sd = np.sqrt(special.polygamma(1, a1) + special.polygamma(1, a2))
    lo = mode - np.maximum(12.0 * sd, 45.0 / a1)
    hi = mode + np.maximum(12.0 * sd, 45.0 / a2)
    y = lo + (hi - lo) * np.linspace(0.0, 1.0, LOG_ODDS_POINTS)
    log_density = a1 * y - (a1 + a2) * np.logaddexp(0.0, y)
    density = np.exp(log_density - log_density.max(axis=1, keepdims=True))
    ratio = special.expit(-(y + log_c))
    return ((density * ratio).sum(axis=1) / density.sum(axis=1)).reshape(shape)


def umvue_of_ratio(r1: int, r2: int, rho: np.ndarray) -> np.ndarray:
    """UMVUE as P(V*B2 < Z*B1) given the totals, for rho = V/Z.

    B1 ~ Beta(1, r1-1) and B2 ~ Beta(1, r2-1) are the first normalised
    spacings over their totals, independent given the totals.  Conditioning
    on B2 = b leaves (1 - rho*b)**(r1-1), a polynomial of degree
    r1+r2-3 in b once multiplied by B2's density, so Gauss-Legendre with
    ceil((r1+r2-2)/2) nodes on (0, min(1, 1/rho)) is exact.  Needs
    r1, r2 >= 2.
    """
    rho = np.asarray(rho, float)
    b, w = _unit_legendre((r1 + r2) // 2 + 1)
    top = np.minimum(1.0, 1.0 / rho)[:, None]
    bb = top * b
    density = (r2 - 1) * np.exp((r2 - 2) * np.log1p(-bb))
    survival = np.exp((r1 - 1) * np.log1p(-np.minimum(rho[:, None] * bb, 1.0)))
    return (top * w * density * survival).sum(axis=1)


def umvue_region(r1: int, r2: int, z_total: float, v_total: float) -> float:
    """UMVUE as the 2-D region integral of the two spacing densities over
    {v < z}: outer v on (0, min(Z, V)), inner z on (v, Z).

    A spacing with r = 1 is its total (a point mass), which collapses its
    dimension.  Exact for r1 + r2 <= 2*REGION_NODES + 1.
    """
    t, w = _unit_legendre(REGION_NODES)

    def strength_tail(v):  # P(z1 > v) for the strength spacing z1
        v = np.asarray(v, float)
        if r1 == 1:
            return (v < z_total).astype(float)
        z = v[..., None] + (z_total - v[..., None]) * t
        dens = (r1 - 1) / z_total * np.exp((r1 - 2) * np.log1p(-z / z_total))
        return ((z_total - v)[..., None] * w * dens).sum(axis=-1)

    if r2 == 1:
        return float(strength_tail(v_total)) if v_total < z_total else 0.0
    top = min(z_total, v_total)
    v = top * t
    dens = (r2 - 1) / v_total * np.exp((r2 - 2) * np.log1p(-v / v_total))
    return float((top * w * dens * strength_tail(v)).sum())


def _moments(values: np.ndarray, weights: np.ndarray, powers) -> list[float]:
    return [float(weights @ values**p) for p in powers]


def study_cell(r1: int, r2: int, alpha: float, beta: float, prior_strength, prior_stress) -> dict:
    """Exact mean and variance of each column the study checks.

    Returns ``{name: (mean, variance)}`` for R1, MSE1 (the squared error of
    R1), R2, R3 and R4.  ``prior_*`` are (shape_u, scale_v) pairs.
    """
    true_r = alpha / (alpha + beta)
    w_nodes, weights = f_law(r1, r2)
    rho = (beta / alpha) * (r2 / r1) * w_nodes  # V/Z
    r1_hat = 1.0 / (1.0 + rho * r1 / r2)
    m1, m2 = _moments(r1_hat, weights, (1, 2))
    s2, s4 = _moments(r1_hat - true_r, weights, (2, 4))
    r4 = posterior_mean(r1, 1.0, r2, rho)
    q1, q2 = _moments(r4, weights, (1, 2))
    umvue_sq = _moments(umvue_of_ratio(r1, r2, rho), weights, (2,))[0]
    out = {
        "R1": (m1, m2 - m1 * m1),
        "MSE1": (s2, s4 - s2 * s2),
        "R2": (true_r, umvue_sq - true_r * true_r),
        "R4": (q1, q2 - q1 * q1),
    }
    if tuple(prior_strength) == (0.0, 0.0) and tuple(prior_stress) == (0.0, 0.0):
        out["R3"] = out["R4"]
        return out
    # With an informative prior R3 depends on Z and V separately, so take
    # the expectation over both Gamma laws.
    g1, w1 = _gamma_law(r1)
    g2, w2 = _gamma_law(r2)
    (u1, v1), (u2, v2) = prior_strength, prior_stress
    r3 = posterior_mean(u1 + r1, v1 + alpha * g1[:, None], u2 + r2, v2 + beta * g2[None, :])
    ww = w1[:, None] * w2[None, :]
    p1, p2 = float((ww * r3).sum()), float((ww * r3 * r3).sum())
    out["R3"] = (p1, p2 - p1 * p1)
    return out


def coverage_cell(r1: int, r2: int, alpha: float, beta: float, level: float, method: str) -> dict:
    """Exact coverage and mean width (with its variance) of one interval
    method, from the F law of W.

    Returns ``{"coverage": p, "width": (mean, variance)}``.
    """
    true_r = alpha / (alpha + beta)
    k = beta / alpha
    w_nodes, weights = f_law(r1, r2)
    r_hat = 1.0 / (1.0 + k * w_nodes)
    tail = 0.5 * (1.0 - level)
    if method == "exact":
        # The pivot W is F(2*r2, 2*r1) whatever the scales: coverage is the level.
        lo_q, hi_q = stats.f.ppf([tail, 1.0 - tail], 2 * r2, 2 * r1)
        pivot = k * w_nodes  # the observed r1*V / (r2*Z)
        width = 1.0 / (1.0 + pivot / hi_q) - 1.0 / (1.0 + pivot / lo_q)
        coverage = level
    else:
        c = stats.norm.ppf(1.0 - tail) * math.sqrt(1.0 / r1 + 1.0 / r2)
        half = c * r_hat * (1.0 - r_hat)
        width = np.minimum(1.0, r_hat + half) - np.maximum(0.0, r_hat - half)
        # Covered iff x2 <= R_hat <= x1, with x1 the root in [0, 1] of
        # c*x**2 + (1-c)*x = R and x2 that of (1+c)*x - c*x**2 = R.
        x1 = (-(1.0 - c) + math.sqrt((1.0 - c) ** 2 + 4.0 * c * true_r)) / (2.0 * c)
        x2 = ((1.0 + c) - math.sqrt((1.0 + c) ** 2 - 4.0 * c * true_r)) / (2.0 * c)
        if x2 > x1:
            coverage = 0.0
        else:
            # R_hat = 1/(1 + k*W) falls as W rises.
            w_lo, w_hi = (1.0 / x1 - 1.0) / k, (1.0 / x2 - 1.0) / k
            coverage = float(stats.f.cdf(w_hi, 2 * r2, 2 * r1) - stats.f.cdf(w_lo, 2 * r2, 2 * r1))
    m1, m2 = _moments(width, weights, (1, 2))
    return {"coverage": coverage, "width": (m1, m2 - m1 * m1)}
