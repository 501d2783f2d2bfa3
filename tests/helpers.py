"""Shared oracles and builders used across the test modules.

The oracles deliberately avoid the library's own evaluation routes: the
region integral is brute-forced with nested Gauss-Legendre panels, and the
posterior mean is estimated from raw gamma draws, by scipy's adaptive
quadrature in the Beta variable, or by mpmath in 30-digit arithmetic, and
mpmath integrates the UMVUE the other way round from the estimators.

``integrate_1d`` is the adaptive Gauss-Kronrod integrator the estimators
used before they moved to fixed rules; with the ``*_adaptive_reference``
integrands it recomputes the earlier results, which the kernels must keep
to 1e-10 wherever that route was accurate.
"""

from __future__ import annotations

import functools
import heapq
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, special, stats

import stress_strength.simulation as simulation
from stress_strength import CensoredSample, NonConvergenceError, StressStrengthData


def kill_worker_on(monkeypatch, dies: Callable[[object], bool]) -> None:
    """Make ``run_grid``'s worker process exit at once on each cell for which
    ``dies(config)`` holds.  Workers are forked, so they run the patched
    ``run_cell``."""
    real_run_cell = simulation.run_cell

    def run_cell_or_exit(config):
        if dies(config):
            os._exit(1)
        return real_run_cell(config)

    monkeypatch.setattr(simulation, "run_cell", run_cell_or_exit)
    monkeypatch.setattr(simulation, "ProcessPoolExecutor", functools.partial(
        ProcessPoolExecutor, mp_context=multiprocessing.get_context("fork")))


def sample_with_totals(observed: int, total_time: float) -> CensoredSample:
    """A complete sample of ``observed`` equal times whose total time on
    test is ``total_time`` up to float rounding; read ``.ttt`` back for the
    realized value."""
    times = (total_time / observed,) * observed
    return CensoredSample.from_times(times, observed)


def data_with_totals(r1: int, r2: int, z_total: float, v_total: float) -> StressStrengthData:
    return StressStrengthData(
        strength=sample_with_totals(r1, z_total),
        stress=sample_with_totals(r2, v_total),
    )


def spacing_density(t: np.ndarray, observed: int, total: float) -> np.ndarray:
    """Conditional density of one normalized spacing given the sample's
    total time on test; supported on (0, total)."""
    return (observed - 1) / total * (1.0 - t / total) ** (observed - 2)


def umvue_region_oracle(
    r1: int, r2: int, z_total: float, v_total: float, panels: int = 160
) -> float:
    """Brute-force the two-dimensional region integral behind the UMVUE.

    Integrates the product of the two conditional spacing densities over
    the region {v < z} by iterated Gauss-Legendre: an outer rule in v on
    (0, min(Z, V)) and, for each outer node, an inner rule in z on (v, Z).
    Needs r1, r2 >= 2 so both densities exist.
    """
    nodes, weights = leggauss(panels)
    outer_upper = min(z_total, v_total)
    v = 0.5 * outer_upper * (nodes + 1.0)
    wv = 0.5 * outer_upper * weights
    total = 0.0
    for v_i, wv_i in zip(v, wv):
        z = 0.5 * (z_total - v_i) * (nodes + 1.0) + v_i
        wz = 0.5 * (z_total - v_i) * weights
        inner = float(np.sum(wz * spacing_density(z, r1, z_total)))
        total += wv_i * float(spacing_density(np.array([v_i]), r2, v_total)[0]) * inner
    return total


def umvue_mp_oracle(r1: int, r2: int, z_total: float, v_total: float) -> float:
    """The UMVUE in 40-digit arithmetic, integrated the other way round from
    the estimators: the stress spacing's density times the strength
    spacing's survival function, P(z1 > t | Z) = (1 - t/Z)**(r1-1), over
    (0, min(Z, V)), with panels cut geometrically towards 0 where the
    densities peak at large r.  Needs r2 >= 2."""
    with mpmath.workdps(40):
        z, v = mpmath.mpf(z_total), mpmath.mpf(v_total)

        def integrand(t):
            return (r2 - 1) / v * (1 - t / v) ** (r2 - 2) * (1 - t / z) ** (r1 - 1)

        upper = min(z, v)
        cuts = [0] + [upper * mpmath.mpf(10) ** -j for j in range(6, 0, -1)] + [upper]
        return float(mpmath.quad(integrand, cuts))


def posterior_mean_mc_oracle(
    a1: float,
    zeta: float,
    a2: float,
    tau: float,
    draws: int,
    seed: int,
    chunk: int = 1_000_000,
) -> tuple[float, float]:
    """Monte Carlo posterior mean of R = zeta*G2 / (zeta*G2 + tau*G1) with
    G1 ~ Gamma(a1), G2 ~ Gamma(a2); returns (mean, standard error)."""
    rng = np.random.default_rng(seed)
    remaining = draws
    total = 0.0
    total_sq = 0.0
    while remaining > 0:
        size = min(chunk, remaining)
        g1 = rng.gamma(a1, size=size)
        g2 = rng.gamma(a2, size=size)
        ratio = zeta * g2 / (zeta * g2 + tau * g1)
        total += float(np.sum(ratio))
        total_sq += float(np.sum(ratio * ratio))
        remaining -= size
    mean = total / draws
    variance = max(0.0, total_sq / draws - mean * mean)
    return mean, (variance / draws) ** 0.5


def posterior_mean_quad_oracle(a1: float, zeta: float, a2: float, tau: float) -> float:
    """Posterior mean of R = zeta*(1-b) / (zeta*(1-b) + tau*b) for
    b = G1/(G1+G2) ~ Beta(a1, a2), by scipy's adaptive quadrature over
    panels cut at Beta quantiles, so that no panel can miss a narrow peak,
    and at the point where R crosses one half."""
    law = stats.beta(a1, a2)
    cuts = {0.0, 1.0, zeta / (zeta + tau)}
    cuts.update(law.ppf(np.array([1e-15, 1e-9, 1e-5, 0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99,
                                  1 - 1e-5, 1 - 1e-9, 1 - 1e-15])).tolist())
    cuts = sorted(c for c in cuts if 0.0 <= c <= 1.0)

    def integrand(b: float) -> float:
        num = zeta * (1.0 - b)
        return num / (num + tau * b) * law.pdf(b)

    return math.fsum(
        integrate.quad(integrand, lo, hi, epsabs=1e-16, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts, cuts[1:]) if hi > lo
    )


def posterior_mean_mp_oracle(a1: float, zeta: float, a2: float, tau: float) -> float:
    """The same posterior mean in 30-digit arithmetic, over the log-odds
    y = log(G1/G2) on the whole real line, normalised by the exact Beta
    function; mpmath's tanh-sinh quadrature runs over panels cut around
    the mode and at the point where R crosses one half."""
    with mpmath.workdps(30):
        a1, a2 = mpmath.mpf(a1), mpmath.mpf(a2)
        shift = mpmath.log(mpmath.mpf(tau) / mpmath.mpf(zeta))
        mode = mpmath.log(a1 / a2)
        sd = mpmath.sqrt(mpmath.psi(1, a1) + mpmath.psi(1, a2))
        norm = mpmath.beta(a1, a2)

        def integrand(y):
            weight = mpmath.exp(a1 * y - (a1 + a2) * mpmath.log1p(mpmath.exp(y))) / norm
            return weight / (1 + mpmath.exp(y + shift))

        offsets = (0, 1, 2, 4, 8, 16, 32, 64)
        cuts = sorted({mode + j * sd for j in offsets} | {mode - j * sd for j in offsets} | {-shift})
        return float(mpmath.quad(integrand, [-mpmath.inf] + cuts + [mpmath.inf]))


# 15-point Kronrod extension of the 7-point Gauss-Legendre rule on [-1, 1].
# Gauss points sit at the odd indices of the Kronrod array.
_GK_NODES = np.array([
    -0.991455371120812639206854697526329, -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926, -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730, -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245, 0.0,
    0.207784955007898467600689403773245, 0.405845151377397166906606412076961,
    0.586087235467691130294144838258730, 0.741531185599394439863864773280788,
    0.864864423359769072789712788640926, 0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_GK_WEIGHTS = np.array([
    0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
    0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
    0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
    0.204432940075298892414161999234649, 0.209482141084727828012999174891714,
    0.204432940075298892414161999234649, 0.190350578064785409913256402421014,
    0.169004726639267902826583426598550, 0.140653259715525918745189590510238,
    0.104790010322250183839876322541518, 0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
    0.381830050505118944950369775488975, 0.417959183673469387755102040816327,
    0.381830050505118944950369775488975, 0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])


def _gauss_kronrod_15(
    f: Callable[[np.ndarray], np.ndarray], a: float, b: float
) -> tuple[float, float]:
    center = 0.5 * (a + b)
    halfwidth = 0.5 * (b - a)
    x = center + halfwidth * _GK_NODES
    if not (a < x[0] and x[-1] < b):
        # Keep the rule open on intervals narrow enough for rounding to
        # push an abscissa onto an endpoint.
        x = np.clip(x, np.nextafter(a, b), np.nextafter(b, a))
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise ValueError("integrand must map a 1-d array to an array of the same shape")
    if not np.all(np.isfinite(y)):
        raise ValueError(f"integrand returned a non-finite value on [{a}, {b}]")
    kronrod = halfwidth * float(_GK_WEIGHTS @ y)
    gauss = halfwidth * float(_GAUSS_WEIGHTS @ y[1::2])
    # |K15 - G7| is a pessimistic proxy for the error of the K15 value.
    return kronrod, abs(kronrod - gauss)


def integrate_1d(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    abs_tolerance: float = 1e-10,
    max_subdivisions: int = 1_000_000,
) -> float:
    """Integrate a vectorized function over [lo, hi] by adaptive G7/K15,
    bisecting the worst subinterval until the summed error estimate drops
    below ``abs_tolerance``; raises NonConvergenceError past
    ``max_subdivisions`` splits."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"integration limits must be finite, got [{lo}, {hi}]")
    if lo > hi:
        raise ValueError(f"lower limit exceeds upper limit: [{lo}, {hi}]")
    if lo == hi:
        return 0.0
    value, error = _gauss_kronrod_15(f, lo, hi)
    # Heap of (-error, tiebreak, a, b, value, error).
    counter = 0
    intervals = [(-error, counter, lo, hi, value, error)]
    total_value, total_error = value, error
    splits = 0
    while total_error > abs_tolerance:
        if splits >= max_subdivisions:
            raise NonConvergenceError(
                f"quadrature error {total_error:.3e} above tolerance {abs_tolerance:.3e} "
                f"after {splits} subdivisions"
            )
        _, _, a, b, val, err = heapq.heappop(intervals)
        mid = 0.5 * (a + b)
        if not (a < mid < b):
            raise NonConvergenceError(f"interval [{a}, {b}] cannot be bisected further")
        left_val, left_err = _gauss_kronrod_15(f, a, mid)
        right_val, right_err = _gauss_kronrod_15(f, mid, b)
        total_value += left_val + right_val - val
        total_error += left_err + right_err - err
        counter += 1
        heapq.heappush(intervals, (-left_err, counter, a, mid, left_val, left_err))
        counter += 1
        heapq.heappush(intervals, (-right_err, counter, mid, b, right_val, right_err))
        splits += 1
    return total_value


def umvue_adaptive_reference(r1: int, r2: int, z_total: float, v_total: float) -> float:
    """The UMVUE as the estimators computed it before the fixed rules, for
    r1, r2 >= 2: the spacing integral by ``integrate_1d`` plus the tail."""
    def integrand(t: np.ndarray) -> np.ndarray:
        g = (r1 - 1.0) / z_total * (1.0 - t / z_total) ** (r1 - 2)
        return g * -np.expm1((r2 - 1) * np.log1p(-t / v_total))

    value = integrate_1d(integrand, 0.0, min(z_total, v_total))
    if v_total < z_total:
        value += math.exp((r1 - 1) * math.log1p(-v_total / z_total))
    return min(1.0, max(0.0, value))


def posterior_mean_adaptive_reference(a1: float, zeta: float, a2: float, tau: float) -> float:
    """The posterior mean as the estimators computed it before the fixed
    rules: the Beta-weighted integral over (0, 1) by ``integrate_1d``.  It
    misses posterior peaks too narrow for its first panels to see."""
    ln_beta_norm = special.gammaln(a1) + special.gammaln(a2) - special.gammaln(a1 + a2)

    def integrand(b: np.ndarray) -> np.ndarray:
        num = zeta * (1.0 - b)
        ln_density = (a1 - 1.0) * np.log(b) + (a2 - 1.0) * np.log1p(-b) - ln_beta_norm
        return num / (num + tau * b) * np.exp(ln_density)

    return min(1.0, max(0.0, integrate_1d(integrand, 0.0, 1.0)))
