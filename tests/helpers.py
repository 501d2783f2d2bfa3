"""Shared oracles and builders used across the test modules.

The oracles deliberately avoid the library's own evaluation routes: the
region integral is brute-forced with nested Gauss-Legendre panels, and the
posterior mean is estimated from raw gamma draws, by scipy's adaptive
quadrature in the Beta variable, or by mpmath in 30-digit arithmetic, and
mpmath integrates the UMVUE the other way round from the estimators.

``draw_dataset`` builds one censored dataset from its order statistics:
it is the oracle for the library's ``draw_totals``, which draws only the
totals on test.
"""

from __future__ import annotations

import functools
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, stats

import stress_strength.sampling as sampling
import stress_strength.simulation as simulation
import stress_strength.specfun as specfun
from stress_strength import (
    CensoredSample,
    ExponentialScales,
    RngStream,
    StressStrengthData,
)


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


def fresh_draw_memo(monkeypatch) -> list[RngStream]:
    """Give ``draw_totals`` an empty draw memo for the rest of the test, and
    return the list, filled as the test runs, of the streams whose
    ``generator()`` is called."""
    monkeypatch.setattr(sampling, "_DRAWS", sampling._DrawMemo(sampling._DRAW_MEMO_VALUES))
    calls = []
    real_generator = RngStream.generator

    def counted_generator(stream):
        calls.append(stream)
        return real_generator(stream)

    monkeypatch.setattr(RngStream, "generator", counted_generator)
    return calls


def beta_tails_spy(monkeypatch) -> list[float]:
    """Count the incomplete beta evaluations of ``f_quantile`` for the rest of
    the test: return the list, filled as the test runs, of the points at
    which ``_beta_tails`` is evaluated."""
    points = []
    real_tails = specfun._beta_tails

    def counted_tails(a, b, x, log_beta):
        points.append(x)
        return real_tails(a, b, x, log_beta)

    monkeypatch.setattr(specfun, "_beta_tails", counted_tails)
    return points


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


def draw_exponential_sample(scale: float, count: int, rng: RngStream) -> np.ndarray:
    """Draw ``count`` exponential variates by inverse CDF.

    The inverse-CDF map ``x = -scale * log(1 - u)`` keeps the draws an
    exact scale family: multiplying ``scale`` by c multiplies each draw by c
    (up to one rounding), which the tests rely on.
    """
    if not (math.isfinite(scale) and scale > 0.0):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    u = rng.generator().random(count)
    return scale * -np.log1p(-u)


def apply_type2_censoring(raw_times: Sequence[float] | np.ndarray, observed: int) -> CensoredSample:
    """Keep the first ``observed`` order statistics of a complete sample."""
    total_units = len(raw_times)
    if not 1 <= observed <= total_units:
        raise ValueError(f"observed must lie in [1, {total_units}], got {observed}")
    return CensoredSample(sorted(float(t) for t in raw_times)[:observed], total_units)


def draw_dataset(
    params: ExponentialScales, n: int, m: int, r1: int, r2: int, rng: RngStream
) -> StressStrengthData:
    """Draw one censored stress-strength dataset from its order statistics.

    ``n`` strength units with the first ``r1`` failures observed, ``m``
    stress units with the first ``r2`` observed.  The two samples consume
    disjoint sub-streams of ``rng``, so they are independent and each is
    reproducible on its own.
    """
    if not 1 <= r1 <= n:
        raise ValueError(f"r1 must lie in [1, {n}], got {r1}")
    if not 1 <= r2 <= m:
        raise ValueError(f"r2 must lie in [1, {m}], got {r2}")
    strength_raw = draw_exponential_sample(params.alpha, n, rng.substream(0))
    stress_raw = draw_exponential_sample(params.beta, m, rng.substream(1))
    return StressStrengthData(
        strength=apply_type2_censoring(strength_raw, r1),
        stress=apply_type2_censoring(stress_raw, r2),
    )


def totals_of(datasets: Sequence[StressStrengthData]) -> tuple[np.ndarray, np.ndarray]:
    """The strength and stress totals on test (Z, V) of each dataset."""
    z = np.array([data.strength.ttt for data in datasets])
    v = np.array([data.stress.ttt for data in datasets])
    return z, v


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
