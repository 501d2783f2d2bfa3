"""Point estimators of the reliability R = P(Y < X).

Strength X and stress Y are independent exponentials with means ``alpha``
and ``beta``, each observed under type-II censoring, so R = alpha /
(alpha + beta).  Every estimator is a function of the sufficient statistics
(r1, Z, r2, V): the observed counts and total times on test of the
strength and stress samples.  Four estimators are provided:

* ``r1_mle`` -- plug the censored-sample MLEs of the scales into R.
* ``r2_umvue`` -- Rao-Blackwellize the unbiased indicator ``1{v1 < z1}``
  built from the first normalized spacings onto the total time on test of
  each sample.  Exactly unbiased.
* ``r3_bayes_conjugate`` -- posterior mean of R under independent conjugate
  priors on the scales (inverse-scale gamma family).
* ``r4_bayes_noninf`` -- the same posterior mean under the flat 1/scale
  prior, i.e. the conjugate answer with both hyperparameters zero.

:func:`estimate_kernel` evaluates all four over many pairs of totals
(Z, V) at once, and the functions of one dataset are its length-1 case.
Both integrals use fixed Gauss-Legendre rules whose sizes are powers of
two, built on first use and memoised in :func:`_unit_rule`; see
:func:`umvue_reliability` and :func:`bayes_reliability` for why each rule
is exact or how it is guarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sampling import CensoredSample, ExponentialScales, StressStrengthData
from .specfun import NonConvergenceError, gauss_legendre

__all__ = [
    "GammaPrior",
    "NONINFORMATIVE",
    "PosteriorParams",
    "EstimateSet",
    "true_reliability",
    "mle_scale",
    "mle_reliability",
    "umvue_reliability",
    "posterior_params",
    "bayes_reliability",
    "bayes_noninf_reliability",
    "estimate_all",
    "estimate_kernel",
]

# Kernel temporaries hold at most this many (value, node) pairs at a time,
# so peak memory does not grow with the number of values in a call.
_CHUNK_ELEMENTS = 4096
# Posterior means: the smaller rule of the first pair, the largest rule, and
# the agreement between a rule and its double that accepts a value.
_BAYES_FIRST_NODES = 128
_BAYES_MAX_NODES = 4096
_BAYES_AGREEMENT = 1e-12
# Truncation of the log-odds weight on each side of its mode: this many
# standard deviations, or this many multiples of 1/shape, whichever is
# wider (the tails decay like exp(-shape * |y - mode|) for small shapes).
_TAIL_SDS = 14.0
_TAIL_SHAPE_WIDTH = 40.0


@dataclass(frozen=True)
class GammaPrior:
    """Prior on an exponential scale: density proportional to
    ``(1/scale)**(shape_u + 1) * exp(-scale_v / scale)``.

    ``GammaPrior(0, 0)`` is the noninformative 1/scale prior.
    """

    shape_u: float
    scale_v: float

    def __post_init__(self) -> None:
        for name in ("shape_u", "scale_v"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


NONINFORMATIVE = GammaPrior(0.0, 0.0)


@dataclass(frozen=True)
class PosteriorParams:
    """Inverse-scale gamma posterior: density proportional to
    ``(1/scale)**(shape + 1) * exp(-scale_total / scale)``."""

    shape: float
    scale_total: float

    def __post_init__(self) -> None:
        for name in ("shape", "scale_total"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class EstimateSet:
    """The four point estimates for one dataset."""

    r1_mle: float
    r2_umvue: float
    r3_bayes_conjugate: float
    r4_bayes_noninf: float

    def __post_init__(self) -> None:
        for name in ("r1_mle", "r3_bayes_conjugate", "r4_bayes_noninf"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly inside (0, 1), got {value}")
        if not 0.0 <= self.r2_umvue <= 1.0:
            raise ValueError(f"r2_umvue must lie in [0, 1], got {self.r2_umvue}")


def true_reliability(params: ExponentialScales) -> float:
    """P(Y < X) for independent exponentials with the given means."""
    return params.alpha / (params.alpha + params.beta)


def mle_scale(sample: CensoredSample) -> float:
    """Maximum-likelihood estimate of the scale: total time on test over
    the number of observed failures."""
    return sample.ttt / sample.observed


def mle_reliability(data: StressStrengthData) -> float:
    alpha_hat = mle_scale(data.strength)
    beta_hat = mle_scale(data.stress)
    return alpha_hat / (alpha_hat + beta_hat)


@lru_cache(maxsize=None)
def _unit_rule(k: int) -> tuple[np.ndarray, np.ndarray]:
    """The k-point Gauss-Legendre rule on [0, 1]."""
    x, w = gauss_legendre(k)
    return 0.5 * (1.0 + x), 0.5 * w


def _check_totals(r1: int, z, r2: int, v) -> tuple[np.ndarray, np.ndarray]:
    for name, count in (("r1", r1), ("r2", r2)):
        if not (isinstance(count, (int, np.integer)) and count >= 1):
            raise ValueError(f"{name} must be a positive integer, got {count!r}")
    z = np.asarray(z, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if z.shape != v.shape:
        raise ValueError(f"got {z.size} strength totals but {v.size} stress totals")
    for totals in (z, v):
        if not ((totals > 0.0) & (totals < math.inf)).all():
            raise ValueError("totals on test must be positive and finite")
    return z, v


def _umvue(r1: int, z: np.ndarray, r2: int, v: np.ndarray) -> np.ndarray:
    if r1 == 1 and r2 == 1:
        # Both spacings equal their totals; the indicator itself remains.
        return (v < z).astype(float)
    if r1 == 1:
        # P(v1 < Z | V) = 1 - (1 - Z/V)**(r2-1) for Z < V, and 1 beyond.
        out = np.ones_like(z)
        below = z < v
        out[below] = -np.expm1((r2 - 1) * np.log1p(-z[below] / v[below]))
        return out
    upper = np.minimum(z, v)
    # The strength tail beyond V, P(z1 > V | Z) = (1 - V/Z)**(r1-1), which
    # is 0 unless V < Z.
    tail = (1.0 - upper / z) ** (r1 - 1)
    if r2 == 1:
        # The stress spacing equals its total, so only that tail remains.
        return tail
    # Over [0, min(Z, V)]: density of z1 times cdf of v1, a polynomial of
    # degree r1 + r2 - 3 in t = upper * s for s in [0, 1].
    k = 1 << (-(-(r1 + r2 - 2) // 2) - 1).bit_length()
    s, w = _unit_rule(k)
    to_z = (-upper / z)[:, None]
    to_v = (-upper / v)[:, None]
    integral = np.empty_like(z)
    rows = max(1, _CHUNK_ELEMENTS // k)
    for lo in range(0, z.size, rows):
        part = slice(lo, lo + rows)
        density = np.exp((r1 - 2) * np.log1p(to_z[part] * s))
        cdf = np.expm1((r2 - 1) * np.log1p(to_v[part] * s))
        integral[part] = (density * cdf * w).sum(axis=1)
    integral *= (1 - r1) * upper / z
    integral += tail
    return np.minimum(np.maximum(integral, 0.0, out=integral), 1.0, out=integral)


@lru_cache(maxsize=None)
def _side_rules(ks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """The k/2-point rules on [0, 1] for each k in ``ks``, side by side:
    nodes, log-weights, and the column where each rule starts (plus the
    end)."""
    rules = [_unit_rule(k // 2) for k in ks]
    starts = np.cumsum([0] + [k // 2 for k in ks])
    nodes = np.concatenate([s for s, _ in rules])
    log_weights = np.log(np.concatenate([w for _, w in rules]))
    return nodes, log_weights, tuple(starts.tolist())


# Which way the log-odds moves from the mode on each half of its range.
_HALF_SIGNS = np.array([[1.0], [-1.0]])


def _posterior_mean_rules(
    a1: float, a2: float, offset: np.ndarray, ks: tuple[int, ...]
) -> np.ndarray:
    # Posterior means by each rule in ks, for shapes a1, a2 shared by every
    # value and offset[i] = log(a1/a2) + log(tau[i]/zeta[i]), the argument
    # of the logistic at the mode.  Every rule puts k/2 nodes on each half
    # of the range.
    s, log_w, starts = _side_rules(ks)
    rate = np.array([[a1], [a2]])  # the tail rate below / above the mode
    # The sd of y is sqrt(trigamma(a1) + trigamma(a2)); trigamma(a) < 1/a + 1/a**2.
    sd = math.sqrt(1.0 / a1 + 1.0 / a1**2 + 1.0 / a2 + 1.0 / a2**2)
    width = np.maximum(_TAIL_SDS * sd, _TAIL_SHAPE_WIDTH / rate)
    neg_depth = -width * s  # minus the distance from the mode, per half
    # The weight times the node weights, relative to the weight's peak.
    total = a1 + a2
    weight = np.exp(rate * neg_depth - total * np.log1p(rate / total * np.expm1(neg_depth)) + log_w)
    weight *= width  # the Jacobian of each half
    signed_depth = _HALF_SIGNS * neg_depth
    out = np.empty((len(ks), offset.size))
    per = max(1, _CHUNK_ELEMENTS // (2 * s.size))
    for lo in range(0, offset.size, per):
        part = slice(lo, lo + per)
        # 1 + exp(y + log(tau/zeta)); capping the exponent at 700 avoids
        # overflow and changes R = 1/that only where R is below 1e-304.
        x = offset[part, None, None] + signed_depth
        np.minimum(x, 700.0, out=x)
        np.exp(x, out=x)
        x += 1.0
        weighted = weight / x
        for j in range(len(ks)):
            # Summed along the contiguous node axis only, so that each
            # value's sum does not depend on the values beside it.
            halves = np.add.reduce(weighted[:, :, starts[j]:starts[j + 1]], axis=-1)
            out[j, part] = halves[:, 0] + halves[:, 1]
    for j in range(len(ks)):
        out[j] /= weight[:, starts[j]:starts[j + 1]].sum()
    return out


def _posterior_means(a1: float, zeta: np.ndarray, a2: float, tau: np.ndarray) -> np.ndarray:
    # Posterior means for strength shape a1 and stress shape a2, shared by
    # all values, and scale totals zeta[i], tau[i].
    offset = math.log(a1 / a2) + np.log(tau) - np.log(zeta)
    k = _BAYES_FIRST_NODES
    previous, current = _posterior_mean_rules(a1, a2, offset, (k, 2 * k))
    gap = np.abs(current - previous)
    if (gap <= _BAYES_AGREEMENT).all():
        return current
    result = current
    todo = np.arange(offset.size)
    while True:
        agreed = gap <= _BAYES_AGREEMENT
        result[todo[agreed]] = current[agreed]
        todo, previous = todo[~agreed], current[~agreed]
        if todo.size == 0:
            return result
        k *= 2
        if k >= _BAYES_MAX_NODES:
            i = todo[0]
            raise NonConvergenceError(
                f"posterior mean with shapes ({a1}, {a2}) and scale totals "
                f"({zeta[i]}, {tau[i]}): the {k // 2}- and {k}-node rules differ by "
                f"{gap[~agreed][0]:.3e}"
            )
        current = _posterior_mean_rules(a1, a2, offset[todo], (2 * k,))[0]
        gap = np.abs(current - previous)


def _estimates(
    r1: int, z: np.ndarray, r2: int, v: np.ndarray,
    prior_strength: GammaPrior, prior_stress: GammaPrior,
) -> np.ndarray:
    n = z.size
    out = np.empty((n, 4))
    alpha_hat = z / r1
    beta_hat = v / r2
    out[:, 0] = alpha_hat / (alpha_hat + beta_hat)
    out[:, 1] = _umvue(r1, z, r2, v)
    out[:, 3] = _posterior_means(float(r1), z, float(r2), v)
    if prior_strength == NONINFORMATIVE and prior_stress == NONINFORMATIVE:
        out[:, 2] = out[:, 3]
    else:
        out[:, 2] = _posterior_means(
            prior_strength.shape_u + r1, prior_strength.scale_v + z,
            prior_stress.shape_u + r2, prior_stress.scale_v + v,
        )
    return out


def estimate_kernel(
    r1: int,
    z,
    r2: int,
    v,
    prior_strength: GammaPrior = NONINFORMATIVE,
    prior_stress: GammaPrior = NONINFORMATIVE,
) -> np.ndarray:
    """All four estimators for each pair of totals on test (z[i], v[i]).

    Returns an array of shape (len(z), 4) whose columns are R1 (MLE), R2
    (UMVUE), R3 (conjugate Bayes) and R4 (noninformative Bayes).  R3 is R4
    when both priors are noninformative.
    """
    z, v = _check_totals(r1, z, r2, v)
    return _estimates(r1, z, r2, v, prior_strength, prior_stress)


def umvue_reliability(data: StressStrengthData) -> float:
    """Uniformly minimum variance unbiased estimate of P(Y < X).

    Conditions the unbiased indicator ``1{v1 < z1}`` (first normalized
    spacings of the two samples, each exponential with its sample's scale)
    on the pair of totals on test (Z, V).  Given its total, a spacing has
    density ``(r-1) * (1 - t/total)**(r-2) / total`` on (0, total), so the
    estimate is the integral over ``[0, min(Z, V)]`` of the strength
    density times the stress cdf, plus the remainder ``(1 - V/Z)**(r1-1)``
    when V < Z.  The integrand is a polynomial of degree r1 + r2 - 3, which
    a Gauss-Legendre rule of ceil((r1 + r2 - 2) / 2) or more nodes
    integrates exactly; r1 = 1 or r2 = 1 have closed forms.
    """
    return float(_umvue(data.strength.observed, np.array([data.strength.ttt]),
                        data.stress.observed, np.array([data.stress.ttt]))[0])


def posterior_params(prior: GammaPrior, sample: CensoredSample) -> PosteriorParams:
    """Conjugate update: shape gains the observed count, scale total gains
    the total time on test."""
    return PosteriorParams(
        shape=prior.shape_u + sample.observed,
        scale_total=prior.scale_v + sample.ttt,
    )


def _posterior_mean_reliability(
    strength_post: PosteriorParams, stress_post: PosteriorParams
) -> float:
    return float(_posterior_means(
        strength_post.shape, np.array([strength_post.scale_total]),
        stress_post.shape, np.array([stress_post.scale_total]),
    )[0])


def bayes_reliability(
    data: StressStrengthData,
    prior_strength: GammaPrior,
    prior_stress: GammaPrior,
) -> float:
    """Posterior mean of P(Y < X) under independent conjugate priors.

    With posterior shapes a1, a2 and scale totals zeta, tau, alpha =
    zeta/G1 and beta = tau/G2 for independent standard gammas G1 ~
    Gamma(a1), G2 ~ Gamma(a2), so R = 1 / (1 + (tau/zeta) * G1/G2).  In the
    log-odds y = log(G1/G2) the weight ``exp(a1*y) / (1 + exp(y))**(a1+a2)``
    is smooth and unimodal at log(a1/a2), and R is a logistic function of y
    shifted by log(tau/zeta).  The mean is integrated over mode +- max(14
    sd, 40/shape) (a1 below the mode, a2 above it) with Gauss-Legendre
    nodes on each side of the mode, and normalised by the integral of the
    weight alone.  It is accepted once the 128- and 256-node rules agree to
    1e-12; otherwise the rule is doubled until two successive rules agree,
    and NonConvergenceError is raised if the 2048- and 4096-node rules
    still disagree.
    """
    return _posterior_mean_reliability(
        posterior_params(prior_strength, data.strength),
        posterior_params(prior_stress, data.stress),
    )


def bayes_noninf_reliability(data: StressStrengthData) -> float:
    """Posterior mean of P(Y < X) under the noninformative 1/scale priors."""
    return bayes_reliability(data, NONINFORMATIVE, NONINFORMATIVE)


def estimate_all(
    data: StressStrengthData,
    prior_strength: GammaPrior = NONINFORMATIVE,
    prior_stress: GammaPrior = NONINFORMATIVE,
) -> EstimateSet:
    """Evaluate all four estimators on one dataset; see
    :func:`estimate_kernel`."""
    row = _estimates(data.strength.observed, np.array([data.strength.ttt]),
                     data.stress.observed, np.array([data.stress.ttt]),
                     prior_strength, prior_stress)[0]
    return EstimateSet(*row.tolist())
