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
(Z, V) at once, and :func:`estimate_all` is its length-1 case for one
dataset.  The UMVUE uses a Gauss-Legendre rule memoised in
:func:`_unit_rule`, the posterior means trapezoidal rules in the log-odds;
the kernel's docstring derives each integral and says why its rule is
exact or how it is guarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .sampling import ExponentialScales, StressStrengthData, _check_counts
from .specfun import NonConvergenceError, gauss_legendre

__all__ = [
    "GammaPrior",
    "NONINFORMATIVE",
    "EstimateSet",
    "true_reliability",
    "estimate_all",
    "estimate_kernel",
]

# Kernel temporaries hold at most this many (value, node) pairs at a time,
# so peak memory does not grow with the number of values in a call.
_CHUNK_ELEMENTS = 16384
# The UMVUE drops the nodes of its rule where the spacing density is below
# exp(_UMVUE_LOG_TRIM) = 2**-60; together they weigh at most that.
_UMVUE_LOG_TRIM = -60.0 * math.log(2.0)
# Posterior means: rule 1's step in units of min(1, sd), the most nodes a
# rule may have, and the agreement with the rule of twice the step.
_BAYES_STEP = 0.2
_BAYES_NODE_BUDGET = 4096
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
class EstimateSet:
    """The four point estimates for one dataset."""

    r1_mle: float
    r2_umvue: float
    r3_bayes_conjugate: float
    r4_bayes_noninf: float


def true_reliability(params: ExponentialScales) -> float:
    """P(Y < X) for independent exponentials with the given means."""
    return params.alpha / (params.alpha + params.beta)


@lru_cache(maxsize=None)
def _unit_rule(k: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The count smallest nodes and weights of the k-point Gauss-Legendre rule on [0, 1]."""
    x, w = gauss_legendre(k, count)
    return 0.5 * (1.0 + x), 0.5 * w


def _check_totals(r1: int, z, r2: int, v) -> tuple[np.ndarray, np.ndarray]:
    _check_counts(r1=r1, r2=r2)
    z = np.asarray(z, dtype=float).reshape(-1)
    v = np.asarray(v, dtype=float).reshape(-1)
    if z.shape != v.shape:
        raise ValueError(f"got {z.size} strength totals but {v.size} stress totals")
    for totals in (z, v):
        if not ((totals > 0.0) & (totals < math.inf)).all():
            raise ValueError("totals on test must be positive and finite")
    return z, v


def _check_inside(values: np.ndarray, names: tuple[str, ...], closed: int | None = None) -> None:
    # Each row holds one value per name, strictly inside (0, 1) or, in column
    # ``closed``, in [0, 1].  values * (1 - values) is above 0 exactly inside
    # (0, 1) and 0 at its ends; NaN passes neither test.
    spread = values * (1.0 - values)
    ok = spread > 0.0
    if closed is not None:
        ok[:, closed] = spread[:, closed] >= 0.0
    if np.count_nonzero(ok) < ok.size:
        # The first bad row, and in it the first bad open column, else the closed one.
        row = np.argmin(ok.all(axis=1))
        j = min(np.flatnonzero(~ok[row]), key=lambda j: j == closed)
        if j == closed:
            raise ValueError(f"{names[j]} must lie in [0, 1], got {values[row, j]}")
        raise ValueError(f"{names[j]} must lie strictly inside (0, 1), got {values[row, j]}")


def _mle(
    r1: int, z: np.ndarray, r2: int, v: np.ndarray, f: np.ndarray | None = None
) -> np.ndarray:
    # 1 / (1 + w/f) for the MLE w = beta_hat/alpha_hat = (r1/r2) * (V/Z) of the
    # odds against R: R1 without f (f = 1), the exact interval's bounds at its
    # F quantiles (a column of both gives one row per bound, from one odds
    # array).  V/Z is taken first, so that equal totals give w = r1/r2 at
    # any size, and w or w/f overflows only where the value rounds to 0 anyway.
    with np.errstate(over="ignore"):
        w = (r1 / r2) * (v / z)
        return 1.0 / (1.0 + (w if f is None else w / f))


def _umvue_branch(a: int, b: int, x: np.ndarray) -> np.ndarray:
    # H(a, b, x) = P(v1 < z1), where z1 is the first spacing of a sample of
    # a failures with total time 1 and v1 that of b failures with total
    # 1/x >= 1: (a-1) times the integral over [0, 1] of
    # (1-s)**(a-2) * (1 - (1 - x*s)**(b-1)), a polynomial of degree a+b-3.
    if a == 1:
        # z1 is its whole total; x = 1 gives log1p(-1) = -inf and H = 1.
        with np.errstate(divide="ignore"):
            return -np.expm1((b - 1) * np.log1p(-x))
    k = 1 << (-(-(a + b - 2) // 2) - 1).bit_length()
    # The bracket lies in [0, 1] and the weights sum to 1, so the nodes
    # beyond cut, where (a-1)(1-s)**(a-2) < 2**-60, add at most 2**-60.
    cut = -math.expm1((_UMVUE_LOG_TRIM - math.log(a - 1)) / (a - 2)) if a > 2 else 1.0
    # Node i = 1, 2, ... is (1 - cos theta_i) / 2, theta_i > (i - 1/2) pi / (k + 1/2)
    # (Szego, Orthogonal Polynomials, 6.21.5), so fewer than n lie at or below
    # cut; only the smallest n are built, up to a power of two to share rules.
    n = int(math.acos(1.0 - 2.0 * cut) * (k + 0.5) / math.pi + 1.5)
    s, w = _unit_rule(k, min(k, 1 << (n - 1).bit_length()))
    kept = int(s.searchsorted(cut, "right")) if cut < s[-1] else s.size
    # The kept nodes as one row, which broadcasts cheaply against a column
    # of values, and the density of z1 times the weights, shared by every
    # value and negated because expm1 below gives minus the bracket.
    neg_s = -s[None, :kept]
    factor = (1.0 - a) * w[None, :kept] * np.exp((a - 2.0) * np.log1p(neg_s))
    out = np.empty_like(x)
    rows = max(1, _CHUNK_ELEMENTS // kept)
    for lo in range(0, x.size, rows):
        part = slice(lo, lo + rows)
        t = np.multiply(x[part, None], neg_s)
        np.log1p(t, out=t)
        t *= b - 1.0
        np.expm1(t, out=t)
        t *= factor
        np.add.reduce(t, axis=1, out=out[part])
    return out


def _umvue(r1: int, z: np.ndarray, r2: int, v: np.ndarray) -> np.ndarray:
    if r1 == 1 and r2 == 1:
        # Both spacings equal their totals; the indicator itself remains.
        return (v < z).astype(float)
    # R2 = H(r1, r2, Z/V) where V >= Z.  Where V < Z, R2 = 1 - P(z1 < v1)
    # = 1 - H(r2, r1, V/Z), the same kernel with the samples swapped.
    mirrored = v < z
    flipped = np.count_nonzero(mirrored)
    if flipped in (0, z.size):
        # Every value on one side: one quotient and one branch shape.
        out = 1.0 - _umvue_branch(r2, r1, v / z) if flipped else _umvue_branch(r1, r2, z / v)
    else:
        x = np.minimum(z, v) / np.maximum(z, v)
        if r1 == r2:  # one branch shape serves both sides
            out = _umvue_branch(r1, r2, x)
        else:
            out = np.empty_like(x)
            out[~mirrored] = _umvue_branch(r1, r2, x[~mirrored])
            out[mirrored] = _umvue_branch(r2, r1, x[mirrored])
        np.subtract(1.0, out, out=out, where=mirrored)
    return np.minimum(np.maximum(out, 0.0), 1.0)


def _posterior_means(
    a1: float, zeta: np.ndarray, a2: float, tau: np.ndarray, halvings: int = 0
) -> np.ndarray:
    # Posterior means for shapes a1, a2 shared by all values and scale totals
    # zeta[i], tau[i]: trapezoidal rules in t = y - mode on the nodes j * step,
    # -below <= j <= above, each checked against the rule on its even nodes.
    # Values on which the two disagree are redone on the rule of half the step.
    # The sd of y is sqrt(trigamma(a1) + trigamma(a2)); trigamma(a) < 1/a + 1/a**2.
    sd = math.sqrt(1.0 / a1 + 1.0 / a1**2 + 1.0 / a2 + 1.0 / a2**2)
    step = _BAYES_STEP * min(1.0, sd)
    below = 2 * math.ceil(max(_TAIL_SDS * sd, _TAIL_SHAPE_WIDTH / a1) / (2 * step))
    above = 2 * math.ceil(max(_TAIL_SDS * sd, _TAIL_SHAPE_WIDTH / a2) / (2 * step))
    # R = 1 / (1 + scale * exp(t)), scale = (a1/a2) * (tau/zeta) taken through
    # logs.  Within the budget every node lies below t = 700 (40/a2 is at most
    # 40/54 of the span), so the cap keeps each product finite; it moves only
    # means below exp(span - 700), under 1e-268 for shapes of 1 or more.
    offset = math.log(a1 / a2) + np.log(tau) - np.log(zeta)
    scale = np.exp(np.minimum(offset, 700.0 - above * step))
    step, below, above = step * 0.5**halvings, below << halvings, above << halvings
    nodes = below + above + 1
    if nodes > _BAYES_NODE_BUDGET:
        raise NonConvergenceError(
            f"posterior mean with shapes ({a1}, {a2}) and scale totals ({zeta[0]}, "
            f"{tau[0]}): the next rule needs {nodes} nodes, more than the "
            f"{_BAYES_NODE_BUDGET} allowed"
        )
    # The even nodes in one row: they are the rule of twice the step.  The
    # odd nodes in another, padded at the end with a node of weight 0.
    t = step * np.arange(-below, above + 2.0).reshape(-1, 2).T.copy()
    # The weight exp(a1*y) / (1 + exp(y))**(a1+a2) relative to its peak is
    # exp(a1*t) / (1 + a1/(a1+a2) * expm1(t))**(a1+a2), or that with -t and a2
    # for t and a1; the smaller shape is taken, whose log cancels the least.
    total = a1 + a2
    shape, u = (a1, t) if a1 <= a2 else (a2, -t)
    weight = np.exp(shape * u - total * np.log1p(shape / total * np.expm1(u)))
    weight[1, -1] = 0.0
    grow = np.exp(t)
    sums = np.empty((2, scale.size))
    rows = max(1, _CHUNK_ELEMENTS // nodes)
    for lo in range(0, scale.size, rows):
        part = slice(lo, lo + rows)
        x = np.multiply(scale[part, None, None], grow)
        x += 1.0
        np.divide(weight, x, out=x)
        # Summed along the contiguous node axis only, so that each value's
        # sums do not depend on the values beside it.
        np.add.reduce(x, axis=-1, out=sums[:, part].T)
    even, odd = np.add.reduce(weight, axis=-1).tolist()
    means = (sums[0] + sums[1]) / (even + odd)
    agreed = np.abs(means - sums[0] / even) <= _BAYES_AGREEMENT
    if np.count_nonzero(agreed) < agreed.size:
        redo = ~agreed
        means[redo] = _posterior_means(a1, zeta[redo], a2, tau[redo], halvings + 1)
    return means


def _estimates(
    r1: int, z: np.ndarray, r2: int, v: np.ndarray,
    prior_strength: GammaPrior, prior_stress: GammaPrior,
) -> np.ndarray:
    n = z.size
    out = np.empty((n, 4))
    out[:, 0] = _mle(r1, z, r2, v)
    out[:, 1] = _umvue(r1, z, r2, v)
    out[:, 3] = _posterior_means(float(r1), z, float(r2), v)
    if prior_strength == NONINFORMATIVE and prior_stress == NONINFORMATIVE:
        out[:, 2] = out[:, 3]
    else:
        out[:, 2] = _posterior_means(
            prior_strength.shape_u + r1, prior_strength.scale_v + z,
            prior_stress.shape_u + r2, prior_stress.scale_v + v,
        )
    _check_inside(out, EstimateSet.__match_args__, closed=1)  # the field names
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
    when both priors are noninformative.  A row with R1, R3 or R4 outside
    (0, 1) or R2 outside [0, 1] raises ValueError, as in :func:`estimate_all`.

    R1 plugs the scale MLEs Z/r1 and V/r2, each a total time on test over
    its number of observed failures, into alpha / (alpha + beta), taken as
    1 / (1 + (r1/r2) * (V/Z)) so that totals near the largest float do
    not overflow.

    R2 conditions the unbiased indicator ``1{v1 < z1}`` (first normalized
    spacings of the two samples, each exponential with its sample's scale)
    on the pair of totals (Z, V).  Given its total, a spacing has density
    ``(r-1) * (1 - t/total)**(r-2) / total`` on (0, total).  For V >= Z
    the estimate is H(r1, r2, Z/V), where

        H(a, b, x) = (a-1) * integral over [0, 1] of
                     (1-s)**(a-2) * (1 - (1 - x*s)**(b-1)) ds

    is the strength density times the stress cdf with t = Z*s.  For V < Z
    it is 1 - P(z1 < v1) = 1 - H(r2, r1, V/Z), the same integral with the
    samples' roles swapped, so x never exceeds 1.  The integrand is a
    polynomial of degree r1 + r2 - 3, which a Gauss-Legendre rule of
    ceil((r1 + r2 - 2) / 2) or more nodes integrates exactly.  The factor
    (a-1)(1-s)**(a-2) is the same for every value, so it is computed once
    per call, and the nodes where it is below 2**-60 are dropped: the
    bracket lies in [0, 1] and the weights sum to 1, so the dropped terms
    total at most 2**-60.  With r1 = r2 = 24, 200 and 1000 this keeps 25
    of 32, 78 of 256 and 143 of 1024 nodes.  a = 1 has the closed form
    1 - (1 - x)**(b-1), b = 1 gives H = 0, and with r1 = r2 = 1 the
    indicator ``1{V < Z}`` itself remains.

    R3 and R4 are posterior means.  The conjugate update adds the observed
    count to a prior's shape and the total on test to its scale, giving
    posterior shapes a1, a2 and scale totals zeta, tau (for R4, a1 = r1,
    zeta = Z, a2 = r2, tau = V).  Then alpha = zeta/G1 and beta = tau/G2
    for independent standard gammas G1 ~ Gamma(a1), G2 ~ Gamma(a2), so
    R = 1 / (1 + (tau/zeta) * G1/G2).  In the log-odds y = log(G1/G2) the
    weight ``exp(a1*y) / (1 + exp(y))**(a1+a2)`` is smooth and unimodal at
    log(a1/a2), and R is a logistic function of y shifted by
    log(tau/zeta).  The mean is integrated over mode +- max(14 sd,
    40/shape) (a1 below the mode, a2 above it) by the trapezoidal rule,
    normalised by the weight's sum on the same nodes.  The integrand is
    analytic in the strip |Im y| < pi and decays exponentially both ways,
    so the rule converges geometrically (Trefethen & Weideman, SIAM Review
    2014).  Its step is 0.2 min(1, sd), and a value is accepted once the
    rule on every other node agrees with it to 1e-12.  Otherwise it is
    redone on the rule of half the step, until two successive rules agree;
    a rule of more than 4096 nodes raises NonConvergenceError.
    """
    z, v = _check_totals(r1, z, r2, v)
    return _estimates(r1, z, r2, v, prior_strength, prior_stress)


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
