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
dataset; :func:`_estimate_cells` evaluates them over many cells at once,
for the simulation.  The UMVUE uses a Gauss-Legendre rule memoised in
:func:`_unit_rule`, the posterior means trapezoidal rules in the log-odds;
the parts of each rule that depend only on its shapes are kept in bounded
memos.  The kernel's docstring derives each integral and says why its
rule is exact or how it is guarded.
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
    _check_finite_totals(z, v)
    return z, v


def _check_finite_totals(z: np.ndarray, v: np.ndarray) -> None:
    for totals in (z, v):
        if not ((totals > 0.0) & (totals < math.inf)).all():
            raise ValueError("totals on test must be positive and finite")


@lru_cache(maxsize=8)
def _floors(columns: int, closed: int) -> np.ndarray:
    # 0 in each column but the closed one, which gets the largest negative
    # float: no float lies between it and 0, so "above it" is ">= 0".
    floors = np.zeros(columns)
    floors[closed] = -math.ulp(0.0)
    floors.flags.writeable = False
    return floors


def _check_inside(values: np.ndarray, names: tuple[str, ...], closed: int | None = None) -> None:
    # Each row holds one value per name, strictly inside (0, 1) or, in column
    # ``closed``, in [0, 1].  values * (1 - values) is above 0 exactly inside
    # (0, 1), 0 at its ends and below 0 beyond them; NaN passes neither test.
    # One comparison with a row of floors tests both kinds of column.
    spread = values * (1.0 - values)
    ok = spread > (0.0 if closed is None else _floors(len(names), closed))
    if np.count_nonzero(ok) < ok.size:
        # The first bad row, and in it the first bad open column, else the closed one.
        row = np.argmin(ok.all(axis=1))
        j = min(np.flatnonzero(~ok[row]), key=lambda j: j == closed)
        if j == closed:
            raise ValueError(f"{names[j]} must lie in [0, 1], got {values[row, j]}")
        raise ValueError(f"{names[j]} must lie strictly inside (0, 1), got {values[row, j]}")


# numpy's decorator form of errstate builds its context object once, here,
# and costs about half of a `with np.errstate(...)` block per call.
@np.errstate(over="ignore")
def _mle(r1, z: np.ndarray, r2, v: np.ndarray, f: np.ndarray | None = None) -> np.ndarray:
    # 1 / (1 + w/f) for the MLE w = beta_hat/alpha_hat = (r1/r2) * (V/Z) of the
    # odds against R: R1 without f (f = 1), the exact interval's bounds at its
    # F quantiles (a column of both gives one row per bound, from one odds
    # array).  The counts are integers, or integer arrays aligned with the
    # totals.  V/Z is taken first, so that equal totals give w = r1/r2 at
    # any size, and w or w/f overflows only where the value rounds to 0 anyway.
    w = (r1 / r2) * (v / z)
    return 1.0 / (1.0 + (w if f is None else w / f))


@lru_cache(maxsize=128)
def _umvue_rule(a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
    # The nodes of H(a, b, .)'s rule that _umvue_branch keeps, negated, as one
    # row, which broadcasts cheaply against a column of values, and the density
    # of z1 times the weights, negated because expm1 gives minus the bracket.
    # Both depend only on (a, b), so they are kept, read-only; the rule itself
    # is shared through _unit_rule(k, count), so no rule is built per shape.
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
    neg_s = -s[None, :kept]
    factor = (1.0 - a) * w[None, :kept] * np.exp((a - 2.0) * np.log1p(neg_s))
    neg_s.flags.writeable = factor.flags.writeable = False
    return neg_s, factor


def _umvue_branch(a: int, b: int, x: np.ndarray) -> np.ndarray:
    # H(a, b, x) = P(v1 < z1), where z1 is the first spacing of a sample of
    # a failures with total time 1 and v1 that of b failures with total
    # 1/x >= 1: (a-1) times the integral over [0, 1] of
    # (1-s)**(a-2) * (1 - (1 - x*s)**(b-1)), a polynomial of degree a+b-3.
    if a == 1:
        # z1 is its whole total; x = 1 gives log1p(-1) = -inf and H = 1.
        with np.errstate(divide="ignore"):
            return -np.expm1((b - 1) * np.log1p(-x))
    neg_s, factor = _umvue_rule(a, b)
    kept = neg_s.size
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


@lru_cache(maxsize=128)
def _bayes_span(a1: float, a2: float) -> tuple[float, int, int]:
    # Rule 1 for shapes (a1, a2): its step, and its nodes below and above the
    # mode, an even number each.  The sd of y is sqrt(trigamma(a1) +
    # trigamma(a2)), and trigamma(a) < 1/a + 1/a**2.
    sd = math.sqrt(1.0 / a1 + 1.0 / a1**2 + 1.0 / a2 + 1.0 / a2**2)
    step = _BAYES_STEP * min(1.0, sd)
    below = 2 * math.ceil(max(_TAIL_SDS * sd, _TAIL_SHAPE_WIDTH / a1) / (2 * step))
    above = 2 * math.ceil(max(_TAIL_SDS * sd, _TAIL_SHAPE_WIDTH / a2) / (2 * step))
    return step, below, above


@lru_cache(maxsize=32)
def _node_grid(below: int, above: int) -> np.ndarray:
    # The node indices -below, ..., above + 1 as floats, read-only: the even
    # ones in one row, the odd ones in another.  Shapes above about 4 share
    # the grid (70, 70), so few are kept.
    grid = np.arange(-below, above + 2.0).reshape(-1, 2).T.copy()
    grid.flags.writeable = False
    return grid


@lru_cache(maxsize=128)
def _bayes_rule(a1: float, a2: float, halvings: int) -> tuple[np.ndarray, tuple]:
    # What the rule of shapes (a1, a2) and step 0.5**halvings times rule 1's
    # shares across values, read-only: the growth exp(t) and the weight at the
    # nodes t = j * step, -below <= j <= above, stacked in one array of shape
    # (1, 2, 2, nodes/2 + 1), with a leading axis along which rules stack;
    # each as rows of the even nodes (the rule of twice the step) and of the
    # odd nodes, padded at the end with a node of weight 0.  Then the even and
    # the total weight, log(a1/a2), and the cap on the log of a value's scale.
    step, below, above = _bayes_span(a1, a2)
    # R = 1 / (1 + scale * exp(t)), scale = (a1/a2) * (tau/zeta) taken through
    # logs.  Within the budget every node lies below t = 700 (40/a2 is at most
    # 40/54 of the span), so the cap keeps each product finite; it moves only
    # means below exp(span - 700), under 1e-268 for shapes of 1 or more.
    cap = 700.0 - above * step
    t = (step * 0.5**halvings) * _node_grid(below << halvings, above << halvings)
    # The weight exp(a1*y) / (1 + exp(y))**(a1+a2) relative to its peak is
    # exp(a1*t) / (1 + a1/(a1+a2) * expm1(t))**(a1+a2), or that with -t and a2
    # for t and a1; the smaller shape is taken, whose log cancels the least.
    rule = np.empty((1, 2) + t.shape)
    np.exp(t, out=rule[0, 0])
    total = a1 + a2
    shape, u = (a1, t) if a1 <= a2 else (a2, -t)
    weight = np.exp(shape * u - total * np.log1p(shape / total * np.expm1(u)), out=rule[0, 1])
    weight[1, -1] = 0.0
    even, odd = np.add.reduce(weight, axis=-1).tolist()
    rule.flags.writeable = False
    return rule, (even, even + odd, math.log(a1 / a2), cap)


def _posterior_means(
    problems: list[tuple[float, np.ndarray, float, np.ndarray]], halvings: int = 0
) -> list[np.ndarray]:
    # Posterior means for each problem (a1, zeta, a2, tau): shapes a1, a2
    # shared by all its values and scale totals zeta[i], tau[i].  Trapezoidal
    # rules in t = y - mode, each checked against the rule on its even nodes;
    # values on which the two disagree are redone on the rule of half the step.
    # A problem of one value (one dataset's) is evaluated at once, its means
    # and agreement test in Python floats: through the stack below, the
    # one-dataset path costs about 13% more.  Other problems whose rules have
    # one node count, and that have one number of values, are evaluated
    # together, as rows of one stack.  Both sum the same products in the
    # same order, so a value's mean does not depend on the path it takes.
    out: list[np.ndarray] = [None] * len(problems)
    stacks: dict[tuple[int, int], list[int]] = {}
    redo = []
    for i, (a1, zeta, a2, tau) in enumerate(problems):
        _, below, above = _bayes_span(a1, a2)
        nodes = ((below + above) << halvings) + 1
        if nodes > _BAYES_NODE_BUDGET:  # before the rule is built
            raise NonConvergenceError(
                f"posterior mean with shapes ({a1}, {a2}) and scale totals ({zeta[0]}, "
                f"{tau[0]}): the next rule needs {nodes} nodes, more than the "
                f"{_BAYES_NODE_BUDGET} allowed"
            )
        if zeta.size != 1:
            stacks.setdefault((nodes, zeta.size), []).append(i)
            continue
        rule, (even, both, log_ratio, cap) = _bayes_rule(a1, a2, halvings)
        scale = np.exp(np.minimum(log_ratio + np.log(tau) - np.log(zeta), cap))
        x = np.multiply(scale[:, None, None], rule[0, 0])
        x += 1.0
        np.divide(rule[0, 1], x, out=x)
        (even_sum, odd_sum), = np.add.reduce(x, axis=-1).tolist()
        mean = (even_sum + odd_sum) / both
        out[i] = np.array([mean])
        if not abs(mean - even_sum / even) <= _BAYES_AGREEMENT:
            redo.append((i, slice(None), problems[i]))
    for (nodes, size), members in stacks.items():
        rules = [_bayes_rule(problems[i][0], problems[i][2], halvings) for i in members]
        zeta = np.array([problems[i][1] for i in members])
        tau = np.array([problems[i][3] for i in members])
        rule = np.concatenate([rule for rule, _ in rules])
        grow, weight = rule[:, 0], rule[:, 1]
        # Columns, one row per problem.
        even, both, log_ratio, cap = np.array([scalars for _, scalars in rules]).T[:, :, None]
        scale = np.exp(np.minimum(log_ratio + np.log(tau) - np.log(zeta), cap))
        # Each chunk holds whole problems, or one problem's values in parts.
        rows = max(1, _CHUNK_ELEMENTS // nodes)
        per_chunk, rows = (rows // size, size) if rows >= size > 0 else (1, rows)
        sums = np.empty(scale.shape + (2,))
        for g in range(0, len(members), per_chunk):
            stack = slice(g, g + per_chunk)
            for lo in range(0, size, rows):
                part = slice(lo, lo + rows)
                x = np.multiply(scale[stack, part, None, None], grow[stack, None])
                x += 1.0
                np.divide(weight[stack, None], x, out=x)
                # Summed along the contiguous node axis only, so that each
                # value's sums do not depend on the values beside it.
                np.add.reduce(x, axis=-1, out=sums[stack, part])
        means = (sums[..., 0] + sums[..., 1]) / both
        agreed = np.abs(means - sums[..., 0] / even) <= _BAYES_AGREEMENT
        for row, i in enumerate(members):
            out[i] = means[row]
        if np.count_nonzero(agreed) < agreed.size:
            for row, i in enumerate(members):
                if not agreed[row].all():
                    a1, zeta, a2, tau = problems[i]
                    wrong = ~agreed[row]
                    redo.append((i, wrong, (a1, zeta[wrong], a2, tau[wrong])))
    if redo:
        redone = _posterior_means([problem for _, _, problem in redo], halvings + 1)
        for (i, wrong, _), means in zip(redo, redone):
            out[i][wrong] = means
    return out


# A cell of the estimators: (r1, z, r2, v, prior_strength, prior_stress),
# with z and v float arrays of one length.
Cell = tuple[int, np.ndarray, int, np.ndarray, GammaPrior, GammaPrior]


def _estimates(z: np.ndarray, v: np.ndarray, cells: list[Cell]) -> np.ndarray:
    # R1-R4 for each row of each cell, whose totals z and v hold joined in order.
    out = np.empty((z.size, 4))
    if len(cells) == 1:
        r1_rows, r2_rows = cells[0][0], cells[0][2]
    else:
        sizes = [cell[1].size for cell in cells]
        r1_rows = np.repeat([cell[0] for cell in cells], sizes)
        r2_rows = np.repeat([cell[2] for cell in cells], sizes)
    out[:, 0] = _mle(r1_rows, z, r2_rows, v)
    parts, problems, targets, copies = [], [], [], []
    by_counts: dict[tuple[int, int], list[int]] = {}
    lo = 0
    for index, (r1, zeta, r2, tau, prior_strength, prior_stress) in enumerate(cells):
        part = slice(lo, lo + zeta.size)
        lo += zeta.size
        parts.append(part)
        by_counts.setdefault((r1, r2), []).append(index)
        problems.append((float(r1), zeta, float(r2), tau))
        targets.append((part, 3))
        if prior_strength == NONINFORMATIVE and prior_stress == NONINFORMATIVE:
            copies.append(part)
        else:
            problems.append((prior_strength.shape_u + r1, prior_strength.scale_v + zeta,
                             prior_stress.shape_u + r2, prior_stress.scale_v + tau))
            targets.append((part, 2))
    # One UMVUE pass per pair of counts.
    for (r1, r2), members in by_counts.items():
        if len(members) == 1:
            _, zeta, _, tau, *_ = cells[members[0]]
            out[parts[members[0]], 1] = _umvue(r1, zeta, r2, tau)
        else:
            rows = np.r_[tuple(parts[i] for i in members)]
            out[rows, 1] = _umvue(r1, z[rows], r2, v[rows])
    for (part, column), means in zip(targets, _posterior_means(problems)):
        out[part, column] = means
    for part in copies:
        out[part, 2] = out[part, 3]
    _check_inside(out, EstimateSet.__match_args__, closed=1)  # the field names
    return out


def _estimate_cells(cells: list[Cell]) -> np.ndarray:
    # estimate_kernel over many cells at once, whose counts are known to be
    # positive integers: the rows of all the cells, in order, with the
    # totals checked once over their join.
    z = np.concatenate([cell[1] for cell in cells])
    v = np.concatenate([cell[3] for cell in cells])
    _check_finite_totals(z, v)
    return _estimates(z, v, cells)


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
    return _estimates(z, v, [(r1, z, r2, v, prior_strength, prior_stress)])


def estimate_all(
    data: StressStrengthData,
    prior_strength: GammaPrior = NONINFORMATIVE,
    prior_stress: GammaPrior = NONINFORMATIVE,
) -> EstimateSet:
    """Evaluate all four estimators on one dataset; see
    :func:`estimate_kernel`."""
    z, v = np.array([data.strength.ttt]), np.array([data.stress.ttt])
    row = _estimates(z, v, [(data.strength.observed, z, data.stress.observed, v,
                             prior_strength, prior_stress)])[0]
    return EstimateSet(*row.tolist())
