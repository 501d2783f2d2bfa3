"""Confidence intervals: algebra oracles, clamping, coverage sanity."""

import math

import numpy as np
import pytest
import scipy.stats

from helpers import data_with_totals, draw_dataset, totals_of
import stress_strength.intervals as intervals
from stress_strength import (
    METHODS,
    ExponentialScales,
    RngStream,
    asymptotic_ci,
    estimate_all,
    exact_ci,
    interval_kernel,
    true_reliability,
)
from stress_strength.specfun import f_quantile, normal_quantile


def asymptotic_half_width(r1, z, r2, v, level=0.95):
    lower, upper = interval_kernel("asymptotic", r1, [z], r2, [v], level)
    return 0.5 * float(upper[0] - lower[0])


def assert_exact_bounds_rejected(monkeypatch, lower, upper):
    """With the exact interval's odds replaced by these bounds, the kernel
    and exact_ci both reject them, naming them."""
    def odds(r1, z, r2, v, f=None):
        return np.array([np.full(z.shape, lower), np.full(z.shape, upper)])

    monkeypatch.setattr(intervals, "_mle", odds)
    message = rf"^bounds must satisfy 0 <= lower <= upper <= 1, got \[{lower}, {upper}\]$"
    with pytest.raises(ValueError, match=message):
        interval_kernel("exact", 3, [1.0, 2.0], 3, [1.0, 1.0], 0.95)
    with pytest.raises(ValueError, match=message):
        exact_ci(data_with_totals(3, 3, 1.0, 1.0))


class TestDeltaVariance:
    # The delta-method variance R**2 (1 - R)**2 (1/r1 + 1/r2) reaches the
    # caller as the asymptotic interval's half-width, z_(1+level)/2 * sd.
    def test_hand_evaluated_value(self):
        # R = 0.5 and r1 = r2 = 8: 0.25 * 0.25 * (1/8 + 1/8) = 0.015625.
        (lower,), (upper,) = interval_kernel("asymptotic", 8, [3.0], 8, [3.0], 0.95)
        assert upper == 0.5 + normal_quantile(0.975) * math.sqrt(0.015625)
        assert lower == 0.5 - normal_quantile(0.975) * math.sqrt(0.015625)

    def test_doubling_counts_halves_variance(self):
        # Totals 3r and 7r keep the MLE at 0.3.
        wide = asymptotic_half_width(10, 30.0, 20, 140.0)
        narrow = asymptotic_half_width(20, 60.0, 40, 280.0)
        assert wide == pytest.approx(math.sqrt(2.0) * narrow, rel=1e-12)

    def test_matches_finite_difference_propagation(self):
        # Rebuild the variance from a numerical gradient of a/(a+b) and the
        # inverse-information variances a^2/r1 and b^2/r2; totals 2 r1 and
        # 3 r2 put the scale MLEs at a and b.
        a, b, r1, r2 = 2.0, 3.0, 7, 11
        h = 1e-6

        def ratio(x, y):
            return x / (x + y)

        grad_a = (ratio(a + h, b) - ratio(a - h, b)) / (2.0 * h)
        grad_b = (ratio(a, b + h) - ratio(a, b - h)) / (2.0 * h)
        propagated = grad_a**2 * a**2 / r1 + grad_b**2 * b**2 / r2
        interval = asymptotic_ci(data_with_totals(r1, r2, a * r1, b * r2), level=0.95)
        half_width = 0.5 * (interval.upper - interval.lower)
        assert half_width == pytest.approx(
            scipy.stats.norm.ppf(0.975) * math.sqrt(propagated), rel=1e-6)

    def test_rejects_degenerate_arguments(self):
        # MLEs that round to 0 and to 1, and a zero count.
        with pytest.raises(ValueError, match="r_hat"):
            interval_kernel("asymptotic", 5, [5e-324], 5, [1.0], 0.95)
        with pytest.raises(ValueError, match="r_hat"):
            interval_kernel("asymptotic", 5, [1.0], 5, [5e-324], 0.95)
        with pytest.raises(ValueError):
            interval_kernel("asymptotic", 0, [1.0], 5, [1.0], 0.95)


class TestAsymptoticCi:
    def test_contains_mle_with_expected_width(self):
        data = draw_dataset(ExponentialScales(2.0, 3.0), 12, 12, 9, 9, RngStream(31, 0))
        interval = asymptotic_ci(data, level=0.95)
        r_hat = estimate_all(data).r1_mle
        sigma = math.sqrt(r_hat**2 * (1.0 - r_hat) ** 2 * (1.0 / 9 + 1.0 / 9))
        z = normal_quantile(0.975)
        assert interval.lower < r_hat < interval.upper
        assert interval.upper - interval.lower == pytest.approx(2.0 * z * sigma, rel=1e-12)
        assert interval.method == "asymptotic"
        assert interval.level == 0.95

    def test_clamps_at_one_for_extreme_data(self):
        interval = asymptotic_ci(data_with_totals(2, 2, 1e6, 1.0))
        assert interval.upper == 1.0
        assert interval.lower < 1.0

    def test_clamps_at_zero_for_reversed_extreme(self):
        interval = asymptotic_ci(data_with_totals(2, 2, 1.0, 1e6))
        assert interval.lower == 0.0
        assert interval.upper > 0.0

    def test_rejects_bad_level(self):
        data = data_with_totals(3, 3, 2.0, 2.0)
        with pytest.raises(ValueError):
            asymptotic_ci(data, level=1.0)

    def test_positive_width_where_the_variance_underflows(self):
        # r_hat = 1e-168: its delta variance, about 2e-336, underflows to 0.
        data = data_with_totals(1, 1, 1e-168, 1.0)
        r_hat = 1e-168 / (1e-168 + 1.0)
        assert r_hat**2 * (1.0 - r_hat) ** 2 * 2.0 == 0.0
        interval = asymptotic_ci(data, level=0.95)
        half_width = normal_quantile(0.975) * r_hat * (1.0 - r_hat) * math.sqrt(2.0)
        assert interval.lower == 0.0
        assert interval.upper == pytest.approx(r_hat + half_width, rel=1e-12)
        assert interval.upper > r_hat
        with pytest.raises(ValueError):
            asymptotic_ci(data, level=0.0)

    @pytest.mark.parametrize("level", [1e-300, 0.5, 0.95, 1.0 - 2.0**-52])
    @pytest.mark.parametrize("counts", [(1, 1), (3, 1000), (10**6, 10**6)])
    def test_bounds_hold_at_the_edge_without_a_check(self, level, counts):
        # The asymptotic bounds are not checked: 0 <= lower <= r_hat <= upper
        # <= 1 holds by construction once r_hat lies inside (0, 1).  Odds from
        # 2**-52, where r_hat is as close to 1 as it may be, to 1e305, where it
        # is about 1e-305; levels whose normal factor is 0 and the largest.
        r1, r2 = counts
        odds = np.array([2.0**-52, 1e-10, 0.5, 1.0, 1e10, 1e300, 1e305])
        v = odds * (r2 / r1)
        r_hat = 1.0 / (1.0 + (r1 / r2) * (v / 1.0))
        assert ((0.0 < r_hat) & (r_hat < 1.0)).all()
        lower, upper = interval_kernel("asymptotic", r1, np.ones(odds.size), r2, v, level)
        assert ((0.0 <= lower) & (lower <= r_hat) & (r_hat <= upper) & (upper <= 1.0)).all()


class TestExactCi:
    def test_matches_f_distribution_oracle(self):
        data = draw_dataset(ExponentialScales(2.0, 3.0), 10, 15, 8, 11, RngStream(47, 0))
        interval = exact_ci(data, level=0.90)
        w = (8 * data.stress.ttt) / (11 * data.strength.ttt)
        f_lo = scipy.stats.f.ppf(0.05, 22, 16)
        f_hi = scipy.stats.f.ppf(0.95, 22, 16)
        assert interval.lower == pytest.approx(1.0 / (1.0 + w / f_lo), abs=1e-9)
        assert interval.upper == pytest.approx(1.0 / (1.0 + w / f_hi), abs=1e-9)
        assert interval.method == "exact"

    def test_symmetric_data_centers_on_half(self):
        interval = exact_ci(data_with_totals(6, 6, 4.0, 4.0))
        assert interval.lower == pytest.approx(1.0 - interval.upper, abs=1e-9)
        assert interval.lower < 0.5 < interval.upper

    def test_levels_are_nested(self):
        data = draw_dataset(ExponentialScales(1.0, 2.0), 10, 10, 7, 7, RngStream(52, 0))
        narrow = exact_ci(data, level=0.90)
        middle = exact_ci(data, level=0.95)
        wide = exact_ci(data, level=0.99)
        assert wide.lower < middle.lower < narrow.lower
        assert narrow.upper < middle.upper < wide.upper

    def test_invariant_under_joint_rescaling(self):
        base = data_with_totals(5, 7, 3.0, 11.0)
        scaled = data_with_totals(5, 7, 6.0, 22.0)
        a, b = exact_ci(base), exact_ci(scaled)
        assert (a.lower, a.upper) == (b.lower, b.upper)

    def test_width_shrinks_with_more_observations(self):
        widths = []
        for r in (4, 16, 64):
            interval = exact_ci(data_with_totals(r, r, 2.0 * r, 3.0 * r))
            widths.append(interval.upper - interval.lower)
        assert widths[0] > widths[1] > widths[2]

    def test_coverage_matches_nominal_level(self):
        params = ExponentialScales(2.0, 3.0)
        target = true_reliability(params)
        z, v = totals_of([draw_dataset(params, 10, 10, 8, 8, RngStream(9001, i))
                          for i in range(2000)])
        lower, upper = interval_kernel("exact", 8, z, 8, v, 0.95)
        coverage = np.mean((lower <= target) & (target <= upper))
        assert abs(coverage - 0.95) <= 0.02

    def test_asymptotic_coverage_is_close_at_moderate_sizes(self):
        # The normal interval undercovers a little at r = 8; keep a loose
        # band so this asserts sanity without pinning the approximation error.
        params = ExponentialScales(2.0, 3.0)
        target = true_reliability(params)
        z, v = totals_of([draw_dataset(params, 10, 10, 8, 8, RngStream(9002, i))
                          for i in range(2000)])
        lower, upper = interval_kernel("asymptotic", 8, z, 8, v, 0.95)
        coverage = np.mean((lower <= target) & (target <= upper))
        assert 0.85 <= coverage <= 0.99


class TestIntervalKernel:
    @pytest.mark.parametrize("method,ci", [("exact", exact_ci), ("asymptotic", asymptotic_ci)])
    @pytest.mark.parametrize("level", [0.8, 0.95, 0.99])
    def test_scalar_intervals_are_kernel_rows(self, method, ci, level):
        params = ExponentialScales(2.0, 3.0)
        datasets = [draw_dataset(params, 9, 12, 7, 4, RngStream(77, i)) for i in range(200)]
        datasets.append(data_with_totals(7, 4, 1e-160, 1.0))
        datasets.append(data_with_totals(7, 4, 1e6, 1e-6))
        z, v = totals_of(datasets)
        lower, upper = interval_kernel(method, 7, z, 4, v, level)
        for i, data in enumerate(datasets):
            interval = ci(data, level)
            assert (interval.lower, interval.upper) == (lower[i], upper[i])

    def test_an_mle_that_rounds_to_zero(self):
        with pytest.raises(ValueError, match="r_hat must lie strictly inside"):
            interval_kernel("asymptotic", 1, [1.0, 5e-324], 1, [1.0, 1e10], 0.95)
        lower, upper = interval_kernel("exact", 1, [1.0, 5e-324], 1, [1.0, 1e10], 0.95)
        assert (lower[1], upper[1]) == (0.0, 0.0)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("counts", [(1, 1), (2, 5)])
    @pytest.mark.parametrize("total", [2.0**1000, 1e308, 1.7e308])
    def test_equal_large_totals_give_the_bounds_at_one(self, method, counts, total):
        # The odds (r1/r2) * (V/Z) depend on the totals only through V/Z, so
        # they stay finite where r1 * V or Z/r1 + V/r2 does not.
        r1, r2 = counts
        lower, upper = interval_kernel(method, r1, [total], r2, [total], 0.95)
        expected_lower, expected_upper = interval_kernel(method, r1, [1.0], r2, [1.0], 0.95)
        assert (lower[0], upper[0]) == (expected_lower[0], expected_upper[0])

    @pytest.mark.parametrize("counts", [(1, 1), (2, 5), (8, 3), (40, 40)])
    def test_exact_bounds_are_the_odds_at_each_f_quantile(self, counts):
        # Both bounds come from one odds array; each must equal 1/(1 + w/F)
        # evaluated on its own, also where V/Z or w/F overflows or underflows.
        r1, r2 = counts
        z, v = (grid.ravel() for grid in np.meshgrid(np.geomspace(1e-300, 1.7e308, 61),
                                                      np.geomspace(1e-300, 1.7e308, 67)))
        lower, upper = interval_kernel("exact", r1, z, r2, v, 0.95)
        tail = 0.5 * (1.0 - 0.95)
        for bound, tail in ((lower, tail), (upper, 1.0 - tail)):
            f = f_quantile(tail, 2.0 * r2, 2.0 * r1)
            with np.errstate(over="ignore"):
                expected = 1.0 / (1.0 + (r1 / r2) * (v / z) / f)
            assert bound.tobytes() == expected.tobytes()
        assert np.all(lower <= upper)
        assert lower.min() == 0.0 and upper.max() == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="method"):
            interval_kernel("bootstrap", 3, [1.0], 3, [1.0], 0.95)
        with pytest.raises(ValueError, match="level"):
            interval_kernel("exact", 3, [1.0], 3, [1.0], 1.0)
        with pytest.raises(ValueError, match="positive and finite"):
            interval_kernel("exact", 3, [1.0, 0.0], 3, [1.0, 1.0], 0.95)
        with pytest.raises(ValueError, match="stress totals"):
            interval_kernel("asymptotic", 3, [1.0, 2.0], 3, [1.0], 0.95)


class TestIntervalEstimate:
    # The records are built only from checked bounds; the kernel checks them.
    def test_methods_registry(self):
        assert METHODS == ("asymptotic", "exact")

    def test_rejects_inverted_bounds(self, monkeypatch):
        assert_exact_bounds_rejected(monkeypatch, 0.7, 0.3)

    def test_rejects_bounds_outside_unit_interval(self, monkeypatch):
        assert_exact_bounds_rejected(monkeypatch, -0.1, 0.5)
        assert_exact_bounds_rejected(monkeypatch, 0.5, 1.1)

    def test_rejects_nan_bounds(self, monkeypatch):
        assert_exact_bounds_rejected(monkeypatch, math.nan, 0.5)
        assert_exact_bounds_rejected(monkeypatch, 0.5, math.nan)

    def test_rejects_bad_level_and_method(self):
        data = data_with_totals(3, 3, 1.0, 1.0)
        for ci in (asymptotic_ci, exact_ci):
            with pytest.raises(ValueError, match=r"^level must lie in \(0, 1\), got 1.5$"):
                ci(data, 1.5)
        with pytest.raises(ValueError, match=r"^method must be one of .*, got 'bootstrap'$"):
            interval_kernel("bootstrap", 3, [1.0], 3, [1.0], 0.95)
