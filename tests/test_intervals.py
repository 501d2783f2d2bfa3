"""Confidence intervals: algebra oracles, clamping, coverage sanity."""

import math

import pytest
import scipy.stats

from helpers import data_with_totals
from stress_strength import (
    METHODS,
    ExponentialScales,
    IntervalEstimate,
    RngStream,
    asymptotic_ci,
    draw_dataset,
    exact_ci,
    delta_variance,
    mle_reliability,
    true_reliability,
)
from stress_strength.specfun import normal_quantile


class TestDeltaVariance:
    def test_hand_evaluated_value(self):
        # 0.25 * 0.25 * (1/8 + 1/8) = 0.015625.
        assert delta_variance(0.5, 8, 8) == pytest.approx(0.015625, abs=0.0)

    def test_doubling_counts_halves_variance(self):
        assert delta_variance(0.3, 10, 20) == 2.0 * delta_variance(0.3, 20, 40)

    def test_matches_finite_difference_propagation(self):
        # Rebuild the variance from a numerical gradient of a/(a+b) and the
        # inverse-information variances a^2/r1 and b^2/r2.
        a, b, r1, r2 = 2.0, 3.0, 7, 11
        h = 1e-6

        def ratio(x, y):
            return x / (x + y)

        grad_a = (ratio(a + h, b) - ratio(a - h, b)) / (2.0 * h)
        grad_b = (ratio(a, b + h) - ratio(a, b - h)) / (2.0 * h)
        propagated = grad_a**2 * a**2 / r1 + grad_b**2 * b**2 / r2
        assert delta_variance(ratio(a, b), r1, r2) == pytest.approx(propagated, rel=1e-6)

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            delta_variance(0.0, 5, 5)
        with pytest.raises(ValueError):
            delta_variance(1.0, 5, 5)
        with pytest.raises(ValueError):
            delta_variance(0.5, 0, 5)


class TestAsymptoticCi:
    def test_contains_mle_with_expected_width(self):
        data = draw_dataset(ExponentialScales(2.0, 3.0), 12, 12, 9, 9, RngStream(31, 0))
        interval = asymptotic_ci(data, level=0.95)
        r_hat = mle_reliability(data)
        sigma = math.sqrt(delta_variance(r_hat, 9, 9))
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
        r_hat = mle_reliability(data)
        assert delta_variance(r_hat, 1, 1) == 0.0
        interval = asymptotic_ci(data, level=0.95)
        half_width = normal_quantile(0.975) * r_hat * (1.0 - r_hat) * math.sqrt(2.0)
        assert interval.lower == 0.0
        assert interval.upper == pytest.approx(r_hat + half_width, rel=1e-12)
        assert interval.upper > r_hat
        with pytest.raises(ValueError):
            asymptotic_ci(data, level=0.0)


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
        hits = 0
        reps = 2000
        for i in range(reps):
            data = draw_dataset(params, 10, 10, 8, 8, RngStream(9001, i))
            interval = exact_ci(data, level=0.95)
            hits += interval.lower <= target <= interval.upper
        assert abs(hits / reps - 0.95) <= 0.02

    def test_asymptotic_coverage_is_close_at_moderate_sizes(self):
        # The normal interval undercovers a little at r = 8; keep a loose
        # band so this asserts sanity without pinning the approximation error.
        params = ExponentialScales(2.0, 3.0)
        target = true_reliability(params)
        hits = 0
        reps = 2000
        for i in range(reps):
            data = draw_dataset(params, 10, 10, 8, 8, RngStream(9002, i))
            interval = asymptotic_ci(data, level=0.95)
            hits += interval.lower <= target <= interval.upper
        assert 0.85 <= hits / reps <= 0.99


class TestIntervalEstimate:
    def test_methods_registry(self):
        assert METHODS == ("asymptotic", "exact")

    def test_rejects_inverted_bounds(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.7, 0.3, 0.95, "exact")

    def test_rejects_bounds_outside_unit_interval(self):
        with pytest.raises(ValueError):
            IntervalEstimate(-0.1, 0.5, 0.95, "exact")
        with pytest.raises(ValueError):
            IntervalEstimate(0.5, 1.1, 0.95, "exact")

    def test_rejects_bad_level_and_method(self):
        with pytest.raises(ValueError):
            IntervalEstimate(0.2, 0.8, 1.5, "exact")
        with pytest.raises(ValueError):
            IntervalEstimate(0.2, 0.8, 0.95, "bootstrap")
