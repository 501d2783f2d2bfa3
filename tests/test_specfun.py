"""Special functions: reference values, identities, and quadrature rules."""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from helpers import beta_tails_spy

import stress_strength.specfun as specfun
from stress_strength.specfun import (
    NonConvergenceError,
    f_quantile,
    gauss_legendre,
    normal_quantile,
)


def incomplete_beta(a, b, x):
    return specfun._beta_tails(a, b, x, specfun._log_beta(a, b))[0]


class TestRegIncompleteBeta:
    def test_uniform_case(self):
        lower, upper, front = specfun._beta_tails(1.0, 1.0, 0.3, 0.0)
        assert lower == pytest.approx(0.3, abs=1e-14)
        assert upper == pytest.approx(0.7, abs=1e-14)
        assert front == pytest.approx(0.21, abs=1e-14)

    def test_matches_reference_grid(self):
        shapes = [0.2, 0.7, 1.0, 2.5, 7.0, 24.0]
        xs = np.linspace(0.001, 0.999, 31)
        for a in shapes:
            for b in shapes:
                for x in xs:
                    expected = scipy.special.betainc(a, b, x)
                    assert abs(incomplete_beta(a, b, float(x)) - expected) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.05, 60.0),
        b=st.floats(0.05, 60.0),
        # From 2**-53 up, 1 - x is below 1, so both x and its complement
        # below stay strictly inside (0, 1).
        x=st.floats(2.0**-53, 1.0, exclude_max=True),
    )
    def test_reflection_identity(self, a, b, x):
        # Use an exactly representable complement pair; otherwise the
        # rounding of 1 - x itself dominates for shapes below one.
        complement = 1.0 - x
        x = 1.0 - complement
        total = incomplete_beta(a, b, x) + incomplete_beta(b, a, complement)
        assert abs(total - 1.0) <= 1e-12

    def test_one_small_and_one_large_shape(self):
        # lgamma(a + b) - lgamma(b) cancels for small a and large b; the
        # front factor must not lose the digits it cancels.  scipy's
        # betainc is itself up to 8e-13 off here, so mpmath is the oracle.
        for a in [0.5, 1.0, 5.0, 12.0]:
            for b in [1e3, 1e4, 1e5]:
                for x in [0.1 * a / b, a / b]:
                    with mpmath.workdps(40):
                        expected = float(mpmath.betainc(a, b, 0, x, regularized=True))
                    assert abs(incomplete_beta(a, b, x) - expected) <= 1e-13 * expected

    def test_strictly_monotone_in_x(self):
        xs = np.linspace(0.01, 0.99, 50)
        values = [incomplete_beta(3.0, 5.0, float(x)) for x in xs]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


def interval_traffic(counts):
    """Every (p, d1, d2) that exact_ci asks f_quantile for with r1 and r2 in
    counts, at the levels 0.8, 0.9, 0.95 and 0.99."""
    r1, r2, level = np.meshgrid(counts, counts, [0.8, 0.9, 0.95, 0.99])
    tail = 0.5 * (1.0 - level.ravel())
    p = np.concatenate((tail, 1.0 - tail))
    return p, np.tile(2.0 * r2.ravel(), 2), np.tile(2.0 * r1.ravel(), 2)


def _normal_cdf_by_simpson(z: float) -> float:
    # Independent CDF: Simpson integration of the density from 0 to z.
    n = 4000
    xs = np.linspace(0.0, z, n + 1)
    density = np.exp(-0.5 * xs * xs) / math.sqrt(2.0 * math.pi)
    h = z / n
    weights = np.ones(n + 1)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return 0.5 + h / 3.0 * float(weights @ density)


class TestNormalQuantile:
    def test_median_is_zero(self):
        assert abs(normal_quantile(0.5)) <= 1e-12

    def test_antisymmetry(self):
        for p in [0.01, 0.1, 0.3, 0.45]:
            assert normal_quantile(p) == pytest.approx(-normal_quantile(1.0 - p), abs=1e-12)

    def test_against_bisection_on_independent_cdf(self):
        # Bisect an independently coded Phi (Simpson rule on the density).
        for p in [0.6, 0.75, 0.9, 0.95, 0.975, 0.99]:
            lo, hi = 0.0, 10.0
            for _ in range(80):
                mid = 0.5 * (lo + hi)
                if _normal_cdf_by_simpson(mid) < p:
                    lo = mid
                else:
                    hi = mid
            assert abs(normal_quantile(p) - 0.5 * (lo + hi)) <= 1e-9

    def test_round_trip_through_own_cdf(self):
        for p in np.linspace(0.001, 0.999, 41):
            assert abs(scipy.stats.norm.cdf(normal_quantile(float(p))) - p) <= 1e-9

    @pytest.mark.parametrize("p", [1e-10, 0.5 + 1e-9, 0.9, 0.975, 0.995, 1.0 - 1e-10])
    def test_matches_reference(self, p):
        expected = scipy.stats.norm.ppf(p)
        assert abs(normal_quantile(p) - expected) <= 1e-14 * abs(expected)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.2, 1.7])
    def test_rejects_p_outside_open_interval(self, bad):
        with pytest.raises(ValueError):
            normal_quantile(bad)


class TestFQuantile:
    def test_median_is_one_for_equal_df(self):
        for df in [2.0, 6.0, 16.0]:
            assert f_quantile(0.5, df, df) == pytest.approx(1.0, rel=1e-9)

    def test_reciprocal_identity(self):
        for p in [0.05, 0.25, 0.9, 0.975]:
            direct = f_quantile(p, 8.0, 6.0)
            flipped = 1.0 / f_quantile(1.0 - p, 6.0, 8.0)
            assert direct == pytest.approx(flipped, rel=1e-9)

    def test_monte_carlo_quantile_check(self):
        rng = np.random.default_rng(42)
        draws = (rng.chisquare(4, size=10**6) / 4.0) / (rng.chisquare(6, size=10**6) / 6.0)
        q = f_quantile(0.95, 4.0, 6.0)
        assert abs(float(np.mean(draws <= q)) - 0.95) <= 0.001

    def test_round_trip_through_own_cdf(self):
        for d1, d2 in [(2.0, 2.0), (4.0, 6.0), (16.0, 40.0), (100.0, 10.0)]:
            for p in np.linspace(0.005, 0.995, 34):
                assert abs(scipy.stats.f.cdf(f_quantile(float(p), d1, d2), d1, d2) - p) <= 1e-9

    def test_strictly_increasing_in_p(self):
        grid = np.linspace(0.005, 0.995, 100)
        values = [f_quantile(float(p), 8.0, 14.0) for p in grid]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))

    def test_matches_reference(self):
        for p in [0.025, 0.5, 0.975]:
            for d1, d2 in [(4.0, 6.0), (16.0, 16.0), (40.0, 8.0)]:
                expected = scipy.stats.f.ppf(p, d1, d2)
                assert f_quantile(p, d1, d2) == pytest.approx(expected, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            f_quantile(0.0, 2.0, 2.0)
        with pytest.raises(ValueError):
            f_quantile(0.5, -1.0, 2.0)

    def test_largest_supported_degrees_of_freedom(self):
        expected = scipy.stats.f.ppf(0.5, 1e6, 1e6)
        assert abs(f_quantile(0.5, 1e6, 1e6) - expected) <= 1e-12 * expected
        # Beyond the bound the continued fraction would stall.
        with pytest.raises(ValueError, match=r"\(0, 1e6\]"):
            f_quantile(0.5, 1e7, 1e7)

    def test_root_where_the_beta_density_is_subnormal(self):
        # There the Halley step rounds to 0, which must not pass for
        # convergence.
        expected = scipy.stats.f.ppf(1e-300, 3.0, 2.0)
        assert abs(f_quantile(1e-300, 3.0, 2.0) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("p, d1, d2", [(1e-150, 3.0, 2.0), (1e-200, 4.0, 2.0),
                                           (1e-250, 3.0, 1.0), (1e-300, 6.0, 2.0)])
    def test_stop_on_the_cubic_rate_holds_at_tiny_roots(self, cold_quantiles, p, d1, d2):
        # Roots from 1e-100 down: Halley steps still run there, and a stop
        # test taken in absolute terms would underflow to 0 <= 0 and accept
        # any two of them in a row.
        expected = scipy.stats.f.ppf(p, d1, d2)
        assert abs(f_quantile(p, d1, d2) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("d1, d2", [(0.5, 0.5), (1.0, 1.0), (400.0, 2.0)])
    def test_upper_tail_with_few_denominator_df(self, d1, d2):
        # The quantile is 8.46e22 at (0.5, 0.5); a CDF computed as
        # 1 - (upper tail) rounds to 1 long before it.
        p = 1.0 - 1e-6
        expected = scipy.stats.f.ppf(p, d1, d2)
        assert abs(f_quantile(p, d1, d2) - expected) <= 1e-12 * expected

    @pytest.mark.parametrize("counts, tolerance", [
        pytest.param(range(1, 61), 1e-13, id="r-1-to-60"),
        # One count small and the other large cancelled in the log-beta.
        pytest.param([1, 2, 3, 10, 60, 200, 1000, 2000, 5000, 10**4], 1e-12, id="r-up-to-1e4"),
    ])
    def test_matches_reference_on_interval_traffic(self, counts, tolerance):
        p, d1, d2 = interval_traffic(counts)
        expected = scipy.stats.f.ppf(p, d1, d2)
        got = np.array([f_quantile(*args) for args in zip(p.tolist(), d1.tolist(), d2.tolist())])
        assert np.max(np.abs(got - expected) / expected) <= tolerance

    def test_interval_traffic_takes_two_evaluations_per_quantile(self, monkeypatch,
                                                                  cold_quantiles):
        # One evaluation at the guess and one after the first Halley step is
        # the rule: once two Halley steps in a row put the next correction
        # below rounding, the search stops without evaluating its last iterate.
        points = beta_tails_spy(monkeypatch)
        p, d1, d2 = interval_traffic(range(1, 61))
        counts = []
        for args in zip(p.tolist(), d1.tolist(), d2.tolist()):
            f_quantile.cache_clear()
            points.clear()
            f_quantile(*args)
            counts.append(len(points))
        assert np.mean(counts) <= 2.1 and max(counts) <= 4, (np.mean(counts), max(counts))

    def test_matches_reference_over_wide_grid(self):
        dfs = [1.0, 2.0, 3.0, 8.0, 40.0, 120.0, 400.0, 2000.0]
        for p in [1e-10, 1e-6, 0.005, 0.1, 0.5, 0.9, 0.995, 1.0 - 1e-6]:
            for d1 in dfs:
                for d2 in dfs:
                    expected = scipy.stats.f.ppf(p, d1, d2)
                    assert abs(f_quantile(p, d1, d2) - expected) <= 1e-10 * expected

    def test_evaluations_stay_few_over_wide_grid(self, monkeypatch):
        # Far lower tails, such as p = 1e-10 at d1 = 3, put the root many
        # decades below the bracket's upper end; bisecting in log t keeps
        # the search short there.
        calls = beta_tails_spy(monkeypatch)
        dfs = [1.0, 2.0, 3.0, 8.0, 40.0, 120.0, 400.0, 2000.0]
        worst = (0, None)
        for p in [1e-10, 1e-6, 0.005, 0.1, 0.5, 0.9, 0.995, 1.0 - 1e-6]:
            for d1 in dfs:
                for d2 in dfs:
                    f_quantile.cache_clear()
                    calls.clear()
                    f_quantile(p, d1, d2)
                    worst = max(worst, (len(calls), (p, d1, d2)))
        f_quantile.cache_clear()
        assert worst[0] <= 16, worst

    @pytest.fixture
    def cold_quantiles(self):
        f_quantile.cache_clear()
        yield
        f_quantile.cache_clear()

    @pytest.mark.parametrize("start", ["near zero", "near one", "other side of the median"])
    @pytest.mark.parametrize(
        "p, d1, d2",
        [(0.025, 2.0, 2.0), (0.975, 16.0, 6.0), (0.005, 120.0, 40.0), (0.9, 8.0, 14.0),
         (1e-6, 3.0, 400.0), (1.0 - 1e-6, 1.0, 1.0)],
    )
    def test_far_starting_points_reach_the_same_quantile(
        self, monkeypatch, cold_quantiles, start, p, d1, d2
    ):
        expected = f_quantile(p, d1, d2)
        f_quantile.cache_clear()
        real_guess = specfun._beta_guess
        starts = {
            "near zero": lambda p, q, a, b: (1e-300, 1.0),
            "near one": lambda p, q, a, b: (1.0 - 2.0**-53, 2.0**-53),
            "other side of the median": lambda p, q, a, b: real_guess(q, p, a, b),
        }
        monkeypatch.setattr(specfun, "_beta_guess", starts[start])
        assert abs(f_quantile(p, d1, d2) - expected) <= 1e-13 * expected

    def test_iteration_limit_raises(self, monkeypatch, cold_quantiles):
        # From a far start, the search succeeds with exactly the evaluations
        # it needs and raises with one fewer.
        monkeypatch.setattr(specfun, "_beta_guess", lambda p, q, a, b: (1e-300, 1.0))
        points = beta_tails_spy(monkeypatch)
        expected = f_quantile(0.975, 16.0, 6.0)
        needed = len(points)
        f_quantile.cache_clear()
        monkeypatch.setattr(specfun, "_QUANTILE_MAX_ITER", needed)
        assert f_quantile(0.975, 16.0, 6.0) == expected
        f_quantile.cache_clear()
        monkeypatch.setattr(specfun, "_QUANTILE_MAX_ITER", needed - 1)
        with pytest.raises(NonConvergenceError):
            f_quantile(0.975, 16.0, 6.0)


class TestGaussLegendre:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 33, 64, 100])
    def test_matches_numpy_rule(self, k):
        nodes, weights = gauss_legendre(k)
        ref_nodes, ref_weights = leggauss(k)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        # leggauss itself carries ~1e-12 relative error in its smallest weights.
        assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 1e-11

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 7, 8, 33, 64, 255])
    def test_smallest_nodes_equal_the_full_rule(self, k):
        # Only the roots the requested nodes need are polished, and each
        # node and weight comes out the same bit for bit.
        nodes, weights = gauss_legendre(k)
        for count in sorted({1, 2, k // 2, (k + 1) // 2, (k + 1) // 2 + 1, k - 1, k}):
            if 1 <= count <= k:
                some_nodes, some_weights = gauss_legendre(k, count)
                assert some_nodes.tolist() == nodes[:count].tolist()
                assert some_weights.tolist() == weights[:count].tolist()

    @pytest.mark.parametrize("k", [1, 2, 7, 64, 256, 1024])
    def test_exact_up_to_degree_2k_minus_1(self, k):
        nodes, weights = gauss_legendre(k)
        assert np.all(np.diff(nodes) > 0.0) and np.all(np.abs(nodes) < 1.0)
        assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
        for degree in sorted({0, 1, k - 1, 2 * k - 2, 2 * k - 1}):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert abs(float(weights @ nodes**degree) - exact) <= 1e-13

    def test_one_degree_too_many_is_not_exact(self):
        nodes, weights = gauss_legendre(4)
        assert abs(float(weights @ nodes**8) - 2.0 / 9.0) > 1e-3

    @pytest.mark.parametrize("bad", [0, -3, 2.0, "8", True])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            gauss_legendre(bad)
        with pytest.raises(ValueError, match="count"):
            gauss_legendre(8, bad)

    def test_rejects_more_nodes_than_the_rule_has(self):
        with pytest.raises(ValueError, match="count <= k"):
            gauss_legendre(8, 9)
