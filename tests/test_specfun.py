"""Special functions: reference values, identities, and quadrature rules.

``TestIntegrate1d`` covers the adaptive integrator that now lives in the
test helpers, where it recomputes the estimators' earlier results.
"""

import math

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

import stress_strength.specfun as specfun
from helpers import integrate_1d
from stress_strength import (
    NonConvergenceError,
    f_cdf,
    f_quantile,
    gauss_legendre,
    normal_cdf,
    normal_quantile,
    reg_incomplete_beta,
)


class TestRegIncompleteBeta:
    def test_endpoints_and_uniform_case(self):
        assert reg_incomplete_beta(2.0, 3.0, 0.0) == 0.0
        assert reg_incomplete_beta(2.0, 3.0, 1.0) == 1.0
        assert reg_incomplete_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, abs=1e-14)

    def test_matches_reference_grid(self):
        shapes = [0.2, 0.7, 1.0, 2.5, 7.0, 24.0]
        xs = np.linspace(0.001, 0.999, 31)
        for a in shapes:
            for b in shapes:
                for x in xs:
                    expected = scipy.special.betainc(a, b, x)
                    assert abs(reg_incomplete_beta(a, b, float(x)) - expected) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.floats(0.05, 60.0),
        b=st.floats(0.05, 60.0),
        x=st.floats(0.0, 1.0),
    )
    def test_reflection_identity(self, a, b, x):
        # Use an exactly representable complement pair; otherwise the
        # rounding of 1 - x itself dominates for shapes below one.
        complement = 1.0 - x
        x = 1.0 - complement
        total = reg_incomplete_beta(a, b, x) + reg_incomplete_beta(b, a, complement)
        assert abs(total - 1.0) <= 1e-12

    def test_strictly_monotone_in_x(self):
        xs = np.linspace(0.01, 0.99, 50)
        values = [reg_incomplete_beta(3.0, 5.0, float(x)) for x in xs]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            reg_incomplete_beta(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            reg_incomplete_beta(1.0, -2.0, 0.5)
        with pytest.raises(ValueError):
            reg_incomplete_beta(1.0, 1.0, 1.5)


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
            assert abs(normal_cdf(normal_quantile(float(p))) - p) <= 1e-9

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
                assert abs(f_cdf(f_quantile(float(p), d1, d2), d1, d2) - p) <= 1e-9

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

    @pytest.mark.parametrize("d1, d2", [(0.5, 0.5), (1.0, 1.0), (400.0, 2.0)])
    def test_upper_tail_with_few_denominator_df(self, d1, d2):
        # The quantile is 8.46e22 at (0.5, 0.5); f_cdf, which is 1 - (upper
        # tail), rounds to 1 long before it.
        p = 1.0 - 1e-6
        expected = scipy.stats.f.ppf(p, d1, d2)
        assert abs(f_quantile(p, d1, d2) - expected) <= 1e-12 * expected

    def test_matches_reference_on_interval_traffic(self):
        # Every quantile exact_ci asks for with r1, r2 in 1..60.
        r1, r2, level = np.meshgrid(np.arange(1, 61), np.arange(1, 61), [0.8, 0.9, 0.95, 0.99])
        tail = 0.5 * (1.0 - level.ravel())
        p = np.concatenate((tail, 1.0 - tail))
        d1 = np.tile(2.0 * r2.ravel(), 2)
        d2 = np.tile(2.0 * r1.ravel(), 2)
        expected = scipy.stats.f.ppf(p, d1, d2)
        got = np.array([f_quantile(*args) for args in zip(p.tolist(), d1.tolist(), d2.tolist())])
        assert np.max(np.abs(got - expected) / expected) <= 1e-12

    def test_matches_reference_over_wide_grid(self):
        dfs = [1.0, 2.0, 3.0, 8.0, 40.0, 120.0, 400.0, 2000.0]
        for p in [1e-10, 1e-6, 0.005, 0.1, 0.5, 0.9, 0.995, 1.0 - 1e-6]:
            for d1 in dfs:
                for d2 in dfs:
                    expected = scipy.stats.f.ppf(p, d1, d2)
                    assert abs(f_quantile(p, d1, d2) - expected) <= 1e-10 * expected

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
        real_tails = specfun._beta_tails
        points = []
        monkeypatch.setattr(specfun, "_beta_tails",
                            lambda a, b, x: points.append(x) or real_tails(a, b, x))
        expected = f_quantile(0.975, 16.0, 6.0)
        needed = len(points)
        f_quantile.cache_clear()
        monkeypatch.setattr(specfun, "_QUANTILE_MAX_ITER", needed)
        assert f_quantile(0.975, 16.0, 6.0) == expected
        f_quantile.cache_clear()
        monkeypatch.setattr(specfun, "_QUANTILE_MAX_ITER", needed - 1)
        with pytest.raises(NonConvergenceError):
            f_quantile(0.975, 16.0, 6.0)


# (integrand, lower, upper, exact integral)
_ANALYTIC_SUITE = [
    (lambda x: np.ones_like(x), 0.0, 1.0, 1.0),
    (lambda x: x, 0.0, 1.0, 0.5),
    (lambda x: x * x, 0.0, 2.0, 8.0 / 3.0),
    (lambda x: x**7, 0.0, 1.0, 0.125),
    (lambda x: x**19, 0.0, 1.0, 0.05),
    (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
    (lambda x: np.sin(x), 0.0, math.pi, 2.0),
    (lambda x: np.cos(x), 0.0, 0.5 * math.pi, 1.0),
    (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, 0.25 * math.pi),
    (lambda x: np.exp(-x * x), 0.0, 1.0, 0.5 * math.sqrt(math.pi) * math.erf(1.0)),
    (lambda x: x**-0.5, 0.0, 1.0, 2.0),
    (lambda x: np.sqrt(x), 0.0, 1.0, 2.0 / 3.0),
    (lambda x: np.log(x), 0.0, 1.0, -1.0),
    (lambda x: np.sqrt(1.0 - x), 0.0, 1.0, 2.0 / 3.0),
    (lambda x: np.sin(50.0 * x), 0.0, 2.0 * math.pi, 0.0),
    (lambda x: np.exp(-x), 0.0, 20.0, 1.0 - math.exp(-20.0)),
    (lambda x: x * np.exp(-x), 0.0, 10.0, 1.0 - 11.0 * math.exp(-10.0)),
    (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0, 2.0 * math.atan(1.0 / math.sqrt(1e-3)) / math.sqrt(1e-3)),
    (lambda x: np.sqrt(x) * np.log(x), 0.0, 1.0, -4.0 / 9.0),
    (lambda x: x**3 * (1.0 - x) ** 4, 0.0, 1.0, 1.0 / 280.0),
]


class TestIntegrate1d:
    def test_linear_function_is_exact(self):
        assert integrate_1d(lambda x: x, 0.0, 1.0) == pytest.approx(0.5, abs=5e-16)

    def test_smooth_function_to_default_tolerance(self):
        value = integrate_1d(lambda x: 4.0 / (1.0 + x * x), 0.0, 1.0)
        assert abs(value - math.pi) <= 1e-10

    def test_integrable_endpoint_singularity(self):
        value = integrate_1d(lambda x: x**-0.5, 0.0, 1.0)
        assert abs(value - 2.0) <= 1e-8

    @pytest.mark.parametrize("case", _ANALYTIC_SUITE, ids=range(len(_ANALYTIC_SUITE)))
    def test_reported_tolerance_is_conservative(self, case):
        f, lo, hi, exact = case
        value = integrate_1d(f, lo, hi)
        assert abs(value - exact) <= 1e-10

    def test_zero_width_interval(self):
        assert integrate_1d(lambda x: np.exp(x), 1.3, 1.3) == 0.0

    def test_subdivision_budget_enforced(self):
        with pytest.raises(NonConvergenceError):
            integrate_1d(lambda x: x**-0.5, 0.0, 1.0, abs_tolerance=1e-12, max_subdivisions=3)

    def test_rejects_bad_limits(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 1.0, 0.0)
        with pytest.raises(ValueError):
            integrate_1d(lambda x: x, 0.0, math.inf)

    def test_rejects_non_finite_integrand_values(self):
        with pytest.raises(ValueError):
            integrate_1d(lambda x: np.full_like(x, np.inf), 0.0, 1.0)


class TestGaussLegendre:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 8, 33, 64, 100])
    def test_matches_numpy_rule(self, k):
        nodes, weights = gauss_legendre(k)
        ref_nodes, ref_weights = leggauss(k)
        assert np.max(np.abs(nodes - ref_nodes)) <= 1e-15
        # leggauss itself carries ~1e-12 relative error in its smallest weights.
        assert np.max(np.abs(weights - ref_weights) / ref_weights) <= 1e-11

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

    @pytest.mark.parametrize("bad", [0, -3, 2.0, "8"])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(ValueError):
            gauss_legendre(bad)
