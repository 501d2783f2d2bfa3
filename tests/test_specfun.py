"""Special functions: reference values, identities, and quadrature rules.

``TestIntegrate1d`` covers the adaptive integrator that now lives in the
test helpers, where it recomputes the estimators' earlier results.
"""

import math

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from helpers import integrate_1d
from stress_strength import (
    NonConvergenceError,
    chisq_cdf,
    chisq_quantile,
    f_cdf,
    f_quantile,
    gauss_legendre,
    ln_gamma,
    normal_cdf,
    normal_quantile,
    reg_incomplete_beta,
    reg_lower_gamma,
)


class TestLnGamma:
    def test_small_integer_and_half_values(self):
        assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-12)
        assert ln_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-12)
        assert ln_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-12)

    def test_accuracy_over_wide_range(self):
        # Target: absolute error 1e-10, relaxed to a few ulps once the
        # magnitude of ln(gamma) makes 1e-10 unrepresentable in float64.
        xs = np.geomspace(1e-3, 1e6, 60)
        for x in xs:
            truth = float(mpmath.loggamma(mpmath.mpf(float(x))))
            tolerance = max(1e-10, 4.0 * math.ulp(abs(truth)))
            assert abs(ln_gamma(float(x)) - truth) <= tolerance

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ValueError):
            ln_gamma(bad)


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


class TestRegLowerGamma:
    def test_known_values(self):
        # P(1, x) is the exponential CDF.
        assert reg_lower_gamma(1.0, 0.7) == pytest.approx(-math.expm1(-0.7), abs=1e-14)
        assert reg_lower_gamma(2.5, 0.0) == 0.0

    def test_matches_reference_grid(self):
        for a in [0.3, 1.0, 4.0, 25.0, 200.0]:
            for x in [0.01, 0.5, 1.0, 4.0, 24.0, 250.0, 400.0]:
                expected = scipy.special.gammainc(a, x)
                assert abs(reg_lower_gamma(a, x) - expected) <= 1e-12


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


class TestChisqQuantile:
    def test_df2_closed_form(self):
        # With two degrees of freedom the distribution is exponential.
        for p in [0.1, 0.5, 0.9, 0.99]:
            assert chisq_quantile(p, 2.0) == pytest.approx(-2.0 * math.log1p(-p), rel=1e-9)

    def test_monte_carlo_quantile_check(self):
        rng = np.random.default_rng(7)
        draws = rng.chisquare(4, size=10**6)
        q = chisq_quantile(0.9, 4.0)
        assert abs(float(np.mean(draws <= q)) - 0.9) <= 0.002

    def test_round_trip_through_own_cdf(self):
        for df in [1.0, 2.0, 10.0, 48.0]:
            for p in np.linspace(0.005, 0.995, 34):
                assert abs(chisq_cdf(chisq_quantile(float(p), df), df) - p) <= 1e-9

    def test_matches_reference(self):
        for p in [0.025, 0.5, 0.975]:
            for df in [2.0, 10.0, 100.0]:
                expected = scipy.stats.chi2.ppf(p, df)
                assert chisq_quantile(p, df) == pytest.approx(expected, rel=1e-9)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            chisq_quantile(1.0, 3.0)
        with pytest.raises(ValueError):
            chisq_quantile(0.5, 0.0)


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
