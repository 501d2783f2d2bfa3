"""Point estimators: exact values, oracle comparisons, and invariances."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_type2_censoring,
    data_with_totals,
    draw_dataset,
    posterior_mean_mc_oracle,
    posterior_mean_mp_oracle,
    posterior_mean_quad_oracle,
    totals_of,
    umvue_mp_oracle,
    umvue_region_oracle,
)
from stress_strength import (
    NONINFORMATIVE,
    CensoredSample,
    EstimateSet,
    ExponentialScales,
    GammaPrior,
    NonConvergenceError,
    RngStream,
    StressStrengthData,
    estimate_all,
    estimate_kernel,
    true_reliability,
)
import stress_strength.estimators as estimators
import stress_strength.specfun as specfun
from stress_strength.estimators import _posterior_means, _umvue, _umvue_branch, _unit_rule


def umvue_batch(r1, z, r2, v):
    return _umvue(r1, np.asarray(z, dtype=float), r2, np.asarray(v, dtype=float))


def r2_umvue(r1, z, r2, v):
    """R2 for one pair of totals on test, through the public kernel."""
    return float(estimate_kernel(r1, [z], r2, [v])[0, 1])


def posterior_means(a1, zeta, a2, tau):
    """The posterior-mean kernel on one problem: shapes a1, a2 and arrays of scale totals."""
    (means,) = _posterior_means([(a1, np.asarray(zeta, dtype=float), a2,
                                  np.asarray(tau, dtype=float))])
    return means


def posterior_mean(a1, zeta, a2, tau):
    return float(posterior_means(a1, [zeta], a2, [tau])[0])


# On both scales, this prior makes R3's posterior shapes r + 1/2 and leaves
# its scale totals equal to R4's, Z and V.
HALF = GammaPrior(0.5, 0.0)
HALF_DATA = data_with_totals(3, 3, 3.0, 6.0)


def inject(monkeypatch, at=None, **estimates):
    """Set each estimate named r1, r2, r3 or r4 to the given value inside
    the kernel internal that computes it, on the rows whose strength total
    lies in ``at`` (every row if None), in a call with priors HALF, HALF."""
    def overwrite(column, zeta, out):
        if column in estimates:
            out[slice(None) if at is None else np.isin(zeta, at)] = estimates[column]

    def wrap(name, column):
        real = getattr(estimators, name)

        def fake(r1, z, r2, v, *rest):
            out = real(r1, z, r2, v, *rest)
            overwrite(column, z, out)
            return out

        monkeypatch.setattr(estimators, name, fake)

    wrap("_mle", "r1")
    wrap("_umvue", "r2")
    real_means = estimators._posterior_means

    def fake_means(problems, *rest):
        out = real_means(problems, *rest)
        for (a1, zeta, _, _), means in zip(problems, out):
            overwrite("r4" if float(a1).is_integer() else "r3", zeta, means)
        return out

    monkeypatch.setattr(estimators, "_posterior_means", fake_means)


def assert_rejected(message):
    """On HALF_DATA, both the kernel and estimate_all raise ``message``."""
    with pytest.raises(ValueError, match=message):
        estimate_kernel(3, [HALF_DATA.strength.ttt], 3, [HALF_DATA.stress.ttt], HALF, HALF)
    with pytest.raises(ValueError, match=message):
        estimate_all(HALF_DATA, HALF, HALF)


class TestTrueReliability:
    @pytest.mark.parametrize("alpha,beta,expected", [
        (2.0, 3.0, 0.4),
        (2.0, 6.0, 0.25),
        (7.0, 6.0, 7.0 / 13.0),
        (7.0, 7.0, 0.5),
    ])
    def test_reference_values(self, alpha, beta, expected):
        assert abs(true_reliability(ExponentialScales(alpha, beta)) - expected) <= 1e-12

    def test_monotone_in_alpha(self):
        values = [true_reliability(ExponentialScales(a, 3.0)) for a in (0.5, 1.0, 2.0, 8.0)]
        assert all(v1 < v2 for v1, v2 in zip(values, values[1:]))


class TestMleScale:
    # The scale MLE, total on test over observed count, reaches the caller
    # through R1 = alpha_hat / (alpha_hat + beta_hat).
    def test_hand_evaluated_censored_sample(self):
        # Observed 0.5, 1.0, 1.5 out of five units: ttt = 3 + 2 * 1.5 = 6,
        # so the strength MLE is 2; against a stress MLE of 3, R1 = 0.4.
        sample = CensoredSample.from_times([0.5, 1.0, 1.5], total_units=5)
        data = StressStrengthData(sample, CensoredSample.from_times([3.0], total_units=1))
        assert estimate_all(data).r1_mle == pytest.approx(0.4, abs=1e-15)

    def test_complete_sample_reduces_to_mean(self):
        x, y = [0.2, 0.9, 1.4, 2.7], [1.1, 0.3, 2.5]
        data = StressStrengthData(apply_type2_censoring(x, 4), apply_type2_censoring(y, 3))
        by_hand = np.mean(x) / (np.mean(x) + np.mean(y))
        assert estimate_all(data).r1_mle == pytest.approx(by_hand, rel=1e-15)

    def test_matches_hand_formula_on_random_samples(self):
        rng = np.random.default_rng(19)

        def sample_and_scale_mle():
            n = int(rng.integers(1, 30))
            r = int(rng.integers(1, n + 1))
            raw = rng.exponential(rng.uniform(0.1, 10.0), size=n)
            sample = apply_type2_censoring(raw, r)
            by_hand = (float(np.sum(sample.ordered_times))
                       + (n - r) * sample.ordered_times[-1]) / r
            return sample, by_hand

        for _ in range(25):
            strength, alpha_hat = sample_and_scale_mle()
            stress, beta_hat = sample_and_scale_mle()
            value = estimate_all(StressStrengthData(strength, stress)).r1_mle
            assert value == pytest.approx(alpha_hat / (alpha_hat + beta_hat), rel=1e-12)

    def test_scale_equivariance_power_of_two(self):
        raw = [0.3, 1.7, 0.9, 2.2, 4.1]
        base = apply_type2_censoring(raw, 3)
        doubled = apply_type2_censoring([2.0 * t for t in raw], 3)
        assert doubled.ttt == 2.0 * base.ttt
        stress = apply_type2_censoring([1.2, 0.4], 2)
        both_doubled = apply_type2_censoring([2.4, 0.8], 2)
        assert (estimate_all(StressStrengthData(doubled, both_doubled)).r1_mle
                == estimate_all(StressStrengthData(base, stress)).r1_mle)


class TestMleReliability:
    def test_plug_in_algebra(self):
        # Strength MLE 2 and stress MLE 3 must give 0.4 exactly.
        data = StressStrengthData(
            strength=CensoredSample.from_times([2.0], total_units=1),
            stress=CensoredSample.from_times([3.0], total_units=1),
        )
        assert estimate_all(data).r1_mle == pytest.approx(0.4, abs=1e-15)

    def test_symmetric_data_gives_half(self):
        data = data_with_totals(4, 4, 5.0, 5.0)
        assert estimate_all(data).r1_mle == 0.5

    def test_always_strictly_inside_unit_interval(self):
        z, v = totals_of([draw_dataset(ExponentialScales(0.5, 7.0), 6, 9, 4, 3, RngStream(8, i))
                          for i in range(50)])
        r1_mle = estimate_kernel(4, z, 3, v)[:, 0]
        assert ((0.0 < r1_mle) & (r1_mle < 1.0)).all()

    @pytest.mark.parametrize("total", [1.0, 2.0**1000, 1e308, 1.7e308])
    def test_equal_totals_give_half_at_any_size(self, total):
        # The plug-in odds (r1/r2) * (V/Z) stay finite where Z/r1 + V/r2 does not.
        assert estimate_kernel(1, [total], 1, [total])[0, 0] == 0.5
        assert estimate_kernel(4, [total], 4, [total])[0, 0] == 0.5


class TestUmvueReliability:
    def test_single_observation_each_is_the_indicator(self):
        assert r2_umvue(1, 3.0, 1, 2.0) == 1.0
        assert r2_umvue(1, 2.0, 1, 3.0) == 0.0

    def test_single_strength_observation_closed_form(self):
        # P(v1 < Z | V) = 1 - (1 - Z/V)^(r2-1) when Z < V.
        assert r2_umvue(1, 2.0, 3, 6.0) == pytest.approx(1.0 - (1.0 - 2.0 / 6.0) ** 2, abs=1e-12)
        assert r2_umvue(1, 7.0, 3, 6.0) == 1.0

    def test_single_stress_observation_closed_form(self):
        # P(V < z1 | Z) = (1 - V/Z)^(r1-1) when V < Z.
        assert r2_umvue(4, 8.0, 1, 2.0) == pytest.approx((1.0 - 2.0 / 8.0) ** 3, abs=1e-12)
        assert r2_umvue(4, 2.0, 1, 8.0) == 0.0

    def test_symmetric_totals_give_half(self):
        assert r2_umvue(5, 3.7, 5, 3.7) == pytest.approx(0.5, abs=1e-8)

    def test_matches_region_quadrature_oracle(self):
        assert r2_umvue(3, 6.0, 3, 4.0) == pytest.approx(
            umvue_region_oracle(3, 3, 6.0, 4.0), abs=1e-8
        )

    @settings(max_examples=40, deadline=None)
    @given(factor=st.floats(0.01, 100.0))
    def test_invariant_under_joint_rescaling(self, factor):
        assert r2_umvue(4, factor * 5.0, 6, factor * 3.0) == pytest.approx(
            r2_umvue(4, 5.0, 6, 3.0), abs=1e-8
        )

    def test_bounded_even_for_extreme_totals(self):
        values = estimate_kernel(2, [1e-6, 1e6], 2, [1e6, 1e-6])[:, 1]
        assert ((0.0 <= values) & (values <= 1.0)).all()


class TestGammaPrior:
    def test_conjugate_update_adds_hyperparameters(self):
        # Prior (2, 1) on 3 strength failures with total 3 is the posterior
        # of 5 failures with total 4; prior (1, 0.5) on 2 stress failures
        # with total 2.5 that of 3 failures with total 3.
        r3 = estimate_kernel(3, [3.0], 2, [2.5], GammaPrior(2.0, 1.0), GammaPrior(1.0, 0.5))[0, 2]
        assert r3 == estimate_kernel(5, [4.0], 3, [3.0])[0, 3]

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            GammaPrior(-1.0, 0.0)
        with pytest.raises(ValueError):
            GammaPrior(0.0, math.inf)
        with pytest.raises(ValueError):
            GammaPrior(math.nan, 1.0)


class TestBayesReliability:
    def test_matched_posteriors_give_half(self):
        assert posterior_mean(6.0, 4.0, 6.0, 4.0) == pytest.approx(0.5, abs=1e-10)

    def test_matches_monte_carlo_posterior_oracle(self):
        value = posterior_mean(4.0, 8.0, 3.0, 6.0)
        mc, se = posterior_mean_mc_oracle(4.0, 8.0, 3.0, 6.0, draws=10**6, seed=11)
        assert abs(value - mc) <= 4.0 * se

    def test_huge_stress_total_drives_estimate_to_zero(self):
        value = posterior_mean(5.0, 3.0, 5.0, 3e6)
        assert 0.0 < value < 0.01

    def test_noninformative_prior_reduces_to_r4(self):
        data = draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 7, 7, RngStream(2, 0))
        estimates = estimate_all(data, GammaPrior(0.0, 0.0), GammaPrior(0.0, 0.0))
        assert estimates.r3_bayes_conjugate == estimates.r4_bayes_noninf

    def test_prior_scale_mass_pulls_estimate_up(self):
        data = draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 7, 7, RngStream(2, 1))
        weak = estimate_all(data, GammaPrior(1.0, 0.1), NONINFORMATIVE).r3_bayes_conjugate
        strong = estimate_all(data, GammaPrior(1.0, 50.0), NONINFORMATIVE).r3_bayes_conjugate
        assert strong > weak


class TestEstimateAll:
    def test_symmetric_dataset_centers_every_estimator(self):
        data = data_with_totals(6, 6, 4.4, 4.4)
        estimates = estimate_all(data)
        assert estimates.r1_mle == 0.5
        assert estimates.r2_umvue == pytest.approx(0.5, abs=1e-8)
        assert estimates.r3_bayes_conjugate == pytest.approx(0.5, abs=1e-8)
        assert estimates.r4_bayes_noninf == pytest.approx(0.5, abs=1e-8)

    def test_deterministic_for_identical_data(self):
        data = draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 8, 8, RngStream(6, 0))
        assert estimate_all(data) == estimate_all(data)

    def test_frozen_regression_vector(self):
        # Values recorded from an oracle-validated run on this dataset:
        # MLE against the hand formula, UMVUE against the brute-force
        # region quadrature, both Bayes means against 1e7-draw Monte Carlo.
        data = draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 8, 8, RngStream(20260815, 0))
        estimates = estimate_all(data)
        assert estimates.r1_mle == pytest.approx(0.2452356592829034, abs=1e-10)
        assert estimates.r2_umvue == pytest.approx(0.2316331371539597, abs=1e-10)
        assert estimates.r3_bayes_conjugate == pytest.approx(0.25681650326899336, abs=1e-10)
        assert estimates.r4_bayes_noninf == pytest.approx(0.25681650326899336, abs=1e-10)
        informative = estimate_all(data, GammaPrior(2.0, 1.5), GammaPrior(1.0, 0.5))
        assert informative.r3_bayes_conjugate == pytest.approx(0.25881179697107126, abs=1e-10)
        assert informative.r4_bayes_noninf == estimates.r4_bayes_noninf

    @pytest.mark.parametrize("r1", [1, 2, 3, 17, 60, 1000])
    @pytest.mark.parametrize("r2", [1, 2, 3, 17, 60, 1000])
    def test_r4_does_not_depend_on_the_prior(self, r1, r2):
        # R4 is the posterior mean under the 1/scale prior whatever prior R3
        # is given: the same bits in a batch and one dataset at a time.
        rng = np.random.default_rng(r1 * 7919 + r2)
        ratios = np.logspace(-6.0, 6.0, 25)
        z = np.exp(rng.uniform(-5.0, 5.0, ratios.size))
        v = z * ratios
        plain = estimate_kernel(r1, z, r2, v)[:, 3].tolist()
        priors = [
            (GammaPrior(2.0, 4.0), GammaPrior(2.0, 5.0)),
            (GammaPrior(0.5, 1e-3), NONINFORMATIVE),
            (NONINFORMATIVE, GammaPrior(40.0, 1e4)),
        ]
        for prior in priors:
            assert estimate_kernel(r1, z, r2, v, *prior)[:, 3].tolist() == plain
        for i in range(0, ratios.size, 6):
            data = data_with_totals(r1, r2, z[i], v[i])
            alone = estimate_kernel(r1, [data.strength.ttt], r2, [data.stress.ttt])[0, 3]
            assert estimate_all(data).r4_bayes_noninf == alone
            for prior in priors:
                assert estimate_all(data, *prior).r4_bayes_noninf == alone

    def test_all_estimates_in_unit_interval_on_random_datasets(self):
        rng = np.random.default_rng(2024)
        for i in range(5000):
            n = int(rng.integers(1, 9))
            m = int(rng.integers(1, 9))
            r1 = int(rng.integers(1, n + 1))
            r2 = int(rng.integers(1, m + 1))
            params = ExponentialScales(
                float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.05, 20.0))
            )
            data = draw_dataset(params, n, m, r1, r2, RngStream(777, i))
            estimates = estimate_all(data)
            assert 0.0 < estimates.r1_mle < 1.0
            assert 0.0 <= estimates.r2_umvue <= 1.0
            assert 0.0 < estimates.r3_bayes_conjugate < 1.0
            assert 0.0 < estimates.r4_bayes_noninf < 1.0

    def test_estimate_set_validation(self, monkeypatch):
        # The rows EstimateSet(0.0, 0.5, 0.5, 0.5), (0.5, 1.2, 0.5, 0.5) and
        # (0.5, 0.5, 1.0, 0.5), now rejected where they are computed.
        for estimate, message in (
            (dict(r1=0.0), r"r1_mle must lie strictly inside \(0, 1\), got 0.0"),
            (dict(r2=1.2), r"r2_umvue must lie in \[0, 1\], got 1.2"),
            (dict(r3=1.0), r"r3_bayes_conjugate must lie strictly inside \(0, 1\), got 1.0"),
        ):
            with monkeypatch.context() as patch:
                inject(patch, **estimate)
                assert_rejected(message)


class TestEstimateChecks:
    @pytest.mark.parametrize("column,name", [
        ("r1", "r1_mle"), ("r2", "r2_umvue"),
        ("r3", "r3_bayes_conjugate"), ("r4", "r4_bayes_noninf"),
    ])
    def test_nan_is_rejected_and_named(self, monkeypatch, column, name):
        inject(monkeypatch, **{column: math.nan})
        assert_rejected(rf"^{name} must lie .*, got nan$")

    def test_r3_is_named_before_r2(self, monkeypatch):
        inject(monkeypatch, r2=1.5, r3=1.0)
        assert_rejected(r"^r3_bayes_conjugate must lie strictly inside \(0, 1\), got 1.0$")

    def test_ends_of_each_range(self, monkeypatch):
        # R2 may reach 0 and 1; the other three may not.
        for r2 in (0.0, 1.0):
            with monkeypatch.context() as patch:
                inject(patch, r2=r2)
                assert estimate_all(HALF_DATA, HALF, HALF).r2_umvue == r2
        for column in ("r1", "r3", "r4"):
            for value in (0.0, 1.0, -0.5, 1.5):
                with monkeypatch.context() as patch:
                    inject(patch, **{column: value})
                    assert_rejected(rf"strictly inside \(0, 1\), got {value}$")

    def test_kernel_raises_where_estimate_all_raises(self):
        # Real totals, no injected fault: the odds against R are 1e-20, so
        # R1 rounds to 1 in the second row, as it does in estimate_all.
        data = data_with_totals(3, 3, 1e20, 1.0)
        messages = []
        for call in (
            lambda: estimate_all(data),
            lambda: estimate_kernel(3, [1.0, data.strength.ttt], 3, [1.0, data.stress.ttt]),
            lambda: estimate_kernel(3, [1.0, 1e20], 3, [1.0, 1.0]),
        ):
            with pytest.raises(ValueError) as error:
                call()
            messages.append(str(error.value))
        assert messages == ["r1_mle must lie strictly inside (0, 1), got 1.0"] * 3

    def test_first_bad_row_is_named(self, monkeypatch):
        # Row 1 has only R2 out of range and row 2 only R1: row 1 is named.
        inject(monkeypatch, at=[2.0], r2=-0.25)
        inject(monkeypatch, at=[3.0], r1=1.0)
        with pytest.raises(ValueError, match=r"^r2_umvue must lie in \[0, 1\], got -0.25$"):
            estimate_kernel(3, [1.0, 2.0, 3.0], 3, [1.0, 1.0, 1.0], HALF, HALF)


class TestUmvueKernel:
    @pytest.mark.parametrize("r1,r2,ratio", [
        (2, 2, 0.3), (2, 9, 1.7), (40, 3, 0.9), (60, 60, 1.02),
        (200, 200, 1.0), (200, 1000, 0.21), (1000, 200, 4.9), (1000, 1000, 0.97),
        (999, 1000, 1.04), (2000, 2000, 1.0), (5000, 3, 0.999), (3, 5000, 1.001),
        (1000, 2, 0.87), (1000, 4, 1.7e-4), (10**4, 10**4, 0.99), (10**4, 10**4, 1.01),
        (2, 10**4, 0.5), (10**4, 2, 2.0),
    ])
    def test_matches_high_precision_oracle(self, r1, r2, ratio):
        data = data_with_totals(r1, r2, 5.0, 5.0 * ratio)
        z, v = data.strength.ttt, data.stress.ttt
        oracle = umvue_mp_oracle(r1, r2, z, v)
        assert abs(umvue_batch(r1, [z], r2, [v])[0] - oracle) <= 1e-12

    def test_matches_high_precision_oracle_on_criterion_3_configurations(self):
        rng = np.random.default_rng(30)
        for r1 in (2, 3, 5, 8):
            for r2 in (2, 3, 5, 8):
                z, v = rng.uniform(0.5, 12.0, size=(2, 5))
                oracle = [umvue_mp_oracle(r1, r2, zi, vi) for zi, vi in zip(z, v)]
                assert np.max(np.abs(umvue_batch(r1, z, r2, v) - oracle)) <= 1e-12

    def test_batch_rows_equal_single_evaluations(self):
        rng = np.random.default_rng(8)
        for r1, r2 in ((1, 1), (1, 4), (6, 1), (3, 7), (300, 500), (1000, 1000), (10**4, 3)):
            z, v = rng.exponential(1.0, size=(2, 37))
            batch = umvue_batch(r1, z, r2, v)
            single = [umvue_batch(r1, [zi], r2, [vi])[0] for zi, vi in zip(z, v)]
            assert batch.tolist() == single

    @pytest.mark.parametrize("a", [3, 24, 200, 1000, 10**4])
    @pytest.mark.parametrize("b", [3, 24, 1000])
    def test_trimmed_rule_is_within_its_bound_of_the_full_rule(self, a, b):
        # The branch kernel drops the nodes where (a-1)(1-s)**(a-2) is below
        # 2**-60; summing the same terms over every node of the rule must
        # not differ by more than that bound plus rounding.
        k = 1 << (-(-(a + b - 2) // 2) - 1).bit_length()
        s, w = _unit_rule(k, k)
        x = np.array([1e-6, 0.01, 0.3, 0.9, 0.999, 1.0])
        bracket = -np.expm1((b - 1) * np.log1p(-np.outer(x, s)))
        full = (a - 1) * (bracket * (w * np.exp((a - 2) * np.log1p(-s)))).sum(axis=1)
        trimmed = _umvue_branch(a, b, x)
        assert np.max(np.abs(trimmed - full)) <= 2.0**-60 + 1e-15

    def test_large_counts_polish_only_the_nodes_they_keep(self, monkeypatch):
        # At r1 = r2 = 10**4 the rule has 16384 nodes and the trimmed UMVUE
        # keeps 743 of them; only the 1024 smallest are built.
        polished = []
        real = specfun._legendre_with_derivative
        monkeypatch.setattr(specfun, "_legendre_with_derivative",
                            lambda k, x: polished.append((k, x.size)) or real(k, x))
        monkeypatch.setattr(estimators, "_unit_rule",
                            functools.lru_cache(maxsize=None)(_unit_rule.__wrapped__))
        monkeypatch.setattr(estimators, "_umvue_rule",
                            functools.lru_cache(maxsize=128)(estimators._umvue_rule.__wrapped__))
        value = r2_umvue(10**4, 1.0, 10**4, 1.01)
        assert {k for k, _ in polished} == {16384} and max(size for _, size in polished) == 1024
        assert abs(value - umvue_mp_oracle(10**4, 10**4, 1.0, 1.01)) <= 1e-12


class TestPosteriorMeanKernel:
    @pytest.mark.parametrize("a1", [1.0, 2.5, 40.0, 3000.0])
    @pytest.mark.parametrize("a2", [1.0, 17.0, 3000.0])
    @pytest.mark.parametrize("ratio", [1e-12, 0.3, 1e12])
    def test_matches_high_precision_oracle(self, a1, a2, ratio):
        value = posterior_mean(a1, 1.0, a2, ratio)
        assert abs(value - posterior_mean_mp_oracle(a1, 1.0, a2, ratio)) <= 1e-12

    # Posteriors whose peak the adaptive route's first panels missed:
    # (a1, zeta, a2, tau, value to five digits).
    PEAK_MISSES = [
        (1630.0, 1.0, 2020.0, 7480.0, 1.6575e-4),
        (1870.0, 1.0, 1500.0, 6.12e6, 1.3114e-7),
    ]

    @pytest.mark.parametrize("case", PEAK_MISSES)
    def test_narrow_peak_regression(self, case):
        a1, zeta, a2, tau, rounded = case
        oracle = posterior_mean_quad_oracle(a1, zeta, a2, tau)
        assert oracle == pytest.approx(rounded, rel=1e-4)
        value = posterior_mean(a1, zeta, a2, tau)
        assert abs(value - oracle) <= 1e-12 * oracle

    def test_narrow_peak_through_estimate_all(self):
        data = draw_dataset(ExponentialScales(1.0, 6000.0), 1630, 2020, 1630, 2020,
                            RngStream(163, 0))
        z, v = data.strength.ttt, data.stress.ttt
        prior = GammaPrior(2.0, 3.0), GammaPrior(1.0, 4000.0)
        estimates = estimate_all(data, *prior)
        r4 = posterior_mean_quad_oracle(1630, z, 2020, v)
        r3 = posterior_mean_quad_oracle(1632, 3.0 + z, 2021, 4000.0 + v)
        assert 1e-4 < r4 < 3e-4
        assert abs(estimates.r4_bayes_noninf - r4) <= 1e-12 * r4
        assert abs(estimates.r3_bayes_conjugate - r3) <= 1e-12 * r3

    def test_matches_high_precision_oracle_on_criterion_5_configurations(self):
        priors = [
            (NONINFORMATIVE, NONINFORMATIVE),
            (GammaPrior(0.5, 0.5), GammaPrior(0.5, 1.0)),
            (GammaPrior(2.0, 1.5), GammaPrior(1.0, 0.5)),
            (GammaPrior(5.0, 4.0), GammaPrior(3.0, 2.0)),
        ]
        z, v = totals_of([draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 8, 8,
                                       RngStream(500, d)) for d in range(3)])
        for prior_strength, prior_stress in priors:
            values = estimate_kernel(8, z, 8, v, prior_strength, prior_stress)[:, 2]
            for value, zeta, tau in zip(values, prior_strength.scale_v + z,
                                        prior_stress.scale_v + v):
                oracle = posterior_mean_mp_oracle(
                    prior_strength.shape_u + 8, zeta, prior_stress.shape_u + 8, tau)
                assert abs(value - oracle) <= 1e-12

    # Both sides of the step's switch from 1 to the sd bound (a = 1 + sqrt(3)
    # for equal shapes), the shapes of r = 1, and unequal small shapes.
    @pytest.mark.parametrize("a1, a2", [
        (2.7, 2.7), (2.76, 2.76), (1.0, 1.0), (1.0, 60.0), (60.0, 1.0), (2.0, 3.0), (3.0, 2.0),
    ])
    def test_matches_high_precision_oracle_at_the_rule_edges(self, a1, a2):
        ratios = np.logspace(-12.0, 12.0, 9)
        values = posterior_means(a1, np.ones(ratios.size), a2, ratios)
        for value, ratio in zip(values, ratios):
            assert abs(value - posterior_mean_mp_oracle(a1, 1.0, a2, ratio)) <= 1e-12

    def test_small_shapes_take_larger_rules(self, monkeypatch):
        # At shapes (1, 60) rule 1 has 301 nodes.  Its comparison with the
        # even nodes fails for tau = 3 and 10 but not for 1e-6 and 1e6, so
        # under a budget of 301 only the first two need the halved rule, and
        # with its 601 nodes allowed every value is accurate.  Each value is
        # also taken alone, on the one-value path.
        ones = np.ones(3)
        monkeypatch.setattr(estimators, "_BAYES_NODE_BUDGET", 301)
        posterior_means(1.0, ones[:2], 60.0, np.array([1e-6, 1e6]))
        posterior_means(1.0, ones[:1], 60.0, np.array([1e6]))
        for tau in (3.0, 10.0):
            for taus in ([1e-6, tau, 1e6], [tau]):
                with pytest.raises(NonConvergenceError, match="needs 601 nodes"):
                    posterior_means(1.0, ones[:len(taus)], 60.0, np.array(taus))
        monkeypatch.setattr(estimators, "_BAYES_NODE_BUDGET", 601)
        taus = np.array([1e-6, 3.0, 10.0, 1e6])
        values = posterior_means(1.0, np.ones(4), 60.0, taus)
        for got, tau in zip(values, taus):
            assert abs(got - posterior_mean_mp_oracle(1.0, 1.0, 60.0, tau)) <= 1e-12
            assert posterior_mean(1.0, 1.0, 60.0, tau) == got

    def test_rules_that_never_agree_stop_at_the_budget(self, monkeypatch):
        # Shapes (10, 11) start from 141 nodes; the rule of 4481 would pass 4096.
        monkeypatch.setattr(estimators, "_BAYES_AGREEMENT", -1.0)
        with pytest.raises(NonConvergenceError, match="needs 4481 nodes"):
            posterior_mean(10.0, 1.0, 11.0, 1.0)

    def test_shapes_too_small_for_the_largest_rule_raise(self):
        with pytest.raises(NonConvergenceError, match="more than the 4096 allowed"):
            posterior_mean(1e-4, 1.0, 2e-4, 3.0)


class TestRuleMemos:
    """The shape-only parts of the rules are kept in bounded memos."""

    MEMOS = {"_bayes_span": 128, "_node_grid": 32, "_bayes_rule": 128, "_umvue_rule": 128}

    def test_memos_are_bounded(self):
        for name, size in self.MEMOS.items():
            assert getattr(estimators, name).cache_info().maxsize == size
        for a in range(3, 300):  # more shapes than any memo keeps
            estimators._bayes_span(float(a), 4.0)
            estimators._node_grid(2 * a, 2 * a)
            estimators._bayes_rule(float(a), 4.0, 0)
            estimators._umvue_rule(a, 4)
        for name, size in self.MEMOS.items():
            assert getattr(estimators, name).cache_info().currsize == size

    def test_kept_arrays_are_read_only(self):
        rule, _ = estimators._bayes_rule(6.0, 7.0, 1)
        neg_s, factor = estimators._umvue_rule(6, 7)
        for array in (rule[0, 0], rule[0, 1], estimators._node_grid(70, 70), neg_s, factor):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.5

    @pytest.mark.parametrize("a1, a2, halvings", [
        (1.0, 60.0, 1), (2.0, 3.0, 0), (4.5, 5.25, 0), (200.0, 1000.0, 2), (3000.0, 1.0, 0),
    ])
    def test_kept_posterior_rule_equals_a_fresh_build(self, a1, a2, halvings):
        estimators._bayes_rule(a1, a2, halvings)
        kept = estimators._bayes_rule(a1, a2, halvings)
        fresh = estimators._bayes_rule.__wrapped__(a1, a2, halvings)
        assert estimators._bayes_rule.cache_info().hits > 0
        for got, built in zip(kept, fresh):
            assert np.array_equal(got, built) and np.asarray(got).dtype == np.asarray(built).dtype

    @pytest.mark.parametrize("a, b", [(2, 2), (3, 7), (24, 24), (1000, 3), (3, 1000)])
    def test_kept_umvue_rule_equals_a_fresh_build(self, a, b):
        estimators._umvue_rule(a, b)
        kept = estimators._umvue_rule(a, b)
        fresh = estimators._umvue_rule.__wrapped__(a, b)
        for got, built in zip(kept, fresh):
            assert np.array_equal(got, built)

    def test_estimates_do_not_depend_on_what_the_memos_hold(self, monkeypatch):
        z, v = np.random.default_rng(5).exponential(1.0, size=(2, 30))
        prior = GammaPrior(2.0, 4.0), GammaPrior(2.0, 5.0)
        warm = [estimate_kernel(r1, z, r2, v, *prior) for r1, r2 in ((1, 60), (3, 7), (8, 8))]
        for name, size in self.MEMOS.items():
            memo = getattr(estimators, name)
            monkeypatch.setattr(estimators, name, functools.lru_cache(maxsize=size)(memo.__wrapped__))
        cold = [estimate_kernel(r1, z, r2, v, *prior) for r1, r2 in ((1, 60), (3, 7), (8, 8))]
        assert all(np.array_equal(a, b) for a, b in zip(warm, cold))


class TestEstimateKernel:
    @settings(max_examples=60, deadline=None)
    @given(
        r1=st.integers(1, 60),
        r2=st.integers(1, 60),
        log_ratio=st.floats(-3.0, 3.0),
        u1=st.floats(0.5, 5.0),
        u2=st.floats(0.5, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_high_precision_oracles(self, r1, r2, log_ratio, u1, u2, seed):
        # The datasets workload's range: scale ratios 1e+-3 and r up to 60.
        alpha, beta = 10.0 ** (0.5 * log_ratio), 10.0 ** (-0.5 * log_ratio)
        data = draw_dataset(ExponentialScales(alpha, beta), 2 * r1, 2 * r2, r1, r2,
                            RngStream(seed, 0))
        z, v = data.strength.ttt, data.stress.ttt
        prior = GammaPrior(u1, u1 * alpha), GammaPrior(u2, u2 * beta)
        got = estimate_kernel(r1, [z], r2, [v], *prior)[0]
        if r2 > 1:
            assert abs(got[1] - umvue_mp_oracle(r1, r2, z, v)) <= 1e-12
        r3 = posterior_mean_mp_oracle(u1 + r1, u1 * alpha + z, u2 + r2, u2 * beta + v)
        assert abs(got[2] - r3) <= 1e-12
        assert abs(got[3] - posterior_mean_mp_oracle(r1, z, r2, v)) <= 1e-12

    def test_rows_equal_estimate_all(self):
        params = ExponentialScales(2.0, 3.0)
        prior = GammaPrior(2.0, 4.0), GammaPrior(2.0, 5.0)
        datasets = [draw_dataset(params, 10, 8, 7, 5, RngStream(44, i)) for i in range(300)]
        z = [data.strength.ttt for data in datasets]
        v = [data.stress.ttt for data in datasets]
        for priors in ((NONINFORMATIVE, NONINFORMATIVE), prior):
            batch = estimate_kernel(7, z, 5, v, *priors)
            for row, data in zip(batch, datasets):
                assert EstimateSet(*row.tolist()) == estimate_all(data, *priors)

    def test_empty_totals_give_no_rows(self):
        for priors in ((NONINFORMATIVE, NONINFORMATIVE), (GammaPrior(2.0, 4.0), HALF)):
            assert estimate_kernel(3, [], 5, [], *priors).shape == (0, 4)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_kernel(0, [1.0], 2, [1.0])
        with pytest.raises(ValueError):
            estimate_kernel(True, [1.0], True, [2.0])
        with pytest.raises(ValueError):
            estimate_kernel(2, [1.0, 2.0], 2, [1.0])
        with pytest.raises(ValueError):
            estimate_kernel(2, [0.0], 2, [1.0])
        with pytest.raises(ValueError):
            estimate_kernel(2, [1.0], 2, [math.inf])
