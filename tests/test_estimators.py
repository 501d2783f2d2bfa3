"""Point estimators: exact values, oracle comparisons, and invariances."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    data_with_totals,
    posterior_mean_adaptive_reference,
    posterior_mean_mc_oracle,
    posterior_mean_mp_oracle,
    posterior_mean_quad_oracle,
    umvue_adaptive_reference,
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
    PosteriorParams,
    RngStream,
    StressStrengthData,
    apply_type2_censoring,
    bayes_noninf_reliability,
    bayes_reliability,
    draw_dataset,
    draw_exponential_sample,
    estimate_all,
    estimate_kernel,
    mle_reliability,
    mle_scale,
    posterior_params,
    true_reliability,
    umvue_reliability,
)
from stress_strength.estimators import _posterior_mean_reliability, _posterior_means, _umvue


def umvue_batch(r1, z, r2, v):
    return _umvue(r1, np.asarray(z, dtype=float), r2, np.asarray(v, dtype=float))


def posterior_mean(a1, zeta, a2, tau):
    return _posterior_mean_reliability(PosteriorParams(a1, zeta), PosteriorParams(a2, tau))


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
    def test_hand_evaluated_censored_sample(self):
        # Observed 0.5, 1.0, 1.5 out of five units: ttt = 3 + 2 * 1.5 = 6.
        sample = CensoredSample.from_times([0.5, 1.0, 1.5], total_units=5)
        assert mle_scale(sample) == pytest.approx(2.0, abs=1e-15)

    def test_complete_sample_reduces_to_mean(self):
        times = [0.2, 0.9, 1.4, 2.7]
        sample = apply_type2_censoring(times, observed=4)
        assert mle_scale(sample) == pytest.approx(np.mean(times), rel=1e-15)

    def test_matches_hand_formula_on_random_samples(self):
        rng = np.random.default_rng(19)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            r = int(rng.integers(1, n + 1))
            raw = rng.exponential(rng.uniform(0.1, 10.0), size=n)
            sample = apply_type2_censoring(raw, r)
            by_hand = (float(np.sum(sample.ordered_times))
                       + (n - r) * sample.ordered_times[-1]) / r
            assert mle_scale(sample) == pytest.approx(by_hand, rel=1e-12)

    def test_scale_equivariance_power_of_two(self):
        raw = [0.3, 1.7, 0.9, 2.2, 4.1]
        base = mle_scale(apply_type2_censoring(raw, 3))
        doubled = mle_scale(apply_type2_censoring([2.0 * t for t in raw], 3))
        assert doubled == 2.0 * base


class TestMleReliability:
    def test_plug_in_algebra(self):
        # Strength MLE 2 and stress MLE 3 must give 0.4 exactly.
        data = StressStrengthData(
            strength=CensoredSample.from_times([2.0], total_units=1),
            stress=CensoredSample.from_times([3.0], total_units=1),
        )
        assert mle_reliability(data) == pytest.approx(0.4, abs=1e-15)

    def test_symmetric_data_gives_half(self):
        data = data_with_totals(4, 4, 5.0, 5.0)
        assert mle_reliability(data) == 0.5

    def test_always_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(3)
        for i in range(50):
            data = draw_dataset(ExponentialScales(0.5, 7.0), 6, 9, 4, 3, RngStream(8, i))
            assert 0.0 < mle_reliability(data) < 1.0


class TestUmvueReliability:
    def test_single_observation_each_is_the_indicator(self):
        assert umvue_reliability(data_with_totals(1, 1, 3.0, 2.0)) == 1.0
        assert umvue_reliability(data_with_totals(1, 1, 2.0, 3.0)) == 0.0

    def test_single_strength_observation_closed_form(self):
        # P(v1 < Z | V) = 1 - (1 - Z/V)^(r2-1) when Z < V.
        data = data_with_totals(1, 3, 2.0, 6.0)
        assert umvue_reliability(data) == pytest.approx(1.0 - (1.0 - 2.0 / 6.0) ** 2, abs=1e-12)
        assert umvue_reliability(data_with_totals(1, 3, 7.0, 6.0)) == 1.0

    def test_single_stress_observation_closed_form(self):
        # P(V < z1 | Z) = (1 - V/Z)^(r1-1) when V < Z.
        data = data_with_totals(4, 1, 8.0, 2.0)
        assert umvue_reliability(data) == pytest.approx((1.0 - 2.0 / 8.0) ** 3, abs=1e-12)
        assert umvue_reliability(data_with_totals(4, 1, 2.0, 8.0)) == 0.0

    def test_symmetric_totals_give_half(self):
        data = data_with_totals(5, 5, 3.7, 3.7)
        assert umvue_reliability(data) == pytest.approx(0.5, abs=1e-8)

    def test_matches_region_quadrature_oracle(self):
        data = data_with_totals(3, 3, 6.0, 4.0)
        z, v = data.strength.ttt, data.stress.ttt
        assert umvue_reliability(data) == pytest.approx(
            umvue_region_oracle(3, 3, z, v), abs=1e-8
        )

    @settings(max_examples=40, deadline=None)
    @given(factor=st.floats(0.01, 100.0))
    def test_invariant_under_joint_rescaling(self, factor):
        base = data_with_totals(4, 6, 5.0, 3.0)
        scaled = data_with_totals(4, 6, factor * 5.0, factor * 3.0)
        assert umvue_reliability(scaled) == pytest.approx(
            umvue_reliability(base), abs=1e-8
        )

    def test_bounded_even_for_extreme_totals(self):
        assert 0.0 <= umvue_reliability(data_with_totals(2, 2, 1e-6, 1e6)) <= 1.0
        assert 0.0 <= umvue_reliability(data_with_totals(2, 2, 1e6, 1e-6)) <= 1.0


class TestPosteriorParams:
    def test_noninformative_update(self):
        sample = CensoredSample.from_times([0.5, 1.0, 1.5], total_units=5)
        post = posterior_params(NONINFORMATIVE, sample)
        assert post.shape == 3.0
        assert post.scale_total == pytest.approx(sample.ttt, abs=0.0)

    def test_informative_update_adds_hyperparameters(self):
        sample = CensoredSample.from_times([1.0, 1.0, 1.0], total_units=4)
        post = posterior_params(GammaPrior(2.0, 1.0), sample)
        assert post.shape == 5.0
        assert post.scale_total == pytest.approx(1.0 + sample.ttt, abs=0.0)

    def test_prior_validation(self):
        with pytest.raises(ValueError):
            GammaPrior(-1.0, 0.0)
        with pytest.raises(ValueError):
            GammaPrior(0.0, math.inf)
        with pytest.raises(ValueError):
            PosteriorParams(0.0, 1.0)


class TestBayesReliability:
    def test_matched_posteriors_give_half(self):
        value = _posterior_mean_reliability(
            PosteriorParams(6.0, 4.0), PosteriorParams(6.0, 4.0)
        )
        assert value == pytest.approx(0.5, abs=1e-10)

    def test_matches_monte_carlo_posterior_oracle(self):
        value = _posterior_mean_reliability(
            PosteriorParams(4.0, 8.0), PosteriorParams(3.0, 6.0)
        )
        mc, se = posterior_mean_mc_oracle(4.0, 8.0, 3.0, 6.0, draws=10**6, seed=11)
        assert abs(value - mc) <= 4.0 * se

    def test_huge_stress_total_drives_estimate_to_zero(self):
        value = _posterior_mean_reliability(
            PosteriorParams(5.0, 3.0), PosteriorParams(5.0, 3e6)
        )
        assert 0.0 < value < 0.01

    def test_noninformative_prior_reduces_to_r4(self):
        data = draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 7, 7, RngStream(2, 0))
        assert bayes_reliability(data, NONINFORMATIVE, NONINFORMATIVE) == bayes_noninf_reliability(data)

    def test_prior_scale_mass_pulls_estimate_up(self):
        data = draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 7, 7, RngStream(2, 1))
        weak = bayes_reliability(data, GammaPrior(1.0, 0.1), NONINFORMATIVE)
        strong = bayes_reliability(data, GammaPrior(1.0, 50.0), NONINFORMATIVE)
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

    def test_estimate_set_validation(self):
        with pytest.raises(ValueError):
            EstimateSet(0.0, 0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            EstimateSet(0.5, 1.2, 0.5, 0.5)
        with pytest.raises(ValueError):
            EstimateSet(0.5, 0.5, 1.0, 0.5)


class TestUmvueKernel:
    @pytest.mark.parametrize("r1,r2,ratio", [
        (2, 2, 0.3), (2, 9, 1.7), (40, 3, 0.9), (60, 60, 1.02),
        (200, 200, 1.0), (200, 1000, 0.21), (1000, 200, 4.9), (1000, 1000, 0.97),
        (999, 1000, 1.04),
    ])
    def test_matches_high_precision_oracle(self, r1, r2, ratio):
        data = data_with_totals(r1, r2, 5.0, 5.0 * ratio)
        z, v = data.strength.ttt, data.stress.ttt
        oracle = umvue_mp_oracle(r1, r2, z, v)
        assert abs(umvue_batch(r1, [z], r2, [v])[0] - oracle) <= 1e-12

    def test_matches_adaptive_route_on_criterion_3_configurations(self):
        rng = np.random.default_rng(30)
        for r1 in (2, 3, 5, 8):
            for r2 in (2, 3, 5, 8):
                z, v = rng.uniform(0.5, 12.0, size=(2, 5))
                reference = [umvue_adaptive_reference(r1, r2, zi, vi) for zi, vi in zip(z, v)]
                assert np.max(np.abs(umvue_batch(r1, z, r2, v) - reference)) <= 1e-10

    def test_batch_rows_equal_single_evaluations(self):
        rng = np.random.default_rng(8)
        for r1, r2 in ((1, 1), (1, 4), (6, 1), (3, 7), (300, 500)):
            z, v = rng.exponential(1.0, size=(2, 37))
            batch = umvue_batch(r1, z, r2, v)
            single = [umvue_batch(r1, [zi], r2, [vi])[0] for zi, vi in zip(z, v)]
            assert batch.tolist() == single



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
        # The case still reproduces the miss it guards against.
        assert posterior_mean_adaptive_reference(a1, zeta, a2, tau) < 1e-3 * oracle

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

    def test_matches_adaptive_route_on_criterion_5_configurations(self):
        priors = [
            (NONINFORMATIVE, NONINFORMATIVE),
            (GammaPrior(0.5, 0.5), GammaPrior(0.5, 1.0)),
            (GammaPrior(2.0, 1.5), GammaPrior(1.0, 0.5)),
            (GammaPrior(5.0, 4.0), GammaPrior(3.0, 2.0)),
        ]
        for d in range(3):
            data = draw_dataset(ExponentialScales(2.0, 3.0), 10, 10, 8, 8, RngStream(500, d))
            for prior_strength, prior_stress in priors:
                post1 = posterior_params(prior_strength, data.strength)
                post2 = posterior_params(prior_stress, data.stress)
                reference = posterior_mean_adaptive_reference(
                    post1.shape, post1.scale_total, post2.shape, post2.scale_total)
                value = bayes_reliability(data, prior_strength, prior_stress)
                assert abs(value - reference) <= 1e-10

    def test_small_shapes_take_larger_rules(self):
        # Shapes near 1 fail the first 128/256-node comparison; the values
        # come from the doubled rules and are still accurate.
        taus = np.array([1.0, 1e-5, 3.0])
        values = _posterior_means(1.0, np.ones(3), 1.2, taus)
        for got, tau in zip(values, taus):
            assert abs(got - posterior_mean_mp_oracle(1.0, 1.0, 1.2, tau)) <= 1e-12

    def test_shapes_too_small_for_the_largest_rule_raise(self):
        with pytest.raises(NonConvergenceError, match="4096-node"):
            posterior_mean(1e-4, 1.0, 2e-4, 3.0)


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
    def test_matches_adaptive_route(self, r1, r2, log_ratio, u1, u2, seed):
        # The datasets workload's range: scale ratios 1e+-3 and r up to 60.
        alpha, beta = 10.0 ** (0.5 * log_ratio), 10.0 ** (-0.5 * log_ratio)
        data = draw_dataset(ExponentialScales(alpha, beta), 2 * r1, 2 * r2, r1, r2,
                            RngStream(seed, 0))
        z, v = data.strength.ttt, data.stress.ttt
        prior = GammaPrior(u1, u1 * alpha), GammaPrior(u2, u2 * beta)
        got = estimate_kernel(r1, [z], r2, [v], *prior)[0]
        if r1 > 1 and r2 > 1:
            assert abs(got[1] - umvue_adaptive_reference(r1, r2, z, v)) <= 1e-10
        r3 = posterior_mean_adaptive_reference(u1 + r1, u1 * alpha + z, u2 + r2, u2 * beta + v)
        assert abs(got[2] - r3) <= 1e-10
        assert abs(got[3] - posterior_mean_adaptive_reference(r1, z, r2, v)) <= 1e-10

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

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_kernel(0, [1.0], 2, [1.0])
        with pytest.raises(ValueError):
            estimate_kernel(2, [1.0, 2.0], 2, [1.0])
        with pytest.raises(ValueError):
            estimate_kernel(2, [0.0], 2, [1.0])
        with pytest.raises(ValueError):
            estimate_kernel(2, [1.0], 2, [math.inf])
