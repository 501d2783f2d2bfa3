"""Sampling: stream determinism, censoring arithmetic, and distribution checks.

The order-statistic generator (``draw_dataset`` and its parts) lives in
the test helpers as the oracle for ``draw_totals``; it is checked here too.
"""

import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import apply_type2_censoring, draw_dataset, draw_exponential_sample
from stress_strength import CensoredSample, ExponentialScales, RngStream, draw_totals


class TestRngStream:
    def test_same_stream_reproduces_draws(self):
        rng = RngStream(seed=12, stream_id=5)
        first = draw_exponential_sample(2.0, 1000, rng)
        second = draw_exponential_sample(2.0, 1000, rng)
        np.testing.assert_array_equal(first, second)

    def test_distinct_stream_ids_differ(self):
        a = draw_exponential_sample(2.0, 100, RngStream(12, 0))
        b = draw_exponential_sample(2.0, 100, RngStream(12, 1))
        assert not np.array_equal(a, b)

    def test_substream_is_deterministic_and_disjoint(self):
        parent = RngStream(seed=3, stream_id=7)
        assert parent.substream(0) == parent.substream(0)
        assert parent.substream(0) != parent.substream(1)
        assert parent.substream(0).seed == parent.seed
        assert parent.substream(0).stream_id != parent.stream_id

    def test_disjoint_streams_are_uncorrelated(self):
        a = draw_exponential_sample(1.0, 10**5, RngStream(99, 0))
        b = draw_exponential_sample(1.0, 10**5, RngStream(99, 1))
        correlation = float(np.corrcoef(a, b)[0, 1])
        assert abs(correlation) < 0.01

    @pytest.mark.parametrize("kwargs", [
        {"seed": -1},
        {"seed": 2**64},
        {"seed": 0, "stream_id": -3},
        {"seed": 1.5},
    ])
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(ValueError):
            RngStream(**{"seed": 0, **kwargs})


class TestDrawExponentialSample:
    def test_mean_converges_to_scale(self):
        draws = draw_exponential_sample(2.0, 10**6, RngStream(42, 0))
        assert abs(float(np.mean(draws)) - 2.0) <= 0.01

    def test_all_draws_positive(self):
        draws = draw_exponential_sample(0.5, 10**5, RngStream(1, 2))
        assert np.all(draws > 0.0)

    def test_scale_family_exact_for_power_of_two(self):
        rng = RngStream(7, 3)
        doubled = draw_exponential_sample(4.0, 1000, rng)
        base = draw_exponential_sample(2.0, 1000, rng)
        np.testing.assert_array_equal(doubled, 2.0 * base)

    def test_scale_family_general_factor(self):
        rng = RngStream(7, 3)
        scaled = draw_exponential_sample(2.0 * 1.7, 1000, rng)
        base = draw_exponential_sample(2.0, 1000, rng)
        np.testing.assert_allclose(scaled, 1.7 * base, rtol=4e-16)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            draw_exponential_sample(0.0, 10, RngStream(0))
        with pytest.raises(ValueError):
            draw_exponential_sample(-1.0, 10, RngStream(0))
        with pytest.raises(ValueError):
            draw_exponential_sample(1.0, 0, RngStream(0))


class TestApplyType2Censoring:
    def test_worked_example(self):
        sample = apply_type2_censoring([3.0, 1.0, 2.0], observed=2)
        assert sample.ordered_times == (1.0, 2.0)
        assert sample.total_units == 3
        assert sample.observed == 2
        # 1 + 2 plus one censored unit surviving to time 2.
        assert sample.ttt == pytest.approx(5.0, abs=1e-15)

    def test_complete_sample_ttt_is_plain_sum(self):
        times = [0.4, 1.9, 0.8, 2.2]
        sample = apply_type2_censoring(times, observed=4)
        assert sample.ttt == pytest.approx(sum(times), rel=1e-15)

    def test_single_observation_ttt(self):
        sample = apply_type2_censoring([5.0, 2.0, 9.0, 4.0], observed=1)
        assert sample.ordered_times == (2.0,)
        assert sample.ttt == pytest.approx(4 * 2.0, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        times=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=20),
        data=st.data(),
    )
    def test_order_of_input_is_irrelevant(self, times, data):
        observed = data.draw(st.integers(1, len(times)))
        shuffled = data.draw(st.permutations(times))
        assert apply_type2_censoring(times, observed) == apply_type2_censoring(shuffled, observed)

    def test_rejects_bad_observed_counts(self):
        with pytest.raises(ValueError):
            apply_type2_censoring([1.0, 2.0], observed=0)
        with pytest.raises(ValueError):
            apply_type2_censoring([1.0, 2.0], observed=3)

    def test_rejects_nonpositive_times(self):
        with pytest.raises(ValueError):
            apply_type2_censoring([1.0, 0.0], observed=2)
        with pytest.raises(ValueError):
            apply_type2_censoring([1.0, -2.0], observed=1)


class TestCensoredSample:
    def test_from_times_sorts_and_fills_ttt(self):
        sample = CensoredSample.from_times([2.0, 0.5], total_units=5)
        assert sample.ordered_times == (0.5, 2.0)
        assert sample.ttt == pytest.approx(0.5 + 2.0 + 3 * 2.0, abs=1e-15)

    def test_ttt_is_recomputable_from_fields(self):
        sample = CensoredSample.from_times([0.3, 1.1, 2.4], total_units=7)
        recomputed = math.fsum(sample.ordered_times) + (
            sample.total_units - sample.observed
        ) * sample.ordered_times[-1]
        assert sample.ttt == pytest.approx(recomputed, rel=1e-12)

    def test_observed_and_ttt_are_derived(self):
        sample = CensoredSample(ordered_times=(1.0, 2.0), total_units=5)
        assert (sample.observed, sample.ttt) == (2, 9.0)
        assert sample == CensoredSample.from_times([2.0, 1.0], total_units=5)
        with pytest.raises(TypeError):
            CensoredSample(ordered_times=(1.0, 2.0), total_units=2, observed=2, ttt=10.0)

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError):
            CensoredSample(ordered_times=(2.0, 1.0), total_units=2)

    # The last case would count half a censored unit in ttt.
    @pytest.mark.parametrize("times,total_units",
                             [((), 3), ((1.0, 2.0), 1), ((0.0, 1.0), 2), ((1.0, 2.0), 2.5)])
    def test_rejects_empty_overfull_or_nonpositive(self, times, total_units):
        with pytest.raises(ValueError):
            CensoredSample(ordered_times=times, total_units=total_units)


class TestExponentialScales:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (1.0, -2.0), (math.nan, 1.0), (1.0, math.inf)])
    def test_rejects_nonpositive_scales(self, alpha, beta):
        with pytest.raises(ValueError):
            ExponentialScales(alpha, beta)


class TestDrawDataset:
    def test_deterministic_given_stream(self):
        params = ExponentialScales(2.0, 3.0)
        a = draw_dataset(params, 10, 8, 6, 5, RngStream(11, 4))
        b = draw_dataset(params, 10, 8, 6, 5, RngStream(11, 4))
        assert a == b

    def test_strength_and_stress_use_disjoint_randomness(self):
        params = ExponentialScales(1.0, 1.0)
        data = draw_dataset(params, 6, 6, 6, 6, RngStream(5, 0))
        assert data.strength.ordered_times != data.stress.ordered_times

    def test_minimal_sizes(self):
        data = draw_dataset(ExponentialScales(1.0, 1.0), 1, 1, 1, 1, RngStream(0, 0))
        assert data.strength.observed == 1
        assert data.stress.observed == 1

    def test_rejects_censoring_beyond_sample_size(self):
        params = ExponentialScales(1.0, 1.0)
        with pytest.raises(ValueError):
            draw_dataset(params, 5, 5, 6, 3, RngStream(0))
        with pytest.raises(ValueError):
            draw_dataset(params, 5, 5, 3, 0, RngStream(0))

    def test_scaled_ttt_is_chi_square(self):
        # Twice the total time on test over the true scale should follow a
        # chi-square law with twice the observed count as df.
        params = ExponentialScales(2.0, 1.0)
        n, r1 = 8, 5
        values = np.empty(10**5)
        for i in range(values.size):
            data = draw_dataset(params, n, 1, r1, 1, RngStream(321, i))
            values[i] = 2.0 * data.strength.ttt / params.alpha
        result = scipy.stats.kstest(values, lambda t: scipy.stats.chi2.cdf(t, 2 * r1))
        assert result.pvalue > 0.01


class TestDrawTotals:
    @pytest.mark.parametrize("n,r", [(10, 8), (50, 4), (5, 5), (1000, 1)])
    def test_matches_totals_of_order_statistics(self, n, r):
        # Epstein & Sobel: the total on test of r failures out of n units is
        # scale * Gamma(r), whatever n is.
        params = ExponentialScales(2.0, 0.5)
        draws = 2000
        z_ordered = np.empty(draws)
        v_ordered = np.empty(draws)
        for i in range(draws):
            data = draw_dataset(params, n, n, r, r, RngStream(610 + n, i))
            z_ordered[i] = data.strength.ttt
            v_ordered[i] = data.stress.ttt
        z, v = draw_totals(params, r, r, draws, RngStream(620 + n))
        assert scipy.stats.ks_2samp(z_ordered, z).pvalue > 1e-3
        assert scipy.stats.ks_2samp(v_ordered, v).pvalue > 1e-3

    @pytest.mark.parametrize("r1,r2", [(1, 7), (30, 2)])
    def test_scaled_totals_are_gamma(self, r1, r2):
        params = ExponentialScales(3.0, 0.25)
        z, v = draw_totals(params, r1, r2, 10**5, RngStream(630 + r1))
        assert scipy.stats.kstest(z / params.alpha, scipy.stats.gamma(r1).cdf).pvalue > 1e-3
        assert scipy.stats.kstest(v / params.beta, scipy.stats.gamma(r2).cdf).pvalue > 1e-3

    def test_strength_and_stress_use_disjoint_substreams(self):
        z, v = draw_totals(ExponentialScales(1.0, 1.0), 4, 4, 50, RngStream(3))
        assert not np.array_equal(z, v)
        z_again, _ = draw_totals(ExponentialScales(1.0, 1.0), 4, 9, 50, RngStream(3))
        np.testing.assert_array_equal(z, z_again)

    @pytest.mark.parametrize("r1,r2,count", [(0, 3, 5), (3, -1, 5), (3, 3, 0), (2.0, 3, 5)])
    def test_rejects_bad_counts(self, r1, r2, count):
        with pytest.raises(ValueError):
            draw_totals(ExponentialScales(1.0, 1.0), r1, r2, count, RngStream(0))
