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

import stress_strength.sampling as sampling
from helpers import apply_type2_censoring, draw_dataset, draw_exponential_sample, fresh_draw_memo
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
        {"seed": True},
        {"seed": 0, "stream_id": True},
    ])
    def test_rejects_out_of_range_fields(self, kwargs):
        with pytest.raises(ValueError):
            RngStream(**{"seed": 0, **kwargs})
        with pytest.raises(ValueError):  # the same value as a sub-stream index
            RngStream(0).substream(kwargs.get("stream_id", kwargs["seed"]))


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
                             [((), 3), ((1.0, 2.0), 1), ((0.0, 1.0), 2), ((1.0, 2.0), 2.5),
                              ((1.0,), True), ((1.0,), np.True_)])
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

    @pytest.mark.parametrize("r1,r2,count", [(0, 3, 5), (3, -1, 5), (3, 3, 0), (2.0, 3, 5),
                                                (True, 2, 5), (3, True, 5), (3, 3, True)])
    def test_rejects_bad_counts(self, r1, r2, count):
        with pytest.raises(ValueError):
            draw_totals(ExponentialScales(1.0, 1.0), r1, r2, count, RngStream(0))


class TestDrawMemo:
    """draw_totals keeps the standard gamma arrays it draws, within a budget."""

    def test_hit_and_miss_equal_a_fresh_draw(self, monkeypatch):
        calls = fresh_draw_memo(monkeypatch)
        params, rng = ExponentialScales(1.0, 2.5), RngStream(41)
        miss = draw_totals(params, 3, 8, 500, rng)
        hit = draw_totals(params, 3, 8, 500, rng)
        assert len(calls) == 2  # the second call drew nothing
        fresh_z = rng.substream(0).generator().standard_gamma(3, 500)
        fresh_v = 2.5 * rng.substream(1).generator().standard_gamma(8, 500)
        for z, v in (miss, hit):
            assert z.tobytes() == fresh_z.tobytes()
            assert v.tobytes() == fresh_v.tobytes()

    # r1 == r2 reads two arrays of one shape and count: the sub-stream keeps
    # them apart.
    @pytest.mark.parametrize("r1,r2,count,seed", [(1, 1, 1, 0), (5, 5, 300, 7),
                                                  (2, 40, 2999, 2**64 - 1), (1000, 3, 64, 12345)])
    def test_kept_draws_equal_fresh_draws(self, monkeypatch, r1, r2, count, seed):
        fresh_draw_memo(monkeypatch)
        params, rng = ExponentialScales(0.5, 3.0), RngStream(seed)
        draws = [draw_totals(params, r1, r2, count, rng) for _ in range(2)]
        fresh_z = 0.5 * rng.substream(0).generator().standard_gamma(r1, count)
        fresh_v = 3.0 * rng.substream(1).generator().standard_gamma(r2, count)
        for z, v in draws:
            assert z.tobytes() == fresh_z.tobytes()
            assert v.tobytes() == fresh_v.tobytes()

    # Each second call differs from the first in one argument.  Only new
    # scales, or the same count as a numpy integer, leave both arrays shared.
    @pytest.mark.parametrize("change,new_draws", [
        ({"params": ExponentialScales(4.0, 0.5)}, 0),
        ({"count": np.int64(500)}, 0),
        ({"r1": 4}, 1),
        ({"r2": 9}, 1),
        ({"count": 501}, 2),
        ({"rng": RngStream(42)}, 2),
        ({"rng": RngStream(41, 1)}, 2),
    ])
    def test_each_key_field_selects_its_own_array(self, monkeypatch, change, new_draws):
        calls = fresh_draw_memo(monkeypatch)
        first = {"params": ExponentialScales(1.0, 2.5), "r1": 3, "r2": 8, "count": 500,
                 "rng": RngStream(41)}
        draw_totals(**first)
        second = {**first, **change}
        z, v = draw_totals(**second)
        assert len(calls) == 2 + new_draws
        params, rng, count = second["params"], second["rng"], second["count"]
        fresh_z = params.alpha * rng.substream(0).generator().standard_gamma(second["r1"], count)
        fresh_v = params.beta * rng.substream(1).generator().standard_gamma(second["r2"], count)
        assert z.tobytes() == fresh_z.tobytes()
        assert v.tobytes() == fresh_v.tobytes()

    def test_kept_arrays_are_read_only(self, monkeypatch):
        fresh_draw_memo(monkeypatch)
        params, rng = ExponentialScales(1.0, 1.0), RngStream(42)
        z, v = draw_totals(params, 4, 4, 100, rng)
        expected = z.copy()
        z[:] = -1.0
        v[:] = -1.0
        again, _ = draw_totals(params, 4, 4, 100, rng)
        np.testing.assert_array_equal(again, expected)
        kept = list(sampling._DRAWS.arrays.values())
        assert len(kept) == 2
        for draws in kept:
            with pytest.raises(ValueError, match="read-only"):
                draws[0] = 0.0

    def test_held_values_stay_within_budget(self, monkeypatch):
        fresh_draw_memo(monkeypatch)
        memo = sampling._DRAWS
        assert memo.budget == 2**18  # 2 MiB of float64
        params = ExponentialScales(1.0, 1.0)
        count = memo.budget // 5 + 1
        for seed in range(8):
            draw_totals(params, 2, 3, count, RngStream(seed))
            sizes = [draws.size for draws in memo.arrays.values()]
            assert memo.held == sum(sizes) <= memo.budget
        # Four arrays fit.  A hit makes seed 6's the most recently used, so
        # seed 8's arrays evict seed 7's.
        draw_totals(params, 2, 3, count, RngStream(6))
        draw_totals(params, 2, 3, count, RngStream(8))
        assert [(stream.seed, shape) for stream, shape, _ in memo.arrays] == [(6, 2), (6, 3),
                                                                             (8, 2), (8, 3)]
        # A draw larger than the budget is returned but not kept.
        kept = list(memo.arrays)
        rng, count = RngStream(99), memo.budget + 1
        z, _ = draw_totals(params, 2, 3, count, rng)
        assert z.tobytes() == rng.substream(0).generator().standard_gamma(2, count).tobytes()
        assert list(memo.arrays) == kept
