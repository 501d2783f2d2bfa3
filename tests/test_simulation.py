"""Monte Carlo harness: determinism, moment algebra, failure isolation."""

import numpy as np
import pytest

import stress_strength.simulation as simulation
from stress_strength import (
    CellFailure,
    ExponentialScales,
    GammaPrior,
    RngStream,
    SimCellConfig,
    SimulationError,
    draw_dataset,
    estimate_all,
    exact_ci,
    run_cell,
    run_coverage,
    run_grid,
    true_reliability,
)


def small_config(**overrides):
    defaults = dict(
        params=ExponentialScales(2.0, 3.0),
        n=8, m=8, r1=6, r2=6, replicates=200, seed=71,
    )
    defaults.update(overrides)
    return SimCellConfig(**defaults)


def replicate_data(config, index):
    return draw_dataset(config.params, config.n, config.m, config.r1, config.r2,
                        RngStream(config.seed, index))


def replicate_rows(config):
    """Each replicate's four estimates, one dataset at a time."""
    return np.array([
        [est.r1_mle, est.r2_umvue, est.r3_bayes_conjugate, est.r4_bayes_noninf]
        for est in (
            estimate_all(replicate_data(config, i), config.prior_strength, config.prior_stress)
            for i in range(config.replicates)
        )
    ])


def poison_kernel(monkeypatch, z_values, fault):
    """Make the cell kernel raise ``fault`` whenever its batch holds one of
    the strength totals in ``z_values``."""
    real = simulation.estimate_kernel

    def flaky(r1, z, r2, v, *priors):
        if np.isin(z, z_values).any():
            raise fault
        return real(r1, z, r2, v, *priors)

    monkeypatch.setattr(simulation, "estimate_kernel", flaky)


class TestSimCellConfig:
    def test_defaults(self):
        config = SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 3)
        assert config.replicates == 2999
        assert config.seed == 0
        assert config.level == 0.95

    def test_rejects_censoring_counts_beyond_sample_sizes(self):
        with pytest.raises(ValueError):
            SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 6, 3)
        with pytest.raises(ValueError):
            SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 0)

    def test_rejects_bad_controls(self):
        with pytest.raises(ValueError):
            SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 3, replicates=0)
        with pytest.raises(ValueError):
            SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 3, seed=-1)
        with pytest.raises(ValueError):
            SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 3, level=1.0)

    def test_rejects_seeds_beyond_64_bits(self):
        with pytest.raises(ValueError, match="unsigned 64-bit"):
            SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 3, seed=2**64)
        assert SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 3, seed=2**64 - 1).seed == 2**64 - 1


class TestRunCell:
    def test_single_replicate_reproduces_one_estimate(self):
        config = small_config(replicates=1)
        result = run_cell(config)
        data = draw_dataset(config.params, config.n, config.m,
                            config.r1, config.r2, RngStream(config.seed, 0))
        expected = estimate_all(data)
        assert result.mean_estimates == expected
        assert result.true_r == true_reliability(config.params)
        for k, value in enumerate((expected.r1_mle, expected.r2_umvue,
                                   expected.r3_bayes_conjugate, expected.r4_bayes_noninf)):
            assert result.bias[k] == pytest.approx(value - result.true_r, abs=1e-15)
            assert result.mse[k] == pytest.approx((value - result.true_r) ** 2, abs=1e-15)
            assert result.mc_stderr[k] == 0.0

    def test_repeated_runs_are_identical(self):
        config = small_config(replicates=40)
        assert run_cell(config) == run_cell(config)

    def test_streaming_moments_match_batch_recomputation(self):
        config = small_config(replicates=150)
        result = run_cell(config)
        rows = replicate_rows(config)
        errors = (rows - result.true_r) ** 2
        for k in range(4):
            assert result.mse[k] == pytest.approx(errors[:, k].mean(), rel=1e-12)
            assert result.bias[k] == pytest.approx(
                rows[:, k].mean() - result.true_r, abs=1e-12
            )
            assert result.mc_stderr[k] == pytest.approx(
                errors[:, k].std(ddof=1) / np.sqrt(config.replicates), rel=1e-12
            )

    def test_mse_equals_bias_squared_plus_variance(self):
        config = small_config(replicates=120, seed=5)
        result = run_cell(config)
        rows = replicate_rows(config)
        for k in range(4):
            identity = result.bias[k] ** 2 + rows[:, k].var(ddof=0)
            assert result.mse[k] == pytest.approx(identity, rel=1e-9)

    def test_mc_stderr_positive_for_many_replicates(self):
        result = run_cell(small_config(replicates=30))
        assert all(se > 0.0 for se in result.mc_stderr)

    def test_batched_estimates_equal_per_replicate_estimates(self, monkeypatch):
        config = small_config(replicates=90, prior_strength=GammaPrior(2.0, 4.0),
                              prior_stress=GammaPrior(2.0, 5.0))
        batches = []
        real = simulation.estimate_kernel

        def spy(*args):
            batches.append(real(*args))
            return batches[-1]

        monkeypatch.setattr(simulation, "estimate_kernel", spy)
        run_cell(config)
        assert len(batches) == 1
        assert np.array_equal(batches[0], replicate_rows(config))

    def test_failing_replicate_is_named(self, monkeypatch):
        config = small_config(replicates=10)
        poison_kernel(monkeypatch, [replicate_data(config, 2).strength.ttt], ValueError("boom"))
        with pytest.raises(SimulationError, match=r"replicate 2 failed: boom"):
            run_cell(config)

    def test_first_estimate_out_of_range_is_named(self, monkeypatch):
        real = simulation.estimate_kernel

        def out_of_range(*args):
            rows = real(*args)
            rows[[4, 7], 2] = 1.0
            return rows

        monkeypatch.setattr(simulation, "estimate_kernel", out_of_range)
        with pytest.raises(
            SimulationError,
            match=r"replicate 4 failed: r3_bayes_conjugate must lie strictly inside \(0, 1\), got 1.0",
        ):
            run_cell(small_config(replicates=10))


class TestRunCoverage:
    def test_matches_direct_recomputation(self):
        config = small_config(replicates=100, seed=17)
        result = run_coverage(config, "exact")
        target = true_reliability(config.params)
        hits = 0
        widths = 0.0
        for i in range(config.replicates):
            data = draw_dataset(config.params, config.n, config.m,
                                config.r1, config.r2, RngStream(config.seed, i))
            interval = exact_ci(data, config.level)
            hits += interval.lower <= target <= interval.upper
            widths += interval.upper - interval.lower
        assert result.coverage == hits / config.replicates
        assert result.mean_width == pytest.approx(widths / config.replicates, rel=1e-12)
        assert result.method == "exact"

    def test_exact_method_attains_nominal_level(self):
        config = small_config(replicates=1000, seed=23, level=0.9)
        result = run_coverage(config, "exact")
        assert abs(result.coverage - 0.9) <= 0.03

    def test_rejects_unknown_method(self):
        with pytest.raises(ValueError):
            run_coverage(small_config(replicates=5), "bootstrap")


class TestRunGrid:
    def test_singleton_grid_equals_run_cell(self):
        config = small_config(replicates=25)
        assert run_grid([config]) == [run_cell(config)]

    def test_preserves_input_order(self):
        configs = [small_config(replicates=10, n=n, m=n) for n in (9, 7, 8)]
        results = run_grid(configs)
        assert [entry.config for entry in results] == configs

    def test_workers_do_not_change_results(self):
        configs = [small_config(replicates=30, seed=s) for s in (1, 2, 3)]
        assert run_grid(configs, workers=1) == run_grid(configs, workers=2)

    def test_failed_cell_does_not_abort_the_grid(self, monkeypatch):
        configs = [small_config(replicates=5, n=size, m=size) for size in (8, 7, 6)]
        bad = configs[1]
        poison_kernel(monkeypatch,
                      [replicate_data(bad, i).strength.ttt for i in range(bad.replicates)],
                      ValueError("bad cell"))
        results = run_grid(configs, workers=1)
        assert not isinstance(results[0], CellFailure)
        assert isinstance(results[1], CellFailure)
        assert "replicate 0 failed: bad cell" in results[1].message
        assert not isinstance(results[2], CellFailure)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_grid([small_config(replicates=5)], workers=0)

    def test_mle_mse_decreases_with_heavier_observation(self):
        configs = [
            small_config(n=20, m=20, r1=r, r2=r, replicates=400, seed=99)
            for r in (5, 10, 19)
        ]
        results = run_grid(configs)
        mses = [entry.mse[0] for entry in results]
        assert mses[0] > mses[1] > mses[2]
