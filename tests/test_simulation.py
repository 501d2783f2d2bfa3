"""Monte Carlo harness: determinism, moment algebra, failure isolation."""

import numpy as np
import pytest

import stress_strength.simulation as simulation
from helpers import kill_worker_on
from stress_strength import (
    CellFailure,
    EstimateSet,
    ExponentialScales,
    GammaPrior,
    RngStream,
    SimCellConfig,
    SimCellResult,
    SimulationError,
    draw_totals,
    estimate_kernel,
    interval_kernel,
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


def cell_totals(config):
    """The cell's totals on test (Z, V), drawn as the simulation draws them."""
    return draw_totals(config.params, config.r1, config.r2, config.replicates,
                       RngStream(config.seed))


def replicate_rows(config):
    """Each replicate's four estimates, one pair of totals at a time."""
    z, v = cell_totals(config)
    return np.concatenate([
        estimate_kernel(config.r1, z[i:i + 1], config.r2, v[i:i + 1],
                        config.prior_strength, config.prior_stress)
        for i in range(config.replicates)
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
        expected = EstimateSet(*replicate_rows(config)[0].tolist())
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
        poison_kernel(monkeypatch, [cell_totals(config)[0][2]], ValueError("boom"))
        with pytest.raises(SimulationError, match=r"replicate 2 failed: boom"):
            run_cell(config)

    def test_totals_of_fewer_replicates_are_a_prefix(self, monkeypatch):
        seen = []
        real = simulation.estimate_kernel

        def spy(r1, z, r2, v, *priors):
            seen.append((z, v))
            return real(r1, z, r2, v, *priors)

        monkeypatch.setattr(simulation, "estimate_kernel", spy)
        run_cell(small_config(r1=1, replicates=100))
        run_cell(small_config(r1=1, replicates=200))
        (z_short, v_short), (z_long, v_long) = seen
        assert np.array_equal(z_short, z_long[:100])
        assert np.array_equal(v_short, v_long[:100])

    def test_sample_sizes_do_not_change_the_cell(self):
        # The paper's rows (5, 5, 4, 4) and (50, 50, 4, 4) are one experiment.
        small = run_cell(small_config(n=5, m=5, r1=4, r2=4))
        large = run_cell(small_config(n=50, m=50, r1=4, r2=4))
        assert (small.true_r, small.mean_estimates, small.mse, small.bias, small.mc_stderr) == (
            large.true_r, large.mean_estimates, large.mse, large.bias, large.mc_stderr)

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
        z, v = cell_totals(config)
        hits = 0
        widths = 0.0
        for i in range(config.replicates):
            (lower,), (upper,) = interval_kernel("exact", config.r1, z[i:i + 1],
                                                 config.r2, v[i:i + 1], config.level)
            hits += lower <= target <= upper
            widths += upper - lower
        assert result.coverage == hits / config.replicates
        assert result.mean_width == pytest.approx(widths / config.replicates, rel=1e-12)
        assert result.method == "exact"

    @pytest.mark.parametrize("method", ["exact", "asymptotic"])
    def test_failing_replicate_is_named(self, monkeypatch, method):
        config = small_config(replicates=10)
        poisoned = cell_totals(config)[0][6]
        real = simulation.interval_kernel

        def flaky(method, r1, z, r2, v, level):
            if np.isin(z, poisoned).any():
                raise ValueError("boom")
            return real(method, r1, z, r2, v, level)

        monkeypatch.setattr(simulation, "interval_kernel", flaky)
        with pytest.raises(SimulationError, match=r"replicate 6 failed: boom"):
            run_coverage(config, method)

    def test_first_interval_out_of_range_is_named(self, monkeypatch):
        real = simulation.interval_kernel

        def inverted(*args):
            lower, upper = real(*args)
            lower[[3, 8]] = upper[[3, 8]] + 0.25
            return lower, upper

        monkeypatch.setattr(simulation, "interval_kernel", inverted)
        with pytest.raises(SimulationError,
                           match=r"replicate 3 failed: bounds must satisfy 0 <= lower <= upper"):
            run_coverage(small_config(replicates=10), "asymptotic")

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
        # Cells differing only in n and m draw the same totals, so the bad
        # cell gets a seed of its own.
        configs = [small_config(replicates=5, n=size, m=size, seed=seed)
                   for size, seed in ((8, 71), (7, 72), (6, 71))]
        poison_kernel(monkeypatch, cell_totals(configs[1])[0], ValueError("bad cell"))
        results = run_grid(configs, workers=1)
        assert not isinstance(results[0], CellFailure)
        assert isinstance(results[1], CellFailure)
        assert "replicate 0 failed: bad cell" in results[1].message
        assert not isinstance(results[2], CellFailure)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(ValueError):
            run_grid([small_config(replicates=5)], workers=0)

    def test_dead_worker_becomes_cell_failures(self, monkeypatch):
        configs = [small_config(replicates=5, seed=seed) for seed in (1, 2, 3)]
        kill_worker_on(monkeypatch, lambda config: config.seed == 2)
        entries = run_grid(configs, workers=2)
        assert [entry.config for entry in entries] == configs
        assert isinstance(entries[1], CellFailure)
        assert entries[1].message.startswith("worker process died: ")
        for entry in entries:
            assert isinstance(entry, (SimCellResult, CellFailure))

    def test_mle_mse_decreases_with_heavier_observation(self):
        configs = [
            small_config(n=20, m=20, r1=r, r2=r, replicates=400, seed=99)
            for r in (5, 10, 19)
        ]
        results = run_grid(configs)
        mses = [entry.mse[0] for entry in results]
        assert mses[0] > mses[1] > mses[2]
