"""Monte Carlo harness: determinism, moment algebra, failure isolation."""

from dataclasses import replace

import numpy as np
import pytest

import stress_strength.estimators as estimators
import stress_strength.intervals as intervals
import stress_strength.simulation as simulation
from helpers import fresh_draw_memo, kill_worker_on
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
    """Make the cells' kernel batch raise ``fault`` whenever one of its cells
    holds one of the strength totals in ``z_values``."""
    real = simulation._estimate_cells

    def flaky(cells):
        if any(np.isin(z, z_values).any() for _, z, *_ in cells):
            raise fault
        return real(cells)

    monkeypatch.setattr(simulation, "_estimate_cells", flaky)


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
        for counts in ((5.0, 5, 3, 3), (5, 5.5, 3, 3), (5, 5, 2.5, 3), (5, 5, 3, 3.0)):
            with pytest.raises(ValueError, match="must be an integer"):
                SimCellConfig(ExponentialScales(1.0, 1.0), *counts)

    def test_rejects_bad_controls(self):
        with pytest.raises(ValueError):
            SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 3, replicates=0)
        for replicates in (50.0, True):
            with pytest.raises(ValueError, match="replicates must be an integer"):
                SimCellConfig(ExponentialScales(1.0, 1.0), 5, 5, 3, 3, replicates=replicates)
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
        real = simulation._estimate_cells

        def spy(cells):
            batches.append(real(cells))
            return batches[-1]

        monkeypatch.setattr(simulation, "_estimate_cells", spy)
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
        real = simulation._estimate_cells

        def spy(cells):
            ((_, z, _, v, *_),) = cells
            seen.append((z, v))
            return real(cells)

        monkeypatch.setattr(simulation, "_estimate_cells", spy)
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
        # The posterior means of replicates 4 and 7 round to 1; R3 is R4
        # under the default priors, and R3 is named first.
        config = small_config(replicates=10)
        poisoned = cell_totals(config)[0][[4, 7]]
        real = estimators._posterior_means

        def out_of_range(problems, *rest):
            out = real(problems, *rest)
            for (_, zeta, _, _), means in zip(problems, out):
                means[np.isin(zeta, poisoned)] = 1.0
            return out

        monkeypatch.setattr(estimators, "_posterior_means", out_of_range)
        with pytest.raises(
            SimulationError,
            match=r"replicate 4 failed: r3_bayes_conjugate must lie strictly inside \(0, 1\), got 1.0",
        ):
            run_cell(config)

    def test_an_mle_that_rounds_to_one_is_named(self):
        # At alpha/beta = 1e17 the odds against R fall below 2**-53.
        config = small_config(params=ExponentialScales(1e17, 1.0), n=5, m=5, r1=3, r2=3,
                              replicates=10)
        with pytest.raises(SimulationError, match=r"^replicate 0 failed: r1_mle must lie "
                                                  r"strictly inside \(0, 1\), got 1.0$"):
            run_cell(config)


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
        # The exact bounds of replicates 3 and 8 come out inverted.
        config = small_config(replicates=10)
        poisoned = cell_totals(config)[0][[3, 8]]
        real = intervals._mle

        def inverted(r1, z, r2, v, f=None):
            bounds = real(r1, z, r2, v, f)
            if f is not None:
                hit = np.isin(z, poisoned)
                bounds[0, hit] = bounds[1, hit] + 0.25
            return bounds

        monkeypatch.setattr(intervals, "_mle", inverted)
        with pytest.raises(SimulationError,
                           match=r"replicate 3 failed: bounds must satisfy 0 <= lower <= upper"):
            run_coverage(config, "exact")

    def test_exact_method_attains_nominal_level(self):
        config = small_config(replicates=1000, seed=23, level=0.9)
        result = run_coverage(config, "exact")
        assert abs(result.coverage - 0.9) <= 0.03

    def test_rejects_unknown_method(self, monkeypatch):
        def no_draws(*args):
            raise AssertionError("drew totals")

        monkeypatch.setattr(simulation, "draw_totals", no_draws)
        with pytest.raises(ValueError, match=r"^method must be one of .*, got 'bootstrap'$"):
            run_coverage(small_config(replicates=5), "bootstrap")


class TestDrawMemo:
    def test_results_do_not_depend_on_what_the_memo_holds(self, monkeypatch):
        # One seed throughout: the cells share sub-streams, and the second
        # and third share one of their arrays with the first.
        configs = [small_config(), small_config(r2=3), small_config(r1=3),
                   small_config(replicates=150)]

        def results(config):
            return [run_cell(config)] + [run_coverage(config, method)
                                         for method in ("exact", "asymptotic")]

        cold = []
        for config in configs:
            fresh_draw_memo(monkeypatch)
            cold.append(results(config))
        fresh_draw_memo(monkeypatch)
        for _ in range(2):
            assert [results(config) for config in configs] == cold


class TestCellBatch:
    """run_grid evaluates its distinct cells as one kernel batch; run_cell is
    the one-cell case.  Each cell's result must not depend on its company."""

    @staticmethod
    def mixed_cells():
        prior = dict(prior_strength=GammaPrior(2.0, 4.0), prior_stress=GammaPrior(2.0, 5.0))
        return [
            small_config(replicates=50, **prior),                      # rules of 141 nodes
            small_config(replicates=50, r1=1, r2=2, n=1, m=2),         # 319
            small_config(replicates=50, r1=2, r2=3, n=2, m=3, **prior),  # 179 and 141
            # Shapes (1, 60): most values need the rule of half the step.
            small_config(params=ExponentialScales(1.0, 0.03), replicates=40,
                         r1=1, r2=60, n=1, m=60),
            small_config(replicates=1, seed=9),
            small_config(replicates=3000, r1=4, r2=5, **prior),        # chunks inside a cell
            small_config(replicates=50, r1=3, r2=3, n=5, m=5, seed=8),  # 145
            small_config(replicates=1, r1=1, r2=1, n=1, m=1),
        ]

    def test_batch_equals_each_cell_alone(self, monkeypatch):
        configs = self.mixed_cells()
        alone = [run_cell(config) for config in configs]
        halved = []
        real = estimators._posterior_means

        def spy(problems, halvings=0):
            halved.extend(problem[1].size for problem in problems if halvings)
            return real(problems, halvings)

        batches = []
        real_cells = simulation._estimate_cells

        def spy_cells(cells):
            batches.append(len(cells))
            return real_cells(cells)

        monkeypatch.setattr(estimators, "_posterior_means", spy)
        monkeypatch.setattr(simulation, "_estimate_cells", spy_cells)
        assert run_grid(configs) == alone
        assert batches == [len(configs)]
        assert sum(halved) > 0

    def test_workers_do_not_change_the_batch(self):
        configs = self.mixed_cells()
        assert run_grid(configs, workers=1) == run_grid(configs, workers=3)

    def test_batches_are_bounded(self, monkeypatch):
        configs = [small_config(replicates=replicates, seed=seed)
                   for seed, replicates in enumerate((10, 20, 30, 40, 5, 60))]
        sizes = []
        real = simulation._run_cells

        def spy(batch):
            sizes.append([config.replicates for config in batch])
            return real(batch)

        monkeypatch.setattr(simulation, "_run_cells", spy)
        monkeypatch.setattr(simulation, "_BATCH_REPLICATES", 60)
        assert run_grid(configs) == [run_cell(config) for config in configs]
        assert sizes == [[10, 20, 30], [40, 5], [60]]

    def test_temporaries_stay_within_the_chunk(self, monkeypatch):
        # Every (value, node) product the kernels form, in the batch and in
        # cells of 3000 replicates, holds at most _CHUNK_ELEMENTS pairs plus
        # the padding node of each value (rules have 141 nodes or more).
        sizes = []

        class Numpy:
            def __getattr__(self, name):
                return getattr(np, name)

            @staticmethod
            def multiply(*args, **kwargs):
                out = np.multiply(*args, **kwargs)
                sizes.append(out.size)
                return out

        monkeypatch.setattr(estimators, "np", Numpy())
        run_grid(self.mixed_cells() + [small_config(replicates=3000, r1=200, r2=200, n=200,
                                                    m=200)])
        bound = estimators._CHUNK_ELEMENTS
        assert max(sizes) > bound // 2
        assert max(sizes) <= bound + bound // 141

    @pytest.mark.parametrize("replicates", [2, 3, 7, 50, 299, 300])
    def test_moments_equal_per_cell_numpy_moments(self, replicates):
        rng = np.random.default_rng(replicates)
        configs = [small_config(params=ExponentialScales(alpha, 3.0), replicates=replicates)
                   for alpha in (1.0, 2.0, 7.0)]
        estimates = rng.uniform(size=(len(configs), replicates, 4))
        for config, rows, result in zip(configs, estimates,
                                        simulation._summaries(configs, estimates)):
            true_r = true_reliability(config.params)
            squared_errors = (rows - true_r) ** 2
            assert result.mean_estimates == EstimateSet(*rows.mean(axis=0).tolist())
            assert result.mse == tuple(squared_errors.mean(axis=0).tolist())
            assert result.mc_stderr == tuple(
                np.sqrt(squared_errors.var(axis=0, ddof=1) / replicates).tolist())


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

    @pytest.mark.parametrize("workers", [0, 2.5, "2", True])
    def test_rejects_workers_that_are_not_positive_integers(self, monkeypatch, workers):
        ran = []
        monkeypatch.setattr(simulation, "run_cell", ran.append)
        with pytest.raises(ValueError, match=rf"^workers must be a positive integer, got {workers!r}$"):
            run_grid([small_config(replicates=5)], workers=workers)
        assert ran == []

    def test_dead_worker_becomes_cell_failures(self, monkeypatch):
        configs = [small_config(replicates=5, seed=seed) for seed in (1, 2, 3)]
        kill_worker_on(monkeypatch, lambda config: config.seed == 2)
        entries = run_grid(configs, workers=2)
        assert [entry.config for entry in entries] == configs
        assert isinstance(entries[1], CellFailure)
        assert entries[1].message.startswith("worker process died: ")
        for entry in entries:
            assert isinstance(entry, (SimCellResult, CellFailure))

    @staticmethod
    def grid_with_copies():
        """Cells that each differ from the first in exactly one setting other
        than n and m, every one repeated at three (n, m) pairs, interleaved."""
        base = small_config(replicates=20, n=8, m=8, r1=4, r2=5)
        cells = [
            base,
            replace(base, seed=72),
            replace(base, replicates=21),
            replace(base, level=0.9),
            replace(base, params=ExponentialScales(2.0, 4.0)),
            replace(base, prior_strength=GammaPrior(2.0, 4.0)),
            replace(base, prior_stress=GammaPrior(2.0, 5.0)),
        ]
        return cells, [replace(cell, n=n, m=m) for n, m in ((8, 8), (4, 5), (50, 60))
                       for cell in cells]

    def test_runs_each_distinct_cell_once(self, monkeypatch):
        cells, grid = self.grid_with_copies()
        calls = []
        real = simulation._run_cells

        def spy(configs):
            calls.extend(configs)
            return real(configs)

        monkeypatch.setattr(simulation, "_run_cells", spy)
        entries = run_grid(grid)
        # The first row of each cell runs, and no near-copy is merged.
        assert calls == cells
        assert [entry.config for entry in entries] == grid

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_copy_equals_its_own_cell(self, workers):
        _, grid = self.grid_with_copies()
        assert run_grid(grid, workers=workers) == [run_cell(config) for config in grid]

    def test_failed_cell_fails_in_every_copy(self, monkeypatch):
        good = small_config(replicates=5, seed=71)
        bad = small_config(replicates=5, seed=72)
        grid = [good, bad, replace(bad, n=20, m=30), replace(good, n=6), replace(bad, m=6)]
        poison_kernel(monkeypatch, cell_totals(bad)[0], ValueError("bad cell"))
        entries = run_grid(grid)
        assert [entry.config for entry in entries] == grid
        for index in (1, 2, 4):
            assert isinstance(entries[index], CellFailure)
            assert entries[index].message == "replicate 0 failed: bad cell"
        assert entries[3] == replace(entries[0], config=grid[3]) == run_cell(grid[3])

    def test_dead_worker_fails_every_copy(self, monkeypatch):
        configs = [small_config(replicates=5, seed=seed) for seed in (1, 2, 3)]
        grid = configs + [replace(configs[1], n=20), replace(configs[1], m=30)]
        kill_worker_on(monkeypatch, lambda config: config.seed == 2)
        entries = run_grid(grid, workers=2)
        assert [entry.config for entry in entries] == grid
        for index in (1, 3, 4):
            assert isinstance(entries[index], CellFailure)
            assert entries[index].message.startswith("worker process died: ")

    def test_mle_mse_decreases_with_heavier_observation(self):
        configs = [
            small_config(n=20, m=20, r1=r, r2=r, replicates=400, seed=99)
            for r in (5, 10, 19)
        ]
        results = run_grid(configs)
        mses = [entry.mse[0] for entry in results]
        assert mses[0] > mses[1] > mses[2]
