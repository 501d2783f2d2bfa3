"""Monte Carlo comparison of the estimators and interval procedures.

Each simulation cell fixes the true scales, the sample sizes, and the
censoring counts, then replays ``replicates`` independent datasets.
Replicate ``i`` of a cell seeded with ``seed`` always draws from the stream
``(seed, i)``, so cells are reproducible in isolation, in any order, and
across worker processes.  A cell draws all its datasets first and then
evaluates the estimators once, as array kernels over the cell's totals on
test.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .estimators import (
    NONINFORMATIVE,
    EstimateSet,
    GammaPrior,
    estimate_kernel,
    true_reliability,
)
from .intervals import METHODS, asymptotic_ci, exact_ci
from .sampling import ExponentialScales, RngStream, draw_dataset

__all__ = [
    "SimulationError",
    "SimCellConfig",
    "SimCellResult",
    "CoverageResult",
    "CellFailure",
    "run_cell",
    "run_coverage",
    "run_grid",
]

FourFloats = tuple[float, float, float, float]


class SimulationError(RuntimeError):
    """A simulation cell could not be completed."""


@dataclass(frozen=True)
class SimCellConfig:
    """One cell of the comparison grid."""

    params: ExponentialScales
    n: int
    m: int
    r1: int
    r2: int
    replicates: int = 2999
    seed: int = 0
    prior_strength: GammaPrior = NONINFORMATIVE
    prior_stress: GammaPrior = NONINFORMATIVE
    level: float = 0.95

    def __post_init__(self) -> None:
        if not 1 <= self.r1 <= self.n:
            raise ValueError(f"r1 must lie in [1, n={self.n}], got {self.r1}")
        if not 1 <= self.r2 <= self.m:
            raise ValueError(f"r2 must lie in [1, m={self.m}], got {self.r2}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        RngStream(self.seed)  # raises unless seed is an unsigned 64-bit integer
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")


@dataclass(frozen=True)
class SimCellResult:
    config: SimCellConfig
    true_r: float
    mean_estimates: EstimateSet
    mse: FourFloats
    bias: FourFloats
    mc_stderr: FourFloats


@dataclass(frozen=True)
class CoverageResult:
    config: SimCellConfig
    method: str
    coverage: float
    mean_width: float


@dataclass(frozen=True)
class CellFailure:
    config: SimCellConfig
    message: str


def _cell_totals(config: SimCellConfig) -> tuple[np.ndarray, np.ndarray]:
    z = np.empty(config.replicates)
    v = np.empty(config.replicates)
    for i in range(config.replicates):
        try:
            data = draw_dataset(
                config.params, config.n, config.m, config.r1, config.r2,
                RngStream(config.seed, i),
            )
        except Exception as exc:
            raise SimulationError(f"replicate {i} failed: {exc}") from exc
        z[i] = data.strength.ttt
        v[i] = data.stress.ttt
    return z, v


def _cell_estimates(config: SimCellConfig, z: np.ndarray, v: np.ndarray) -> np.ndarray:
    def estimate(part: slice) -> np.ndarray:
        return estimate_kernel(config.r1, z[part], config.r2, v[part],
                               config.prior_strength, config.prior_stress)

    try:
        estimates = estimate(slice(None))
    except Exception as batch_error:
        # Name the first replicate that fails on its own.
        for i in range(config.replicates):
            try:
                estimate(slice(i, i + 1))
            except Exception as exc:
                raise SimulationError(f"replicate {i} failed: {exc}") from exc
        raise SimulationError(f"cell failed: {batch_error}") from batch_error
    # EstimateSet's range checks, applied to every replicate at once.
    inside = (estimates > 0.0) & (estimates < 1.0)
    inside[:, 1] = (estimates[:, 1] >= 0.0) & (estimates[:, 1] <= 1.0)
    bad = np.flatnonzero(~inside.all(axis=1))
    if bad.size:
        i = int(bad[0])
        try:
            EstimateSet(*estimates[i].tolist())
        except ValueError as exc:
            raise SimulationError(f"replicate {i} failed: {exc}") from exc
    return estimates


def run_cell(config: SimCellConfig) -> SimCellResult:
    """Estimate MSE, bias, and their Monte Carlo noise for one cell.

    ``mc_stderr`` is the standard error of each MSE estimate: the sample
    standard deviation of the squared errors divided by sqrt(replicates).
    """
    true_r = true_reliability(config.params)
    estimates = _cell_estimates(config, *_cell_totals(config))
    squared_errors = (estimates - true_r) ** 2
    means = estimates.mean(axis=0).tolist()
    if config.replicates > 1:
        stderr = np.sqrt(squared_errors.var(axis=0, ddof=1) / config.replicates).tolist()
    else:
        stderr = [0.0] * 4
    return SimCellResult(
        config=config,
        true_r=true_r,
        mean_estimates=EstimateSet(*means),
        mse=tuple(squared_errors.mean(axis=0).tolist()),
        bias=tuple(mean - true_r for mean in means),
        mc_stderr=tuple(stderr),
    )


def run_coverage(config: SimCellConfig, method: str) -> CoverageResult:
    """Empirical coverage and mean width of one interval method."""
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    interval_of = asymptotic_ci if method == "asymptotic" else exact_ci
    true_r = true_reliability(config.params)
    hits = 0
    width_total = 0.0
    for i in range(config.replicates):
        data = draw_dataset(
            config.params, config.n, config.m, config.r1, config.r2,
            RngStream(config.seed, i),
        )
        try:
            interval = interval_of(data, config.level)
        except Exception as exc:
            raise SimulationError(f"replicate {i} failed: {exc}") from exc
        if interval.lower <= true_r <= interval.upper:
            hits += 1
        width_total += interval.upper - interval.lower
    return CoverageResult(
        config=config,
        method=method,
        coverage=hits / config.replicates,
        mean_width=width_total / config.replicates,
    )


def _grid_entry(config: SimCellConfig) -> SimCellResult | CellFailure:
    try:
        return run_cell(config)
    except Exception as exc:
        return CellFailure(config=config, message=str(exc))


def run_grid(
    configs: list[SimCellConfig], workers: int = 1
) -> list[SimCellResult | CellFailure]:
    """Run every cell, keeping input order in the output.

    Cells are independent, so ``workers > 1`` fans them out over processes;
    per-cell seeding makes the results identical either way.  A failing
    cell yields a :class:`CellFailure` entry instead of aborting the rest.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    configs = list(configs)
    if workers == 1 or len(configs) <= 1:
        return [_grid_entry(config) for config in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_grid_entry, configs))
