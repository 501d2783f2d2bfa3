"""Monte Carlo comparison of the estimators and interval procedures.

Each simulation cell fixes the true scales, the sample sizes, and the
censoring counts, then replays ``replicates`` independent datasets.  Every
estimator and interval is a function of the totals on test (Z, V) alone,
so a cell draws only those, with :func:`~stress_strength.sampling.draw_totals`
on the cell stream ``RngStream(seed)``: strength totals from sub-stream 0,
stress totals from sub-stream 1, replicate ``i`` being element ``i`` of
each.  Cells are therefore reproducible in isolation, in any order, and
across worker processes.  The total on test of r observed failures is
scale * Gamma(r) whatever the number of units, so n and m do not change
what a cell simulates: cells that differ only in n and m give identical
results.  The estimators and intervals are then evaluated once per cell,
as array kernels over the cell's totals.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Callable, TypeVar

import numpy as np

from .estimators import (
    NONINFORMATIVE,
    EstimateSet,
    GammaPrior,
    estimate_kernel,
    true_reliability,
)
from .intervals import _check_level, _check_method_and_level, interval_kernel
from .sampling import ExponentialScales, RngStream, _check_counts, draw_totals

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
T = TypeVar("T")


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
        for name in ("n", "m", "r1", "r2", "replicates"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if not 1 <= self.r1 <= self.n:
            raise ValueError(f"r1 must lie in [1, n={self.n}], got {self.r1}")
        if not 1 <= self.r2 <= self.m:
            raise ValueError(f"r2 must lie in [1, m={self.m}], got {self.r2}")
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        RngStream(self.seed)  # raises unless seed is an unsigned 64-bit integer
        _check_level(self.level)


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
    return draw_totals(config.params, config.r1, config.r2, config.replicates,
                       RngStream(config.seed))


def _run_batch(replicates: int, kernel: Callable[[slice], T]) -> T:
    """``kernel`` applied to every replicate of a cell at once."""
    try:
        return kernel(slice(None))
    except Exception as batch_error:
        # Name the first replicate that fails on its own.
        for i in range(replicates):
            try:
                kernel(slice(i, i + 1))
            except Exception as exc:
                raise SimulationError(f"replicate {i} failed: {exc}") from exc
        raise SimulationError(f"cell failed: {batch_error}") from batch_error


def run_cell(config: SimCellConfig) -> SimCellResult:
    """Estimate MSE, bias, and their Monte Carlo noise for one cell.

    ``mc_stderr`` is the standard error of each MSE estimate: the sample
    standard deviation of the squared errors divided by sqrt(replicates).
    """
    true_r = true_reliability(config.params)
    z, v = _cell_totals(config)
    estimates = _run_batch(config.replicates, lambda part: estimate_kernel(
        config.r1, z[part], config.r2, v[part], config.prior_strength, config.prior_stress))
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
    _check_method_and_level(method, config.level)  # before any draw
    true_r = true_reliability(config.params)
    z, v = _cell_totals(config)
    lower, upper = _run_batch(config.replicates, lambda part: interval_kernel(
        method, config.r1, z[part], config.r2, v[part], config.level))
    return CoverageResult(
        config=config,
        method=method,
        coverage=int(np.count_nonzero((lower <= true_r) & (true_r <= upper))) / config.replicates,
        mean_width=float((upper - lower).mean()),
    )


def _grid_entry(config: SimCellConfig) -> SimCellResult | CellFailure:
    try:
        return run_cell(config)
    except Exception as exc:
        return CellFailure(config=config, message=str(exc))


def run_grid(
    configs: list[SimCellConfig], workers: int = 1
) -> list[SimCellResult | CellFailure]:
    """Run every distinct cell once, keeping input order in the output.

    Cells that differ only in n and m simulate the same thing (see the
    module docstring), so only the first of them runs, and each of its
    rows gets a copy of its entry carrying the row's own config.  Cells
    are independent, so ``workers > 1`` fans them out over processes;
    per-cell seeding makes the results identical either way.  A failing
    cell yields a :class:`CellFailure` entry instead of aborting the rest,
    and so does every cell a dead worker process took down with the pool.
    """
    _check_counts(workers=workers)
    configs = list(configs)
    keys = [replace(config, n=config.r1, m=config.r2) for config in configs]
    cells: dict[SimCellConfig, SimCellConfig] = {}
    for key, config in zip(keys, configs):
        cells.setdefault(key, config)
    if workers == 1 or len(cells) <= 1:
        entries = [_grid_entry(config) for config in cells.values()]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_grid_entry, config) for config in cells.values()]
        entries = []
        for config, future in zip(cells.values(), futures):
            try:
                entries.append(future.result())
            except BrokenProcessPool as exc:
                entries.append(CellFailure(config=config, message=f"worker process died: {exc}"))
    by_key = dict(zip(cells, entries))
    return [replace(by_key[key], config=config) for key, config in zip(keys, configs)]
