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
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from .estimators import (
    NONINFORMATIVE,
    EstimateSet,
    GammaPrior,
    estimate_kernel,
    true_reliability,
)
from .intervals import METHODS, IntervalEstimate, interval_kernel
from .sampling import ExponentialScales, RngStream, draw_totals

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


def _name_first(outside: np.ndarray, check: Callable[[int], object]) -> None:
    """Raise the error ``check(i)`` raises for the first replicate i marked
    ``outside``, naming that replicate."""
    bad = np.flatnonzero(outside)
    if bad.size:
        i = int(bad[0])
        try:
            check(i)
        except ValueError as exc:
            raise SimulationError(f"replicate {i} failed: {exc}") from exc


def run_cell(config: SimCellConfig) -> SimCellResult:
    """Estimate MSE, bias, and their Monte Carlo noise for one cell.

    ``mc_stderr`` is the standard error of each MSE estimate: the sample
    standard deviation of the squared errors divided by sqrt(replicates).
    """
    true_r = true_reliability(config.params)
    z, v = _cell_totals(config)
    estimates = _run_batch(config.replicates, lambda part: estimate_kernel(
        config.r1, z[part], config.r2, v[part], config.prior_strength, config.prior_stress))
    # EstimateSet's range checks, applied to every replicate at once.
    inside = (estimates > 0.0) & (estimates < 1.0)
    inside[:, 1] = (estimates[:, 1] >= 0.0) & (estimates[:, 1] <= 1.0)
    _name_first(~inside.all(axis=1), lambda i: EstimateSet(*estimates[i].tolist()))
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
    true_r = true_reliability(config.params)
    z, v = _cell_totals(config)
    lower, upper = _run_batch(config.replicates, lambda part: interval_kernel(
        method, config.r1, z[part], config.r2, v[part], config.level))
    # IntervalEstimate's bound checks, applied to every replicate at once.
    _name_first(
        ~((0.0 <= lower) & (lower <= upper) & (upper <= 1.0)),
        lambda i: IntervalEstimate(float(lower[i]), float(upper[i]), config.level, method),
    )
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
    """Run every cell, keeping input order in the output.

    Cells are independent, so ``workers > 1`` fans them out over processes;
    per-cell seeding makes the results identical either way.  A failing
    cell yields a :class:`CellFailure` entry instead of aborting the rest,
    and so does every cell a dead worker process took down with the pool.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    configs = list(configs)
    if workers == 1 or len(configs) <= 1:
        return [_grid_entry(config) for config in configs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(_grid_entry, config) for config in configs]
    entries: list[SimCellResult | CellFailure] = []
    for config, future in zip(configs, futures):
        try:
            entries.append(future.result())
        except BrokenProcessPool as exc:
            entries.append(CellFailure(config=config, message=f"worker process died: {exc}"))
    return entries
