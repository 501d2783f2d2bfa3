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
results.  The intervals are evaluated once per cell, as array kernels
over the cell's totals.  The estimators are evaluated once per batch of
cells: :func:`run_grid` joins its distinct cells' totals into one call of
the estimator kernels, whose sums each run over one value's nodes, and
takes the moments of all cells with one replicate count in one pass, each
summed over one cell's replicates in replicate order.  So a cell's result
does not depend on the cells batched with it, and :func:`run_cell` is the
one-cell case.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, fields, replace
from operator import attrgetter
from typing import Callable, TypeVar

import numpy as np

from .estimators import (
    NONINFORMATIVE,
    EstimateSet,
    GammaPrior,
    _estimate_cells,
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

# One kernel batch of run_grid holds at most this many replicates, unless a
# single cell has more: 2**14 rows of estimates, 512 KiB.
_BATCH_REPLICATES = 1 << 14


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


# Every setting of a cell but n and m, which do not change what it simulates.
_cell_key = attrgetter(*(field.name for field in fields(SimCellConfig)
                         if field.name not in ("n", "m")))


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


def _kernel_cell(config: SimCellConfig, z: np.ndarray, v: np.ndarray) -> tuple:
    return config.r1, z, config.r2, v, config.prior_strength, config.prior_stress


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


def _summaries(configs: list[SimCellConfig], estimates: np.ndarray) -> list[SimCellResult]:
    """The results of cells of one replicate count R from their estimates,
    an array of shape (cells, R, 4).

    Each sum runs over the replicate axis in replicate order, as
    ``mean(axis=0)`` and ``var(axis=0, ddof=1)`` of one cell's (R, 4) rows
    do, so a cell's moments do not depend on the cells beside it.
    """
    replicates = estimates.shape[1]
    true_r = [true_reliability(config.params) for config in configs]
    squared_errors = (estimates - np.array(true_r)[:, None, None]) ** 2
    means = (np.add.reduce(estimates, axis=1) / replicates).tolist()
    mse = np.add.reduce(squared_errors, axis=1) / replicates
    if replicates > 1:
        deviations = squared_errors - mse[:, None]
        variances = np.add.reduce(deviations * deviations, axis=1) / (replicates - 1)
        stderr = np.sqrt(variances / replicates).tolist()
    else:
        stderr = [[0.0] * 4] * len(configs)
    return [
        SimCellResult(
            config=config,
            true_r=target,
            mean_estimates=EstimateSet(*cell_means),
            mse=tuple(cell_mse),
            bias=tuple(mean - target for mean in cell_means),
            mc_stderr=tuple(cell_stderr),
        )
        for config, target, cell_means, cell_mse, cell_stderr
        in zip(configs, true_r, means, mse.tolist(), stderr)
    ]


def run_cell(config: SimCellConfig) -> SimCellResult:
    """Estimate MSE, bias, and their Monte Carlo noise for one cell.

    ``mc_stderr`` is the standard error of each MSE estimate: the sample
    standard deviation of the squared errors divided by sqrt(replicates).
    This is the one-cell case of the batch that :func:`run_grid` runs.
    """
    z, v = _cell_totals(config)
    estimates = _run_batch(config.replicates, lambda part: _estimate_cells(
        [_kernel_cell(config, z[part], v[part])]))
    return _summaries([config], estimates[None])[0]


def _grid_entry(config: SimCellConfig) -> SimCellResult | CellFailure:
    try:
        return run_cell(config)
    except Exception as exc:
        return CellFailure(config=config, message=str(exc))


def _run_cells(configs: list[SimCellConfig]) -> list[SimCellResult | CellFailure]:
    """The entries of distinct cells, from one kernel batch over all of them.

    The cells are joined in groups of one replicate count, so that each
    group's rows reshape to (cells, replicates, 4) for :func:`_summaries`.
    If the batch raises, each cell is run on its own by :func:`run_cell`,
    and one that fails becomes a :class:`CellFailure` with its own message.
    """
    groups: dict[int, list[int]] = {}
    for index, config in enumerate(configs):
        groups.setdefault(config.replicates, []).append(index)
    order = [index for members in groups.values() for index in members]
    try:
        estimates = _estimate_cells(
            [_kernel_cell(configs[i], *_cell_totals(configs[i])) for i in order])
    except Exception:
        return [_grid_entry(config) for config in configs]
    entries: list[SimCellResult | CellFailure] = [None] * len(configs)
    lo = 0
    for replicates, members in groups.items():
        hi = lo + replicates * len(members)
        block = estimates[lo:hi].reshape(len(members), replicates, 4)
        for index, result in zip(members, _summaries([configs[i] for i in members], block)):
            entries[index] = result
        lo = hi
    return entries


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


def _batches(configs: list[SimCellConfig]) -> list[list[SimCellConfig]]:
    """Consecutive runs of cells with at most _BATCH_REPLICATES replicates
    in all, or one cell, so that a batch's arrays do not grow with the grid."""
    batches: list[list[SimCellConfig]] = []
    held = _BATCH_REPLICATES
    for config in configs:
        if held + config.replicates > _BATCH_REPLICATES:
            batches.append([])
            held = 0
        batches[-1].append(config)
        held += config.replicates
    return batches


def run_grid(
    configs: list[SimCellConfig], workers: int = 1
) -> list[SimCellResult | CellFailure]:
    """Run every distinct cell once, keeping input order in the output.

    Cells that differ only in n and m simulate the same thing (see the
    module docstring), so only the first of them runs, and each of its
    other rows gets a copy of its entry carrying the row's own config.
    With one worker the distinct cells run as kernel batches of up to
    2**14 replicates in all (see :func:`run_cell`, their one-cell case).
    Cells are independent, so ``workers > 1`` fans them out over processes,
    one cell per task; per-cell seeding makes the results identical either
    way.  A failing cell yields a :class:`CellFailure` entry instead of
    aborting the rest, and so does every cell a dead worker process took
    down with the pool.
    """
    _check_counts(workers=workers)
    configs = list(configs)
    keys = [_cell_key(config) for config in configs]
    cells: dict[tuple, SimCellConfig] = {}
    for key, config in zip(keys, configs):
        cells.setdefault(key, config)
    if workers == 1 or len(cells) <= 1:
        entries = [entry for batch in _batches(list(cells.values()))
                   for entry in _run_cells(batch)]
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
    entries = [by_key[key] for key in keys]
    return [entry if entry.config is config else replace(entry, config=config)
            for entry, config in zip(entries, configs)]
