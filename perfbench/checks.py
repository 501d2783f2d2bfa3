"""Output checks.  Each compares the program's output with a property the
method must have or with an exact value from exact.py, never with stored
output of an earlier run.  Each returns a list of problems; empty means
the output passed.

The Monte Carlo checks test distributions, not particular draws: a pooled
mean must lie within Z_LIMIT standard errors of its exact expectation,
with the standard error taken from the exact variance.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import stats

import exact

Z_LIMIT = 5.0


def _within(label: str, observed: float, mean: float, variance: float, count: int,
            problems: list[str]) -> None:
    se = math.sqrt(max(variance, 0.0) / count)
    if not abs(observed - mean) <= Z_LIMIT * se:
        problems.append(f"{label}: {observed!r} is {abs(observed - mean) / se:.1f} standard errors "
                        f"from the exact {mean!r} (se {se:.3g}, {count} replicates)")


def _cell_label(cell: dict) -> str:
    return (f"cell m={cell['m']} n={cell['n']} r1={cell['r1']} r2={cell['r2']} "
            f"alpha={cell['alpha']:g} beta={cell['beta']:g}")


def check_study(cells: list[dict], rounds: list[list[dict | None]], replicates: int) -> list[str]:
    """Rows of run_grid / `simulate` output, ``rounds[k][i]`` for cell i.

    Rows must come back in grid order with true_r = alpha/(alpha+beta).
    Pooled over rounds, the means of R1 and MSE1 must match their exact
    values under the F law of the scale-MLE ratio, R2 must match R (the
    UMVUE is unbiased), and R3 and R4 their exact expectations.
    """
    problems: list[str] = []
    keys = ("m", "n", "r1", "r2", "alpha", "beta")
    for k, rows in enumerate(rounds):
        for cell, row in zip(cells, rows):
            if row is None:
                continue
            if tuple(row[key] for key in keys) != tuple(cell[key] for key in keys):
                problems.append(f"round {k}: row {[row[key] for key in keys]} out of grid order, "
                                f"expected {_cell_label(cell)}")
                continue
            true_r = cell["alpha"] / (cell["alpha"] + cell["beta"])
            if not math.isclose(row["true_r"], true_r, rel_tol=1e-15):
                problems.append(f"round {k}: {_cell_label(cell)}: true_r {row['true_r']!r} != {true_r!r}")
    for i, cell in enumerate(cells):
        rows = [r[i] for r in rounds if r[i] is not None]
        if not rows:
            continue
        count = replicates * len(rows)
        moments = exact.study_cell(cell["r1"], cell["r2"], cell["alpha"], cell["beta"], *cell["prior"])
        for column, (mean, variance) in moments.items():
            observed = sum(row[column] for row in rows) / len(rows)
            _within(f"{_cell_label(cell)}: mean {column}", observed, mean, variance, count, problems)
    return problems


def check_coverage(cells: list[dict], rounds: list[list[tuple[float, float] | None]],
                   replicates: int) -> list[str]:
    """Pooled coverage and mean width of each (method, size) cell against
    the exact values; the exact interval's coverage must be the level."""
    problems: list[str] = []
    for i, cell in enumerate(cells):
        results = [r[i] for r in rounds if r[i] is not None]
        if not results:
            continue
        count = replicates * len(results)
        want = exact.coverage_cell(cell["r1"], cell["r2"], cell["alpha"], cell["beta"],
                                   cell["level"], cell["method"])
        label = f"{cell['method']} n=m={cell['n']} r={cell['r1']}"
        p = want["coverage"]
        coverage = sum(c for c, _ in results) / len(results)
        _within(f"{label}: coverage", coverage, p, p * (1.0 - p), count, problems)
        width = sum(w for _, w in results) / len(results)
        _within(f"{label}: mean width", width, *want["width"], count, problems)
    return problems


def check_datasets(inputs: list[dict], outputs: list[tuple | None]) -> list[str]:
    """Each dataset's four estimates and two intervals against closed forms
    and scipy: R1 in closed form, R3/R4 by a Beta integral, R2 by 2-D region
    quadrature, exact bounds from scipy.stats.f.ppf and asymptotic bounds
    from scipy.stats.norm.ppf with the delta-method variance."""
    problems: list[str] = []
    done = [(rec, out) for rec, out in zip(inputs, outputs) if out is not None]
    if not done:
        return problems
    r1 = np.array([rec["r1"] for rec, _ in done], float)
    r2 = np.array([rec["r2"] for rec, _ in done], float)
    z = np.array([rec["z"] for rec, _ in done])
    v = np.array([rec["v"] for rec, _ in done])
    level = np.array([rec["level"] for rec, _ in done])
    prior = np.array([np.ravel(rec["prior"]) for rec, _ in done])
    got = np.array([out for _, out in done])

    want = np.empty_like(got)
    want[:, 0] = (z / r1) / (z / r1 + v / r2)
    want[:, 1] = [exact.umvue_region(rec["r1"], rec["r2"], rec["z"], rec["v"]) for rec, _ in done]
    want[:, 2] = exact.posterior_mean(prior[:, 0] + r1, prior[:, 1] + z, prior[:, 2] + r2, prior[:, 3] + v)
    want[:, 3] = exact.posterior_mean(r1, z, r2, v)
    tail = 0.5 * (1.0 - level)
    pivot = (r1 * v) / (r2 * z)
    want[:, 4] = 1.0 / (1.0 + pivot / stats.f.ppf(tail, 2 * r2, 2 * r1))
    want[:, 5] = 1.0 / (1.0 + pivot / stats.f.ppf(1.0 - tail, 2 * r2, 2 * r1))
    r_hat = want[:, 0]
    half = stats.norm.ppf(1.0 - tail) * np.sqrt(r_hat**2 * (1.0 - r_hat) ** 2 * (1.0 / r1 + 1.0 / r2))
    want[:, 6] = np.maximum(0.0, r_hat - half)
    want[:, 7] = np.minimum(1.0, r_hat + half)

    # R1 and the asymptotic bounds are closed forms; R3/R4 carry the
    # package's quadrature tolerance (1e-10 absolute) and the exact bounds
    # its F-quantile bisection.
    names = ("R1", "R2", "R3", "R4", "exact.lower", "exact.upper", "asymptotic.lower",
             "asymptotic.upper")
    rel = np.array([1e-12, 0.0, 0.0, 0.0, 1e-9, 1e-9, 1e-12, 1e-12])
    absolute = np.array([0.0, 1e-9, 1e-8, 1e-8, 1e-12, 1e-12, 1e-12, 1e-12])
    bad = np.abs(got - want) > absolute + rel * np.abs(want)
    for row, col in zip(*np.nonzero(bad)):
        rec = done[row][0]
        problems.append(f"dataset r1={rec['r1']} r2={rec['r2']} Z={rec['z']!r} V={rec['v']!r} "
                        f"level={rec['level']}: {names[col]} {got[row, col]!r}, expected "
                        f"{want[row, col]!r}")
    return problems
