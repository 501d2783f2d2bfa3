"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs a few rounds of every workload on two seeds: DEV_SEED, used while the
checks were written, and HOLDOUT_SEED, which was not.  On both, the checks
must pass on the program's real output and must reject each deliberately
wrong result: R2 moved 6 Monte Carlo standard errors, alpha and beta
swapped, and exact-interval coverage 0.02 off.  It also checks that the
reference rules in exact.py agree with rules twice their size.  Exits
non-zero if anything fails.  Takes about a minute and a half.
"""

from __future__ import annotations

import copy
import math
import sys
from pathlib import Path

import checks
import exact
import workloads

ROOT = Path(__file__).resolve().parent.parent
DEV_SEED = 1
HOLDOUT_SEED = 11
ROUNDS = {"paper-tables": 2, "large-r": 2, "coverage-sweep": 4, "datasets": 1}

failures: list[str] = []


def expect(condition: bool, what: str) -> None:
    print(f"{'PASS' if condition else 'FAIL'} {what}")
    if not condition:
        failures.append(what)


def run(name: str, seed: int) -> workloads.Workload:
    workload = workloads.build(name, ROOT, seed)
    for k in range(ROUNDS[name]):
        workload.run_round(k)
    expect(workload.tally.failed == 0, f"{name} seed {seed}: no failed operations")
    return workload


def shift_r2(w: workloads.StudyWorkload) -> list[list[dict]]:
    """Move every cell's pooled R2 mean 6 standard errors further from R."""
    rounds = copy.deepcopy(w.rows)
    for i, cell in enumerate(w.cells):
        _, variance = exact.study_cell(cell["r1"], cell["r2"], cell["alpha"], cell["beta"],
                                       *cell["prior"])["R2"]
        se = math.sqrt(variance / (w.replicates * len(rounds)))
        true_r = cell["alpha"] / (cell["alpha"] + cell["beta"])
        pooled = sum(r[i]["R2"] for r in rounds) / len(rounds)
        step = math.copysign(6.0 * se, pooled - true_r)
        for r in rounds:
            r[i]["R2"] += step
    return rounds


def swap_scales(w: workloads.StudyWorkload) -> list[list[dict]]:
    rounds = copy.deepcopy(w.rows)
    for r in rounds:
        for row in r:
            row["alpha"], row["beta"] = row["beta"], row["alpha"]
    return rounds


def test_study(name: str, seed: int) -> None:
    w = run(name, seed)
    n_cells = len(w.cells)
    problems = w.check()
    expect(not problems, f"{name} seed {seed}: checks pass on real output ({problems[:2]})")
    flagged = checks.check_study(w.cells, shift_r2(w), w.replicates)
    expect(sum("mean R2" in p for p in flagged) == n_cells,
           f"{name} seed {seed}: R2 moved 6 standard errors is rejected in all {n_cells} cells")
    asymmetric = sum(c["alpha"] != c["beta"] for c in w.cells)
    flagged = checks.check_study(w.cells, swap_scales(w), w.replicates)
    expect(sum("out of grid order" in p for p in flagged) == asymmetric * len(w.rows),
           f"{name} seed {seed}: alpha and beta swapped is rejected in all {asymmetric} "
           f"cells with alpha != beta")


def test_coverage(seed: int) -> None:
    w = run("coverage-sweep", seed)
    problems = w.check()
    expect(not problems, f"coverage-sweep seed {seed}: checks pass on real output ({problems[:2]})")
    for delta in (0.02, -0.02):
        rounds = [[(c + delta, width) if cell["method"] == "exact" else (c, width)
                   for cell, (c, width) in zip(w.cells, r)] for r in w.results]
        flagged = checks.check_coverage(w.cells, rounds, w.replicates)
        n_exact = sum(cell["method"] == "exact" for cell in w.cells)
        expect(sum("coverage" in p for p in flagged) == n_exact,
               f"coverage-sweep seed {seed}: exact coverage {delta:+} off is rejected "
               f"in all {n_exact} cells")


def test_datasets(seed: int) -> None:
    w = run("datasets", seed)
    problems = w.check()
    expect(not problems, f"datasets seed {seed}: checks pass on real output ({problems[:2]})")
    n = len(w.inputs)
    swapped = [dict(rec, r1=rec["r2"], r2=rec["r1"], z=rec["v"], v=rec["z"],
                    prior=rec["prior"][::-1]) for rec in w.inputs]
    flagged = checks.check_datasets(swapped, w.outputs)
    expect(len({p.split(":")[0] for p in flagged}) >= 0.95 * n,
           f"datasets seed {seed}: strength and stress swapped is rejected in >= 95% of {n} datasets")
    for column, name, delta in ((1, "R2", 1e-7), (5, "exact.upper", 1e-7)):
        outputs = [out[:column] + (out[column] + delta,) + out[column + 1:] for out in w.outputs]
        flagged = checks.check_datasets(w.inputs, outputs)
        expect(sum(f": {name} " in p for p in flagged) == n,
               f"datasets seed {seed}: {name} off by {delta:g} is rejected in all {n} datasets")


def test_reference_rules() -> None:
    cells = [(2, 2, 2.0, 3.0, (2.0, 4.0), (2.0, 5.0)), (24, 3, 7.0, 6.0, (2.0, 4.0), (2.0, 5.0)),
             (1000, 1000, 1e-3, 1.0, (0.0, 0.0), (0.0, 0.0)), (200, 200, 1e3, 1.0, (0.0, 0.0), (0.0, 0.0))]
    base = [exact.study_cell(*c) for c in cells]
    saved = exact.F_LAW_NODES, exact.GAMMA_LAW_NODES, exact.LOG_ODDS_POINTS
    exact.F_LAW_NODES, exact.GAMMA_LAW_NODES, exact.LOG_ODDS_POINTS = (2 * v for v in saved)
    exact.f_law.cache_clear()
    exact._gamma_law.cache_clear()
    try:
        finer = [exact.study_cell(*c) for c in cells]
    finally:
        exact.F_LAW_NODES, exact.GAMMA_LAW_NODES, exact.LOG_ODDS_POINTS = saved
        exact.f_law.cache_clear()
        exact._gamma_law.cache_clear()
    worst = max(abs(a[k][0] - b[k][0]) / math.sqrt(a[k][1]) for a, b in zip(base, finer) for k in a)
    expect(worst < 1e-4, f"exact moments move {worst:.2g} sd when every rule doubles")


def main() -> int:
    test_reference_rules()
    for seed in (DEV_SEED, HOLDOUT_SEED):
        for name in ("paper-tables", "large-r"):
            test_study(name, seed)
        test_coverage(seed)
        test_datasets(seed)
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
