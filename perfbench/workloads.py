"""The benchmark's four workloads: inputs, rounds of operations, and the
outputs kept for the checks.

Every workload runs in whole rounds.  Round ``k`` of a run seeded with
``s`` always gets the same inputs, drawn from ``SeedSequence([s, k])``, and
attempts the same number of operations, so the share of failed operations
does not depend on how many rounds fit in a run.

Run as a script (``python3 perfbench/workloads.py WORKLOAD SEED``) it only
imports the package and builds round 0's inputs; run.py times that in a
fresh interpreter as the set-up time.
"""

from __future__ import annotations

import csv
import importlib
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("paper-tables", "large-r", "coverage-sweep", "datasets")

# The paper's seven comparison tables, copied from scripts/run_table_grids.py
# so that the workload stays fixed if the script changes; columns follow the
# grid header (m, n, r1, r2).
EQUAL_ROWS = [
    (5, 5, 3, 3), (5, 5, 4, 4),
    (10, 10, 6, 6), (10, 10, 7, 7), (10, 10, 8, 8), (10, 10, 9, 9),
    (15, 15, 12, 12), (15, 15, 13, 13), (15, 15, 14, 14),
    (20, 20, 15, 15), (20, 20, 16, 16), (20, 20, 17, 17),
    (25, 25, 23, 23), (25, 25, 24, 24),
    (50, 50, 4, 4), (50, 50, 6, 6), (50, 50, 9, 9),
]
UNEQUAL_ROWS = [
    (4, 5, 3, 2), (5, 5, 4, 3),
    (5, 10, 6, 5), (10, 10, 7, 6), (15, 10, 8, 7), (20, 10, 9, 10), (25, 10, 10, 20),
    (5, 15, 6, 5), (10, 15, 7, 6), (15, 15, 8, 7), (20, 15, 9, 10), (25, 15, 10, 20),
    (5, 20, 15, 4), (10, 20, 16, 9), (15, 20, 17, 14),
    (10, 25, 20, 9), (15, 25, 22, 14), (20, 25, 24, 19),
    (25, 50, 4, 24), (30, 50, 6, 29), (40, 50, 9, 39),
]
PAPER_TABLES = [
    ("equal", EQUAL_ROWS, [(2.0, 3.0), (2.0, 6.0), (7.0, 6.0), (7.0, 7.0)]),
    ("unequal", UNEQUAL_ROWS, [(2.0, 3.0), (2.0, 6.0), (7.0, 7.0)]),
]
# A fixed informative prior pair; without one R3 is a copy of R4.
PAPER_PRIOR = ((2.0, 4.0), (2.0, 5.0))
NONINFORMATIVE = ((0.0, 0.0), (0.0, 0.0))

COVERAGE_SIZES = (5, 10, 15, 20, 25, 50)  # as in scripts/run_coverage_study.py
LEVELS = (0.8, 0.9, 0.95, 0.99)
STUDY_COLUMNS = ("R1", "MSE1", "R2", "MSE2", "R3", "MSE3", "R4", "MSE4")

# Time inside the package is this process's CPU time.  The package is
# single-threaded and CPU-bound, so on a dedicated machine this equals the
# wall time; on a shared one the wall clock also counts stalls while the
# process waits for a core, which hit about 2% of `datasets` operations by
# more than 1 ms and decided their p99.
cpu_clock = time.process_time


def import_package(root: Path):
    """Import ``stress_strength`` from the checkout's ``src`` and nowhere else."""
    src = root / "src"
    if not (src / "stress_strength" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no package source at {src / 'stress_strength'}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("stress_strength")
    if Path(package.__file__).resolve().parent != (src / "stress_strength").resolve():
        raise SystemExit(f"benchmark: stress_strength imported from {package.__file__}, not {src}")
    importlib.import_module("stress_strength.cli")
    return package


def round_seed(seed: int, round_index: int) -> int:
    return int(np.random.SeedSequence([seed, round_index]).generate_state(1, np.uint64)[0])


def round_rng(seed: int, round_index: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, round_index]))


def report_failure(what: str, detail: str) -> None:
    print(f"benchmark: failed operation: {what}: {detail}", file=sys.stderr)


@dataclass
class Tally:
    """What a run did: operations attempted and failed, datasets processed,
    time spent inside the program, each round's datasets per second of
    that time, and one latency sample per dataset (``datasets``) or per
    round (the Monte Carlo workloads)."""

    attempted: int = 0
    failed: int = 0
    datasets: int = 0
    busy_s: float = 0.0
    round_rates: list[float] = field(default_factory=list)
    latencies_us: list[float] = field(default_factory=list)


class Workload:
    name: str

    def __init__(self, package, seed: int, out_dir: Path) -> None:
        self.ss = package
        self.seed = seed
        self.out_dir = out_dir
        self.tally = Tally()

    def run_round(self, k: int) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def _record_round(self, busy_s: float, datasets: int, per_round_latency: bool = True) -> None:
        self.tally.busy_s += busy_s
        self.tally.datasets += datasets
        if datasets:
            self.tally.round_rates.append(datasets / busy_s)
            if per_round_latency:
                self.tally.latencies_us.append(busy_s * 1e6 / datasets)


class StudyWorkload(Workload):
    """Grid cells whose rows are pooled over rounds and checked against the
    exact moments.  ``rows[k][i]`` is cell i's row in round k, or None if
    that cell failed."""

    replicates: int

    def __init__(self, package, seed, out_dir) -> None:
        super().__init__(package, seed, out_dir)
        self.cells: list[dict] = []
        self.rows: list[list[dict | None]] = []

    def check(self) -> list[str]:
        import checks

        return checks.check_study(self.cells, self.rows, self.replicates)


class PaperTables(StudyWorkload):
    name = "paper-tables"
    replicates = 50

    def __init__(self, package, seed, out_dir) -> None:
        super().__init__(package, seed, out_dir)
        work = out_dir / self.name
        work.mkdir(parents=True, exist_ok=True)
        self.tables = []  # (grid path, results path, slice of self.cells)
        for tag, rows, scale_pairs in PAPER_TABLES:
            for alpha, beta in scale_pairs:
                name = f"{tag}_alpha{alpha:g}_beta{beta:g}"
                grid = work / f"grid_{name}.csv"
                lines = ["m,n,r1,r2,alpha,beta,replicates"]
                lines += [f"{m},{n},{r1},{r2},{alpha!r},{beta!r},{self.replicates}"
                          for m, n, r1, r2 in rows]
                grid.write_text("\n".join(lines) + "\n")
                first = len(self.cells)
                self.cells += [
                    dict(m=m, n=n, r1=r1, r2=r2, alpha=alpha, beta=beta, prior=PAPER_PRIOR)
                    for m, n, r1, r2 in rows
                ]
                self.tables.append((grid, work / f"table_{name}.csv", slice(first, len(self.cells))))

    def run_round(self, k: int) -> None:
        (u1, v1), (u2, v2) = PAPER_PRIOR
        round_rows: list[dict | None] = [None] * len(self.cells)
        busy = 0.0
        done = 0
        for grid, out, cells in self.tables:
            argv = ["simulate", "--grid", str(grid), "--out", str(out),
                    "--seed", str(round_seed(self.seed, k)), "--workers", "1",
                    "--prior-strength", repr(u1), repr(v1),
                    "--prior-stress", repr(u2), repr(v2), "--full-precision"]
            n_cells = cells.stop - cells.start
            self.tally.attempted += n_cells
            start = cpu_clock()
            try:
                status = self.ss.cli.main(argv)
            except Exception:
                status = traceback.format_exc()
            busy += cpu_clock() - start
            if status != 0:
                self.tally.failed += n_cells
                report_failure(f"simulate {grid.name} round {k}", f"exit status {status}")
                continue
            with open(out, newline="") as handle:
                rows = list(csv.DictReader(handle))
            if len(rows) != n_cells:
                self.tally.failed += n_cells
                report_failure(f"simulate {grid.name} round {k}",
                               f"{len(rows)} result rows for {n_cells} cells")
                continue
            for i, row in zip(range(cells.start, cells.stop), rows):
                round_rows[i] = {key: float(value) for key, value in row.items()}
            done += n_cells * self.replicates
        self.rows.append(round_rows)
        self._record_round(busy, done)


class LargeR(StudyWorkload):
    name = "large-r"
    replicates = 160

    def __init__(self, package, seed, out_dir) -> None:
        super().__init__(package, seed, out_dir)
        for r in (200, 1000):
            for n in (r, 2 * r):
                for ratio in (1e-3, 1.0, 1e3):
                    self.cells.append(dict(m=n, n=n, r1=r, r2=r, alpha=ratio, beta=1.0,
                                           prior=NONINFORMATIVE))

    def configs(self, k: int) -> list:
        ss = self.ss
        return [
            ss.SimCellConfig(ss.ExponentialScales(c["alpha"], c["beta"]), n=c["n"], m=c["m"],
                             r1=c["r1"], r2=c["r2"], replicates=self.replicates,
                             seed=round_seed(self.seed, k))
            for c in self.cells
        ]

    def run_round(self, k: int) -> None:
        configs = self.configs(k)
        self.tally.attempted += len(configs)
        start = cpu_clock()
        try:
            entries = self.ss.run_grid(configs)
        except Exception:
            entries = [traceback.format_exc()] * len(configs)
        busy = cpu_clock() - start
        round_rows: list[dict | None] = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, self.ss.SimCellResult):
                self.tally.failed += 1
                report_failure(f"large-r cell {i} round {k}", str(entry))
                round_rows.append(None)
                continue
            cfg, means = entry.config, entry.mean_estimates
            row = dict(m=cfg.m, n=cfg.n, r1=cfg.r1, r2=cfg.r2, alpha=cfg.params.alpha,
                       beta=cfg.params.beta, true_r=entry.true_r)
            values = (means.r1_mle, entry.mse[0], means.r2_umvue, entry.mse[1],
                      means.r3_bayes_conjugate, entry.mse[2], means.r4_bayes_noninf, entry.mse[3])
            row.update(zip(STUDY_COLUMNS, values))
            round_rows.append(row)
        self.rows.append(round_rows)
        done = sum(row is not None for row in round_rows) * self.replicates
        self._record_round(busy, done)


class CoverageSweep(Workload):
    name = "coverage-sweep"
    replicates = 3000
    alpha, beta, level = 2.0, 3.0, 0.95

    def __init__(self, package, seed, out_dir) -> None:
        super().__init__(package, seed, out_dir)
        self.cells = [
            dict(method=method, n=size, m=size, r1=max(1, round(0.8 * size)),
                 r2=max(1, round(0.8 * size)), alpha=self.alpha, beta=self.beta, level=self.level)
            for method in ("exact", "asymptotic") for size in COVERAGE_SIZES
        ]
        self.results: list[list[tuple[float, float] | None]] = []  # (coverage, mean width)

    def run_round(self, k: int) -> None:
        ss = self.ss
        busy = 0.0
        done = 0
        round_results: list[tuple[float, float] | None] = []
        for c in self.cells:
            config = ss.SimCellConfig(ss.ExponentialScales(c["alpha"], c["beta"]), n=c["n"],
                                      m=c["m"], r1=c["r1"], r2=c["r2"], replicates=self.replicates,
                                      seed=round_seed(self.seed, k), level=c["level"])
            self.tally.attempted += 1
            start = cpu_clock()
            try:
                result = ss.run_coverage(config, c["method"])
            except Exception:
                result = traceback.format_exc()
            busy += cpu_clock() - start
            if not isinstance(result, ss.CoverageResult):
                self.tally.failed += 1
                report_failure(f"coverage {c['method']} n={c['n']} round {k}", result)
                round_results.append(None)
                continue
            round_results.append((result.coverage, result.mean_width))
            done += self.replicates
        self.results.append(round_results)
        self._record_round(busy, done)

    def check(self) -> list[str]:
        import checks

        return checks.check_coverage(self.cells, self.results, self.replicates)


class Datasets(Workload):
    """Independent datasets, one at a time, through the estimate/ci path."""

    name = "datasets"
    per_round = 1000

    def __init__(self, package, seed, out_dir) -> None:
        super().__init__(package, seed, out_dir)
        self.inputs: list[dict] = []
        self.outputs: list[tuple | None] = []
        self.pending = self.make_inputs(0)

    def make_inputs(self, k: int) -> list[tuple[dict, object, object, object]]:
        """Round k's datasets: (record for the checks, data, two priors)."""
        ss = self.ss
        rng = round_rng(self.seed, k)
        made = []
        for _ in range(self.per_round):
            r1, r2 = (int(r) for r in rng.integers(1, 61, size=2))
            n, m = r1 + int(rng.integers(0, r1 + 1)), r2 + int(rng.integers(0, r2 + 1))
            log_ratio = rng.uniform(-3.0, 3.0)  # log10(alpha/beta)
            alpha, beta = 10.0 ** (0.5 * log_ratio), 10.0 ** (-0.5 * log_ratio)
            strength = np.sort(rng.exponential(alpha, n))[:r1]
            stress = np.sort(rng.exponential(beta, m))[:r2]
            u1, u2 = rng.uniform(0.5, 5.0, size=2)
            v1, v2 = u1 * alpha * np.exp(rng.normal(0.0, 0.5)), u2 * beta * np.exp(rng.normal(0.0, 0.5))
            level = LEVELS[int(rng.integers(len(LEVELS)))]
            record = dict(
                r1=r1, r2=r2, level=level, prior=((float(u1), float(v1)), (float(u2), float(v2))),
                z=math.fsum(strength) + (n - r1) * float(strength[-1]),
                v=math.fsum(stress) + (m - r2) * float(stress[-1]),
            )
            data = ss.StressStrengthData(
                strength=ss.CensoredSample.from_times(strength.tolist(), n),
                stress=ss.CensoredSample.from_times(stress.tolist(), m),
            )
            made.append((record, data, ss.GammaPrior(u1, v1), ss.GammaPrior(u2, v2)))
        return made

    def clear_package_caches(self) -> None:
        # Each `estimate`/`ci` invocation is a fresh process, so every round
        # starts with the package's memoised quantiles empty.
        for module_name in ("specfun", "intervals", "estimators"):
            module = getattr(self.ss, module_name, None)
            for value in vars(module).values() if module else ():
                clear = getattr(value, "cache_clear", None)
                if callable(clear):
                    clear()

    def run_round(self, k: int) -> None:
        ss = self.ss
        batch = self.pending if k == 0 else self.make_inputs(k)
        self.clear_package_caches()
        busy = 0.0
        done = 0
        for record, data, prior_strength, prior_stress in batch:
            self.tally.attempted += 1
            start = cpu_clock()
            try:
                est = ss.estimate_all(data, prior_strength, prior_stress)
                exact = ss.exact_ci(data, record["level"])
                asym = ss.asymptotic_ci(data, record["level"])
            except Exception:
                output, failure = None, traceback.format_exc()
            else:
                output = (est.r1_mle, est.r2_umvue, est.r3_bayes_conjugate, est.r4_bayes_noninf,
                          exact.lower, exact.upper, asym.lower, asym.upper)
            elapsed = cpu_clock() - start
            busy += elapsed
            self.inputs.append(record)
            self.outputs.append(output)
            if output is None:
                self.tally.failed += 1
                report_failure(f"dataset r1={record['r1']} r2={record['r2']} round {k}", failure)
                continue
            done += 1
            self.tally.latencies_us.append(elapsed * 1e6)
        self._record_round(busy, done, per_round_latency=False)

    def check(self) -> list[str]:
        import checks

        return checks.check_datasets(self.inputs, self.outputs)


CLASSES = {cls.name: cls for cls in (PaperTables, LargeR, CoverageSweep, Datasets)}


def build(name: str, root: Path, seed: int) -> Workload:
    """Import the package from the checkout and build round 0's inputs."""
    package = import_package(root)
    return CLASSES[name](package, seed, root / ".perfbench_out")


if __name__ == "__main__":
    build(sys.argv[1], Path(__file__).resolve().parent.parent, int(sys.argv[2]))
