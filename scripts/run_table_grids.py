"""Regenerate the full estimator-comparison study.

Seven comparison tables: the equal-censoring layout (17 rows, r1 = r2)
under four scale pairs, and the unequal-censoring layout (21 rows) under
three.  Each table is written as a grid CSV next to its results CSV, so
any single table can be rerun later with

    stress-strength simulate --grid <outdir>/grid_<name>.csv --seed <seed> \
        --prior-strength 2 4 --prior-stress 2 5

or with any other prior in place of the one shown.  By default every
cell runs 2999 replicates with seed 42.

R3 uses the conjugate priors PRIOR_STRENGTH = (2, 4) on the strength
scale and PRIOR_STRESS = (2, 5) on the stress scale.  These are an
illustrative pair, the one the benchmark uses; they are not the paper's
prior values, which are not recorded in this repository.  With both
priors non-informative (0 0), R3 is the same posterior mean as R4, so
its columns repeat R4's.
"""

import argparse
import sys
from pathlib import Path

from stress_strength.cli import main as cli_main

EQUAL_ROWS = [
    (5, 5, 3, 3), (5, 5, 4, 4),
    (10, 10, 6, 6), (10, 10, 7, 7), (10, 10, 8, 8), (10, 10, 9, 9),
    (15, 15, 12, 12), (15, 15, 13, 13), (15, 15, 14, 14),
    (20, 20, 15, 15), (20, 20, 16, 16), (20, 20, 17, 17),
    (25, 25, 23, 23), (25, 25, 24, 24),
    (50, 50, 4, 4), (50, 50, 6, 6), (50, 50, 9, 9),
]

# Columns follow the grid header (m, n, r1, r2): n strength units with r1
# observed failures, m stress units with r2.
UNEQUAL_ROWS = [
    (4, 5, 3, 2), (5, 5, 4, 3),
    (5, 10, 6, 5), (10, 10, 7, 6), (15, 10, 8, 7), (20, 10, 9, 10), (25, 10, 10, 20),
    (5, 15, 6, 5), (10, 15, 7, 6), (15, 15, 8, 7), (20, 15, 9, 10), (25, 15, 10, 20),
    (5, 20, 15, 4), (10, 20, 16, 9), (15, 20, 17, 14),
    (10, 25, 20, 9), (15, 25, 22, 14), (20, 25, 24, 19),
    (25, 50, 4, 24), (30, 50, 6, 29), (40, 50, 9, 39),
]

STUDIES = [
    ("equal", EQUAL_ROWS, [(2.0, 3.0), (2.0, 6.0), (7.0, 6.0), (7.0, 7.0)]),
    ("unequal", UNEQUAL_ROWS, [(2.0, 3.0), (2.0, 6.0), (7.0, 7.0)]),
]

# Conjugate gamma priors (u, v) for R3; illustrative, not the paper's values.
PRIOR_STRENGTH = (2.0, 4.0)
PRIOR_STRESS = (2.0, 5.0)


def write_grid(path: Path, rows, alpha: float, beta: float, replicates: int) -> None:
    lines = ["m,n,r1,r2,alpha,beta,replicates"]
    lines += [f"{m},{n},{r1},{r2},{alpha},{beta},{replicates}" for m, n, r1, r2 in rows]
    path.write_text("\n".join(lines) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", type=Path, default=Path("results"),
                        help="directory for grid and result CSVs")
    parser.add_argument("--replicates", type=int, default=2999,
                        help="Monte Carlo replicates per cell")
    parser.add_argument("--seed", type=int, default=42, help="base seed for every cell")
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for tag, rows, scale_pairs in STUDIES:
        for alpha, beta in scale_pairs:
            name = f"{tag}_alpha{alpha:g}_beta{beta:g}"
            grid_path = args.outdir / f"grid_{name}.csv"
            out_path = args.outdir / f"table_{name}.csv"
            write_grid(grid_path, rows, alpha, beta, args.replicates)
            print(f"running {name}: {len(rows)} cells x {args.replicates} replicates",
                  flush=True)
            status = cli_main([
                "simulate", "--grid", str(grid_path), "--seed", str(args.seed),
                "--out", str(out_path), "--workers", str(args.workers),
                "--prior-strength", *map(repr, PRIOR_STRENGTH),
                "--prior-stress", *map(repr, PRIOR_STRESS),
            ])
            if status != 0:
                failures += 1
                print(f"{name} finished with status {status}", file=sys.stderr)
            else:
                print(f"wrote {out_path}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
