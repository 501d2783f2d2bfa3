"""Measure empirical coverage of both interval methods.

Sweeps the sample size with 80 percent of units observed, at the scale
pair (2, 3), and writes one row per (method, size) combination.  The exact
interval should sit on the nominal level everywhere; the normal interval
is expected to undercover at small sizes and recover as r grows.
"""

import argparse
import csv
import sys
from pathlib import Path

from stress_strength import ExponentialScales, SimCellConfig, run_coverage

SIZES = (5, 10, 15, 20, 25, 50)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=Path("results/coverage.csv"),
                        help="destination CSV")
    parser.add_argument("--alpha", type=float, default=2.0, help="true strength scale")
    parser.add_argument("--beta", type=float, default=3.0, help="true stress scale")
    parser.add_argument("--level", type=float, default=0.95, help="nominal level")
    parser.add_argument("--replicates", type=int, default=10**4,
                        help="Monte Carlo replicates per cell")
    parser.add_argument("--seed", type=int, default=42, help="base seed for every cell")
    args = parser.parse_args(argv)

    args.out.parent.mkdir(parents=True, exist_ok=True)
    # Every cell runs before the file is opened, so a run that fails part way
    # leaves an earlier table in place.
    rows = []
    for method in ("exact", "asymptotic"):
        for size in SIZES:
            r = max(1, round(0.8 * size))
            config = SimCellConfig(
                params=ExponentialScales(args.alpha, args.beta),
                n=size, m=size, r1=r, r2=r,
                replicates=args.replicates, seed=args.seed, level=args.level,
            )
            result = run_coverage(config, method)
            rows.append([
                method, size, size, r, r, format(args.level, "g"),
                format(result.coverage, ".6g"), format(result.mean_width, ".6g"),
            ])
            print(f"{method} n=m={size} r={r}: coverage {result.coverage:.4f}, "
                  f"mean width {result.mean_width:.4f}", flush=True)
    with open(args.out, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["method", "n", "m", "r1", "r2", "level", "coverage", "mean_width"])
        writer.writerows(rows)
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
