"""Benchmark of the stress-strength package: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The package is imported from the
checkout's ``src``.  The run measures set-up in fresh interpreters, runs
whole rounds of the workload in this process for S seconds, checks every
output, and prints one JSON object as its last line: with ``--trace 0``
the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a run
whose package functions are wrapped in spans.  See README.md.
"""

from __future__ import annotations

import os

# At most one thread per numeric library; set before numpy is imported,
# here and in the set-up interpreters, which inherit the environment.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_TRIALS = 7


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of a fresh interpreter that imports the package and
    builds the workload's round-0 inputs."""
    times = []
    for _ in range(SETUP_TRIALS):
        start = time.perf_counter()
        # No timeout: with one, subprocess polls the child in steps of up
        # to 50 ms, which would quantise the measurement.
        subprocess.run([sys.executable, str(BENCH_DIR / "workloads.py"), workload, str(seed)],
                       cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    sys.path.insert(0, str(BENCH_DIR))
    import numpy as np
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    workload = workloads.build(args.workload, ROOT, args.seed)
    setup_s = measure_setup(args.workload, args.seed)
    workload.out_dir.mkdir(exist_ok=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    started = time.perf_counter()
    workload.run_round(0)
    rounds = 1
    # Peak RSS of this process once a whole round has run.  Later rounds
    # only add the outputs the checks keep, which would make the figure
    # grow with the number of rounds, and the checks import scipy.
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first_round = tracer.snapshot() if tracer is not None else None
    while time.perf_counter() - started < args.seconds:
        workload.run_round(rounds)
        rounds += 1

    problems = workload.check()
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)

    tally = workload.tally
    if not tally.datasets:
        raise SystemExit(f"benchmark: all {tally.attempted} operations failed")
    if tracer is None:
        p50, p99 = np.percentile(tally.latencies_us, [50, 99])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "replicates_per_s": {"value": statistics.median(tally.round_rates),
                                 "unit": "replicates/s"},
            "dataset_p50_us": {"value": float(p50), "unit": "us"},
            "dataset_p99_us": {"value": float(p99), "unit": "us"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
        }
    else:
        metrics = tracing.layer_metrics(first_round, tracer.totals, len(tracer.spans), tally.busy_s)
        tracer.write(workload.out_dir / f"trace_{args.workload}.json.gz")
    result = {"correct": not problems, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(f"benchmark: {args.workload} seed {args.seed}: {rounds} rounds, {tally.datasets} "
          f"datasets, {tally.datasets / tally.busy_s:.1f} datasets/s in the package, "
          f"{len(problems)} check failures", file=sys.stderr)
    line = json.dumps(result)
    suffix = "_trace" if args.trace else ""
    (workload.out_dir / f"result_{args.workload}{suffix}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
