"""Command line interface.

Four subcommands: ``estimate`` and ``ci`` evaluate one dataset read from
headerless CSV files of observed failure times; ``simulate`` replays a grid
of Monte Carlo cells and writes the comparison table; ``coverage`` measures
one interval method.  Results go to the output stream (``--out`` or
stdout), diagnostics go to stderr, and every error path exits nonzero.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import sys
import tempfile
from contextlib import contextmanager, suppress
from dataclasses import dataclass

from .estimators import NONINFORMATIVE, GammaPrior, estimate_all
from .intervals import METHODS, asymptotic_ci, exact_ci
from .sampling import CensoredSample, ExponentialScales, RngStream, StressStrengthData
from .simulation import (
    CellFailure,
    SimCellConfig,
    SimulationError,
    run_coverage,
    run_grid,
)

__all__ = ["RunManifest", "UsageError", "InputError", "parse_manifest", "execute", "main"]

SEED_ENV_VAR = "STRESS_STRENGTH_SEED"
GRID_COLUMNS = ("m", "n", "r1", "r2", "alpha", "beta", "replicates")
RESULT_COLUMNS = (
    "m", "n", "r1", "r2", "alpha", "beta", "true_r",
    "R1", "MSE1", "R2", "MSE2", "R3", "MSE3", "R4", "MSE4",
    "stderr1", "stderr2", "stderr3", "stderr4",
)
COVERAGE_COLUMNS = ("method", "level", "coverage", "mean_width")


class UsageError(Exception):
    """Invalid arguments; reported with exit status 2."""


class InputError(Exception):
    """Unreadable or inconsistent input data; reported with exit status 1."""


@dataclass(frozen=True)
class RunManifest:
    """A fully validated description of one tool invocation."""

    command: str
    strength_path: str | None = None
    stress_path: str | None = None
    n: int | None = None
    m: int | None = None
    prior_strength: GammaPrior = NONINFORMATIVE
    prior_stress: GammaPrior = NONINFORMATIVE
    method: str | None = None
    level: float = 0.95
    grid_path: str | None = None
    out_path: str | None = None
    seed: int = 0
    workers: int = 1
    alpha: float | None = None
    beta: float | None = None
    r1: int | None = None
    r2: int | None = None
    replicates: int = 2999
    full_precision: bool = False
    dump_strength_path: str | None = None
    dump_stress_path: str | None = None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stress-strength",
        description="Reliability P(Y < X) for censored exponential samples.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--strength", required=True, metavar="PATH",
                       help="CSV of observed strength failure times, one per line")
        p.add_argument("--stress", required=True, metavar="PATH",
                       help="CSV of observed stress failure times, one per line")
        p.add_argument("--n", required=True, type=int,
                       help="total strength units on test (observed plus censored)")
        p.add_argument("--m", required=True, type=int,
                       help="total stress units on test (observed plus censored)")

    def add_prior_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--prior-strength", nargs=2, type=float, metavar=("U", "V"),
                       default=None, help="conjugate prior hyperparameters for the strength scale")
        p.add_argument("--prior-stress", nargs=2, type=float, metavar=("U", "V"),
                       default=None, help="conjugate prior hyperparameters for the stress scale")

    estimate = sub.add_parser("estimate", help="point estimates for one dataset")
    add_data_args(estimate)
    add_prior_args(estimate)
    estimate.add_argument("--dump-strength", metavar="PATH", default=None,
                          help="rewrite the parsed strength sample to PATH")
    estimate.add_argument("--dump-stress", metavar="PATH", default=None,
                          help="rewrite the parsed stress sample to PATH")
    estimate.add_argument("--full-precision", action="store_true",
                          help="print full float precision instead of 6 significant digits")

    ci = sub.add_parser("ci", help="confidence interval for one dataset")
    add_data_args(ci)
    ci.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    ci.add_argument("--level", type=float, default=0.95, help="confidence level in (0, 1)")
    ci.add_argument("--full-precision", action="store_true",
                    help="print full float precision instead of 6 significant digits")

    simulate = sub.add_parser("simulate", help="run a grid of Monte Carlo cells")
    simulate.add_argument("--grid", required=True, metavar="PATH",
                          help=f"cell grid CSV with header {','.join(GRID_COLUMNS)}")
    simulate.add_argument("--out", metavar="PATH", default=None,
                          help="results CSV destination (default: stdout)")
    simulate.add_argument("--seed", type=int, default=None,
                          help=f"base seed shared by all cells (default: ${SEED_ENV_VAR} or 0)")
    simulate.add_argument("--workers", type=int, default=1,
                          help="worker processes for independent cells")
    add_prior_args(simulate)
    simulate.add_argument("--full-precision", action="store_true",
                          help="write full float precision instead of 6 significant digits")

    coverage = sub.add_parser("coverage", help="empirical coverage of one interval method")
    coverage.add_argument("--alpha", required=True, type=float, help="true strength scale")
    coverage.add_argument("--beta", required=True, type=float, help="true stress scale")
    coverage.add_argument("--n", required=True, type=int, help="total strength units")
    coverage.add_argument("--m", required=True, type=int, help="total stress units")
    coverage.add_argument("--r1", required=True, type=int, help="observed strength failures")
    coverage.add_argument("--r2", required=True, type=int, help="observed stress failures")
    coverage.add_argument("--method", required=True, help=f"one of {', '.join(METHODS)}")
    coverage.add_argument("--level", type=float, default=0.95, help="confidence level in (0, 1)")
    coverage.add_argument("--replicates", type=int, default=2999, help="Monte Carlo replicates")
    coverage.add_argument("--seed", type=int, default=None,
                          help=f"replicate seed (default: ${SEED_ENV_VAR} or 0)")
    coverage.add_argument("--out", metavar="PATH", default=None,
                          help="coverage CSV destination (default: stdout)")
    coverage.add_argument("--full-precision", action="store_true",
                          help="write full float precision instead of 6 significant digits")

    return parser


def _seed_from_env(problems: list[str]) -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return 0
    try:
        value = int(raw)
    except ValueError:
        problems.append(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
        return 0
    return _checked_seed(value, SEED_ENV_VAR, problems)


def _checked_seed(value: int, source: str, problems: list[str]) -> int:
    try:
        return RngStream(value).seed
    except ValueError:
        problems.append(f"{source} must lie in [0, 2**64), got {value}")
        return 0


def _prior_from_args(pair: list[float] | None, flag: str, problems: list[str]) -> GammaPrior:
    if pair is None:
        return NONINFORMATIVE
    u, v = pair
    if not (math.isfinite(u) and u >= 0.0):
        problems.append(f"{flag} shape U must be finite and nonnegative, got {u}")
        return NONINFORMATIVE
    if not (math.isfinite(v) and v >= 0.0):
        problems.append(f"{flag} scale V must be finite and nonnegative, got {v}")
        return NONINFORMATIVE
    return GammaPrior(u, v)


def parse_manifest(argv: list[str]) -> RunManifest:
    """Parse and validate argv, reporting every violated constraint at once."""
    args = _build_parser().parse_args(argv)
    problems: list[str] = []

    def check_counts() -> None:
        if args.n < 1:
            problems.append(f"--n must be >= 1, got {args.n}")
        if args.m < 1:
            problems.append(f"--m must be >= 1, got {args.m}")

    def check_level() -> None:
        if not 0.0 < args.level < 1.0:
            problems.append(f"--level must lie in (0, 1), got {args.level}")

    def check_method() -> None:
        if args.method not in METHODS:
            problems.append(f"--method must be one of {', '.join(METHODS)}, got {args.method!r}")

    def resolve_seed() -> int:
        if args.seed is None:
            return _seed_from_env(problems)
        return _checked_seed(args.seed, "--seed", problems)

    manifest: RunManifest
    if args.command == "estimate":
        check_counts()
        manifest = RunManifest(
            command="estimate",
            strength_path=args.strength,
            stress_path=args.stress,
            n=args.n,
            m=args.m,
            prior_strength=_prior_from_args(args.prior_strength, "--prior-strength", problems),
            prior_stress=_prior_from_args(args.prior_stress, "--prior-stress", problems),
            full_precision=args.full_precision,
            dump_strength_path=args.dump_strength,
            dump_stress_path=args.dump_stress,
        )
    elif args.command == "ci":
        check_counts()
        check_level()
        check_method()
        manifest = RunManifest(
            command="ci",
            strength_path=args.strength,
            stress_path=args.stress,
            n=args.n,
            m=args.m,
            method=args.method,
            level=args.level,
            full_precision=args.full_precision,
        )
    elif args.command == "simulate":
        if args.workers < 1:
            problems.append(f"--workers must be >= 1, got {args.workers}")
        manifest = RunManifest(
            command="simulate",
            grid_path=args.grid,
            out_path=args.out,
            seed=resolve_seed(),
            workers=args.workers,
            prior_strength=_prior_from_args(args.prior_strength, "--prior-strength", problems),
            prior_stress=_prior_from_args(args.prior_stress, "--prior-stress", problems),
            full_precision=args.full_precision,
        )
    else:
        check_counts()
        check_level()
        check_method()
        if args.alpha is not None and not (math.isfinite(args.alpha) and args.alpha > 0.0):
            problems.append(f"--alpha must be positive and finite, got {args.alpha}")
        if args.beta is not None and not (math.isfinite(args.beta) and args.beta > 0.0):
            problems.append(f"--beta must be positive and finite, got {args.beta}")
        if args.r1 < 1 or (args.n >= 1 and args.r1 > args.n):
            problems.append(f"--r1 must lie in [1, n={args.n}], got {args.r1}")
        if args.r2 < 1 or (args.m >= 1 and args.r2 > args.m):
            problems.append(f"--r2 must lie in [1, m={args.m}], got {args.r2}")
        if args.replicates < 1:
            problems.append(f"--replicates must be >= 1, got {args.replicates}")
        manifest = RunManifest(
            command="coverage",
            alpha=args.alpha,
            beta=args.beta,
            n=args.n,
            m=args.m,
            r1=args.r1,
            r2=args.r2,
            method=args.method,
            level=args.level,
            replicates=args.replicates,
            seed=resolve_seed(),
            out_path=args.out,
            full_precision=args.full_precision,
        )

    if problems:
        raise UsageError("; ".join(problems))
    return manifest


def _format_float(value: float, full_precision: bool) -> str:
    return repr(float(value)) if full_precision else format(float(value), ".6g")


def _read_times_file(path: str) -> list[float]:
    times: list[float] = []
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    with handle:
        for lineno, row in enumerate(csv.reader(handle), start=1):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 1:
                raise InputError(f"{path}:{lineno}: expected one value per line, got {len(row)} fields")
            try:
                times.append(float(row[0]))
            except ValueError:
                raise InputError(f"{path}:{lineno}: not a number: {row[0].strip()!r}") from None
    if not times:
        raise InputError(f"{path}: no observations found")
    return times


def _load_sample(path: str, total_units: int, role: str, count_flag: str) -> CensoredSample:
    times = _read_times_file(path)
    if len(times) > total_units:
        raise InputError(
            f"{path}: {len(times)} observed {role} failures exceed {count_flag}={total_units} total units"
        )
    try:
        return CensoredSample.from_times(times, total_units)
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def _dump_sample(path: str, sample: CensoredSample) -> None:
    with open(path, "w", newline="") as handle:
        for t in sample.ordered_times:
            handle.write(f"{t!r}\n")


def _load_grid(path: str, manifest: RunManifest) -> list[SimCellConfig]:
    try:
        handle = open(path, newline="")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    configs: list[SimCellConfig] = []
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header is None or tuple(name.strip() for name in header) != GRID_COLUMNS:
            raise InputError(f"{path}: header must be exactly {','.join(GRID_COLUMNS)}")
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(GRID_COLUMNS):
                raise InputError(
                    f"{path}:{lineno}: expected {len(GRID_COLUMNS)} columns, got {len(row)}"
                )
            try:
                m, n = int(row[0]), int(row[1])
                r1, r2 = int(row[2]), int(row[3])
                alpha, beta = float(row[4]), float(row[5])
                replicates = int(row[6])
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from None
            try:
                configs.append(
                    SimCellConfig(
                        params=ExponentialScales(alpha, beta),
                        n=n,
                        m=m,
                        r1=r1,
                        r2=r2,
                        replicates=replicates,
                        seed=manifest.seed,
                        prior_strength=manifest.prior_strength,
                        prior_stress=manifest.prior_stress,
                    )
                )
            except ValueError as exc:
                raise InputError(f"{path}:{lineno}: {exc}") from exc
    if not configs:
        raise InputError(f"{path}: no cells found")
    return configs


def _umask() -> int:
    mask = os.umask(0)
    os.umask(mask)
    return mask


@contextmanager
def _output(path: str | None):
    """The results stream: stdout, or a temporary file beside ``path``.

    The file is created before the caller starts any work, so an unwritable
    destination fails at once, and it replaces ``path`` only when the block
    completes, so a failed or interrupted run leaves no partial table.
    """
    if path is None:
        yield sys.stdout
        return
    if os.path.isdir(path):
        raise InputError(f"cannot write {path}: it is a directory")
    try:
        fd, temp = tempfile.mkstemp(dir=os.path.dirname(path) or ".",
                                    prefix=f".{os.path.basename(path)}.", suffix=".tmp")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc
    try:
        os.fchmod(fd, 0o666 & ~_umask())  # the mode open() would have given
        with os.fdopen(fd, "w", newline="") as handle:
            yield handle
        try:
            os.replace(temp, path)
        except OSError as exc:
            raise InputError(f"cannot write {path}: {exc}") from exc
    except BaseException:
        with suppress(OSError):
            os.unlink(temp)
        raise


def _execute_estimate(manifest: RunManifest) -> int:
    strength = _load_sample(manifest.strength_path, manifest.n, "strength", "--n")
    stress = _load_sample(manifest.stress_path, manifest.m, "stress", "--m")
    data = StressStrengthData(strength=strength, stress=stress)
    estimates = estimate_all(data, manifest.prior_strength, manifest.prior_stress)
    for name, value in (
        ("R1_mle", estimates.r1_mle),
        ("R2_umvue", estimates.r2_umvue),
        ("R3_bayes_conjugate", estimates.r3_bayes_conjugate),
        ("R4_bayes_noninf", estimates.r4_bayes_noninf),
    ):
        print(f"{name} {_format_float(value, manifest.full_precision)}")
    if manifest.dump_strength_path is not None:
        _dump_sample(manifest.dump_strength_path, strength)
    if manifest.dump_stress_path is not None:
        _dump_sample(manifest.dump_stress_path, stress)
    return 0


def _execute_ci(manifest: RunManifest) -> int:
    strength = _load_sample(manifest.strength_path, manifest.n, "strength", "--n")
    stress = _load_sample(manifest.stress_path, manifest.m, "stress", "--m")
    data = StressStrengthData(strength=strength, stress=stress)
    interval_of = asymptotic_ci if manifest.method == "asymptotic" else exact_ci
    interval = interval_of(data, manifest.level)
    print(f"lower {_format_float(interval.lower, manifest.full_precision)}")
    print(f"upper {_format_float(interval.upper, manifest.full_precision)}")
    print(f"level {_format_float(interval.level, manifest.full_precision)}")
    print(f"method {interval.method}")
    return 0


def _execute_simulate(manifest: RunManifest) -> int:
    configs = _load_grid(manifest.grid_path, manifest)
    failures = 0

    def fmt(value: float) -> str:
        return _format_float(value, manifest.full_precision)

    with _output(manifest.out_path) as out:
        entries = run_grid(configs, workers=manifest.workers)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(RESULT_COLUMNS)
        for index, entry in enumerate(entries):
            if isinstance(entry, CellFailure):
                failures += 1
                cell = entry.config
                print(
                    f"cell {index + 1} (m={cell.m}, n={cell.n}, r1={cell.r1}, "
                    f"r2={cell.r2}): {entry.message}",
                    file=sys.stderr,
                )
                continue
            cell = entry.config
            means = entry.mean_estimates
            writer.writerow(
                [
                    str(cell.m), str(cell.n), str(cell.r1), str(cell.r2),
                    fmt(cell.params.alpha), fmt(cell.params.beta), fmt(entry.true_r),
                    fmt(means.r1_mle), fmt(entry.mse[0]),
                    fmt(means.r2_umvue), fmt(entry.mse[1]),
                    fmt(means.r3_bayes_conjugate), fmt(entry.mse[2]),
                    fmt(means.r4_bayes_noninf), fmt(entry.mse[3]),
                    fmt(entry.mc_stderr[0]), fmt(entry.mc_stderr[1]),
                    fmt(entry.mc_stderr[2]), fmt(entry.mc_stderr[3]),
                ]
            )
    return 1 if failures else 0


def _execute_coverage(manifest: RunManifest) -> int:
    config = SimCellConfig(
        params=ExponentialScales(manifest.alpha, manifest.beta),
        n=manifest.n,
        m=manifest.m,
        r1=manifest.r1,
        r2=manifest.r2,
        replicates=manifest.replicates,
        seed=manifest.seed,
        level=manifest.level,
    )
    with _output(manifest.out_path) as out:
        result = run_coverage(config, manifest.method)
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(COVERAGE_COLUMNS)
        writer.writerow(
            [
                result.method,
                _format_float(manifest.level, manifest.full_precision),
                _format_float(result.coverage, manifest.full_precision),
                _format_float(result.mean_width, manifest.full_precision),
            ]
        )
    return 0


def execute(manifest: RunManifest) -> int:
    """Run a validated manifest; returns the process exit status."""
    runner = {
        "estimate": _execute_estimate,
        "ci": _execute_ci,
        "simulate": _execute_simulate,
        "coverage": _execute_coverage,
    }[manifest.command]
    return runner(manifest)


def main(argv: list[str] | None = None) -> int:
    try:
        manifest = parse_manifest(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        return execute(manifest)
    except (InputError, SimulationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
