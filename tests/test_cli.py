"""Command line interface: parsing, execution, formats, exit codes."""

import csv
import subprocess
import sys

import pytest

import stress_strength.cli as cli
from helpers import kill_worker_on
from stress_strength import (
    NONINFORMATIVE,
    CensoredSample,
    ExponentialScales,
    GammaPrior,
    SimCellConfig,
    StressStrengthData,
    estimate_all,
    exact_ci,
    run_coverage,
    run_grid,
)
from stress_strength.cli import (
    COVERAGE_COLUMNS,
    RESULT_COLUMNS,
    SEED_ENV_VAR,
    UsageError,
    parse_manifest,
)
from stress_strength.simulation import CellFailure, SimulationError


def write_times(path, values):
    path.write_text("".join(f"{v}\n" for v in values))
    return str(path)


def write_grid(path, rows):
    lines = ["m,n,r1,r2,alpha,beta,replicates"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def parse_keyed_lines(text):
    pairs = (line.split(" ", 1) for line in text.strip().splitlines())
    return {key: value for key, value in pairs}


class TestParseManifest:
    def test_estimate_manifest(self):
        manifest = parse_manifest([
            "estimate", "--strength", "a.csv", "--stress", "b.csv",
            "--n", "10", "--m", "12", "--prior-strength", "2.0", "1.5",
        ])
        assert manifest.command == "estimate"
        assert manifest.strength_path == "a.csv"
        assert manifest.n == 10 and manifest.m == 12
        assert manifest.prior_strength == GammaPrior(2.0, 1.5)
        assert manifest.prior_stress == NONINFORMATIVE
        assert not manifest.full_precision

    def test_ci_manifest(self):
        manifest = parse_manifest([
            "ci", "--strength", "a.csv", "--stress", "b.csv",
            "--n", "5", "--m", "5", "--method", "exact", "--level", "0.9",
        ])
        assert manifest.command == "ci"
        assert manifest.method == "exact"
        assert manifest.level == 0.9

    def test_simulate_manifest(self):
        manifest = parse_manifest([
            "simulate", "--grid", "g.csv", "--out", "r.csv",
            "--seed", "7", "--workers", "3",
        ])
        assert manifest.command == "simulate"
        assert manifest.grid_path == "g.csv"
        assert manifest.out_path == "r.csv"
        assert manifest.seed == 7
        assert manifest.workers == 3

    def test_coverage_manifest(self):
        manifest = parse_manifest([
            "coverage", "--alpha", "2", "--beta", "3", "--n", "10", "--m", "10",
            "--r1", "8", "--r2", "8", "--method", "asymptotic",
            "--replicates", "500", "--seed", "4",
        ])
        assert manifest.command == "coverage"
        assert manifest.alpha == 2.0 and manifest.beta == 3.0
        assert manifest.r1 == 8 and manifest.r2 == 8
        assert manifest.replicates == 500

    def test_collects_every_violation_at_once(self):
        with pytest.raises(UsageError) as excinfo:
            parse_manifest([
                "coverage", "--alpha", "-1", "--beta", "3", "--n", "10", "--m", "10",
                "--r1", "12", "--r2", "8", "--method", "bootstrap", "--level", "1.5",
            ])
        message = str(excinfo.value)
        assert "--alpha" in message
        assert "--r1" in message
        assert "--method" in message
        assert "--level" in message

    def test_rejects_r1_beyond_n(self):
        with pytest.raises(UsageError, match=r"--r1 must lie in \[1, n=10\]"):
            parse_manifest([
                "coverage", "--alpha", "2", "--beta", "3", "--n", "10", "--m", "10",
                "--r1", "11", "--r2", "8", "--method", "exact",
            ])

    def test_missing_required_argument_exits_two(self):
        with pytest.raises(SystemExit) as excinfo:
            parse_manifest(["estimate", "--strength", "a.csv"])
        assert excinfo.value.code == 2

    def test_seed_falls_back_to_environment(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        manifest = parse_manifest(["simulate", "--grid", "g.csv"])
        assert manifest.seed == 99

    def test_explicit_seed_overrides_environment(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "99")
        manifest = parse_manifest(["simulate", "--grid", "g.csv", "--seed", "5"])
        assert manifest.seed == 5

    def test_garbled_environment_seed_is_a_usage_error(self, monkeypatch):
        monkeypatch.setenv(SEED_ENV_VAR, "many")
        with pytest.raises(UsageError, match=SEED_ENV_VAR):
            parse_manifest(["simulate", "--grid", "g.csv"])

    @pytest.mark.parametrize("command", [
        ["simulate", "--grid", "g.csv"],
        ["coverage", "--alpha", "2", "--beta", "3", "--n", "10", "--m", "10",
         "--r1", "8", "--r2", "8", "--method", "exact"],
    ])
    def test_seed_beyond_64_bits_is_a_usage_error(self, command, monkeypatch):
        with pytest.raises(UsageError, match=r"--seed must lie in \[0, 2\*\*64\)"):
            parse_manifest(command + ["--seed", str(2**64)])
        assert parse_manifest(command + ["--seed", str(2**64 - 1)]).seed == 2**64 - 1
        monkeypatch.setenv(SEED_ENV_VAR, str(2**64))
        with pytest.raises(UsageError, match=SEED_ENV_VAR):
            parse_manifest(command)

    def test_negative_prior_is_a_usage_error(self):
        with pytest.raises(UsageError, match="--prior-strength"):
            parse_manifest([
                "estimate", "--strength", "a.csv", "--stress", "b.csv",
                "--n", "5", "--m", "5", "--prior-strength", "-1", "0.5",
            ])


class TestEstimateCommand:
    def test_symmetric_files_give_half_everywhere(self, tmp_path, capsys):
        strength = write_times(tmp_path / "x.csv", [1.0, 2.0, 3.0])
        stress = write_times(tmp_path / "y.csv", [1.0, 2.0, 3.0])
        rc = cli.main(["estimate", "--strength", strength, "--stress", stress,
                       "--n", "5", "--m", "5"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines] == [
            "R1_mle", "R2_umvue", "R3_bayes_conjugate", "R4_bayes_noninf",
        ]
        assert all(line.split()[1] == "0.5" for line in lines)

    def test_full_precision_matches_library(self, tmp_path, capsys):
        strength = write_times(tmp_path / "x.csv", [0.7, 2.1, 0.4])
        stress = write_times(tmp_path / "y.csv", [1.9, 0.8])
        rc = cli.main(["estimate", "--strength", strength, "--stress", stress,
                       "--n", "6", "--m", "4", "--full-precision",
                       "--prior-strength", "2.0", "1.5"])
        assert rc == 0
        printed = parse_keyed_lines(capsys.readouterr().out)
        data = StressStrengthData(
            strength=CensoredSample.from_times([0.7, 2.1, 0.4], 6),
            stress=CensoredSample.from_times([1.9, 0.8], 4),
        )
        expected = estimate_all(data, GammaPrior(2.0, 1.5), NONINFORMATIVE)
        assert float(printed["R1_mle"]) == expected.r1_mle
        assert float(printed["R2_umvue"]) == expected.r2_umvue
        assert float(printed["R3_bayes_conjugate"]) == expected.r3_bayes_conjugate
        assert float(printed["R4_bayes_noninf"]) == expected.r4_bayes_noninf

    def test_dump_round_trips(self, tmp_path, capsys):
        strength = write_times(tmp_path / "x.csv", [2.1, 0.7, 0.4])
        stress = write_times(tmp_path / "y.csv", [1.9, 0.8])
        dumped = tmp_path / "sorted.csv"
        cli.main(["estimate", "--strength", strength, "--stress", stress,
                  "--n", "6", "--m", "4", "--dump-strength", str(dumped)])
        first = capsys.readouterr().out
        assert dumped.read_text() == "0.4\n0.7\n2.1\n"
        rc = cli.main(["estimate", "--strength", str(dumped), "--stress", stress,
                       "--n", "6", "--m", "4"])
        assert rc == 0
        assert capsys.readouterr().out == first

    def test_more_observations_than_units_exits_one(self, tmp_path, capsys):
        strength = write_times(tmp_path / "x.csv", [1.0, 2.0, 3.0])
        stress = write_times(tmp_path / "y.csv", [1.0])
        rc = cli.main(["estimate", "--strength", strength, "--stress", stress,
                       "--n", "2", "--m", "1"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "--n=2" in err

    def test_bad_value_names_file_and_line(self, tmp_path, capsys):
        bad = tmp_path / "x.csv"
        bad.write_text("1.0\npotato\n")
        stress = write_times(tmp_path / "y.csv", [1.0])
        rc = cli.main(["estimate", "--strength", str(bad), "--stress", stress,
                       "--n", "3", "--m", "1"])
        assert rc == 1
        assert f"{bad}:2: not a number: 'potato'" in capsys.readouterr().err

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        strength = tmp_path / "x.csv"
        strength.write_text("1.0\n\n2.0\n\n")
        stress = write_times(tmp_path / "y.csv", [1.0, 2.0])
        rc = cli.main(["estimate", "--strength", str(strength), "--stress", str(stress),
                       "--n", "2", "--m", "2"])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[0] == "R1_mle 0.5"

    def test_missing_file_exits_one(self, tmp_path, capsys):
        stress = write_times(tmp_path / "y.csv", [1.0])
        rc = cli.main(["estimate", "--strength", str(tmp_path / "absent.csv"),
                       "--stress", stress, "--n", "2", "--m", "1"])
        assert rc == 1
        assert "cannot read" in capsys.readouterr().err


class TestCiCommand:
    def test_full_precision_matches_library(self, tmp_path, capsys):
        strength = write_times(tmp_path / "x.csv", [0.7, 2.1, 0.4, 1.1])
        stress = write_times(tmp_path / "y.csv", [1.9, 0.8, 0.3])
        rc = cli.main(["ci", "--strength", strength, "--stress", stress,
                       "--n", "6", "--m", "5", "--method", "exact",
                       "--level", "0.9", "--full-precision"])
        assert rc == 0
        printed = parse_keyed_lines(capsys.readouterr().out)
        data = StressStrengthData(
            strength=CensoredSample.from_times([0.7, 2.1, 0.4, 1.1], 6),
            stress=CensoredSample.from_times([1.9, 0.8, 0.3], 5),
        )
        interval = exact_ci(data, 0.9)
        assert float(printed["lower"]) == interval.lower
        assert float(printed["upper"]) == interval.upper
        assert float(printed["level"]) == 0.9
        assert printed["method"] == "exact"

    def test_asymptotic_method_is_selectable(self, tmp_path, capsys):
        strength = write_times(tmp_path / "x.csv", [0.7, 2.1])
        stress = write_times(tmp_path / "y.csv", [1.9, 0.8])
        rc = cli.main(["ci", "--strength", strength, "--stress", stress,
                       "--n", "3", "--m", "3", "--method", "asymptotic"])
        assert rc == 0
        assert parse_keyed_lines(capsys.readouterr().out)["method"] == "asymptotic"

    def test_unknown_method_exits_two(self, tmp_path, capsys):
        rc = cli.main(["ci", "--strength", "a.csv", "--stress", "b.csv",
                       "--n", "3", "--m", "3", "--method", "bootstrap"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:")
        assert "--method" in err


class TestSimulateCommand:
    def test_grid_runs_and_matches_library(self, tmp_path, capsys):
        grid = write_grid(tmp_path / "g.csv", [
            (10, 10, 8, 8, 2.0, 3.0, 20),
            (5, 8, 4, 3, 2.0, 6.0, 20),
        ])
        rc = cli.main(["simulate", "--grid", grid, "--seed", "11", "--full-precision"])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert tuple(rows[0]) == RESULT_COLUMNS
        assert len(rows) == 3
        assert [row[:4] for row in rows[1:]] == [
            ["10", "10", "8", "8"], ["5", "8", "4", "3"],
        ]
        configs = [
            SimCellConfig(ExponentialScales(2.0, 3.0), n=10, m=10, r1=8, r2=8,
                          replicates=20, seed=11),
            SimCellConfig(ExponentialScales(2.0, 6.0), n=8, m=5, r1=4, r2=3,
                          replicates=20, seed=11),
        ]
        for row, expected in zip(rows[1:], run_grid(configs)):
            assert float(row[6]) == expected.true_r
            assert float(row[7]) == expected.mean_estimates.r1_mle
            assert float(row[8]) == expected.mse[0]
            assert float(row[13]) == expected.mean_estimates.r4_bayes_noninf
            assert float(row[18]) == expected.mc_stderr[3]

    def test_output_file_is_deterministic_across_workers(self, tmp_path):
        grid = write_grid(tmp_path / "g.csv", [
            (6, 6, 4, 4, 2.0, 3.0, 15),
            (6, 6, 5, 5, 2.0, 3.0, 15),
        ])
        outputs = []
        for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
            out = tmp_path / f"{tag}.csv"
            rc = cli.main(["simulate", "--grid", grid, "--seed", "3",
                           "--out", str(out), "--workers", workers])
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_environment_seed_matches_explicit_flag(self, tmp_path, monkeypatch):
        grid = write_grid(tmp_path / "g.csv", [(6, 6, 4, 4, 2.0, 3.0, 10)])
        explicit = tmp_path / "explicit.csv"
        cli.main(["simulate", "--grid", grid, "--seed", "21", "--out", str(explicit)])
        monkeypatch.setenv(SEED_ENV_VAR, "21")
        from_env = tmp_path / "env.csv"
        cli.main(["simulate", "--grid", grid, "--out", str(from_env)])
        assert explicit.read_bytes() == from_env.read_bytes()

    def test_wrong_header_exits_one(self, tmp_path, capsys):
        grid = tmp_path / "g.csv"
        grid.write_text("n,m,r1,r2,alpha,beta,replicates\n5,5,3,3,1,1,5\n")
        rc = cli.main(["simulate", "--grid", str(grid)])
        assert rc == 1
        assert "header must be exactly" in capsys.readouterr().err

    def test_bad_row_names_line_number(self, tmp_path, capsys):
        grid = tmp_path / "g.csv"
        grid.write_text("m,n,r1,r2,alpha,beta,replicates\n5,5,3,3,2.0,3.0,10\n5,5,three,3,2.0,3.0,10\n")
        rc = cli.main(["simulate", "--grid", str(grid)])
        assert rc == 1
        assert f"{grid}:3:" in capsys.readouterr().err

    def test_infeasible_cell_names_line_number(self, tmp_path, capsys):
        grid = write_grid(tmp_path / "g.csv", [(5, 5, 9, 3, 2.0, 3.0, 10)])
        rc = cli.main(["simulate", "--grid", str(grid)])
        assert rc == 1
        assert f"{grid}:2:" in capsys.readouterr().err

    def test_empty_grid_exits_one(self, tmp_path, capsys):
        grid = write_grid(tmp_path / "g.csv", [])
        rc = cli.main(["simulate", "--grid", str(grid)])
        assert rc == 1
        assert "no cells found" in capsys.readouterr().err

    def test_failed_cell_goes_to_stderr_not_the_table(self, tmp_path, capsys, monkeypatch):
        grid = write_grid(tmp_path / "g.csv", [
            (6, 6, 4, 4, 2.0, 3.0, 10),
            (6, 6, 5, 5, 2.0, 3.0, 10),
        ])
        real_run_grid = cli.run_grid

        def sabotaged(configs, workers=1):
            results = real_run_grid(configs, workers=workers)
            return [CellFailure(configs[0], "replicate 0 failed: synthetic"), results[1]]

        monkeypatch.setattr(cli, "run_grid", sabotaged)
        rc = cli.main(["simulate", "--grid", grid])
        captured = capsys.readouterr()
        assert rc == 1
        assert "cell 1 (m=6, n=6, r1=4, r2=4): replicate 0 failed: synthetic" in captured.err
        rows = list(csv.reader(captured.out.splitlines()))
        assert len(rows) == 2
        assert rows[1][:4] == ["6", "6", "5", "5"]

    def test_dead_worker_exits_one_with_a_message(self, tmp_path, capsys, monkeypatch):
        grid = write_grid(tmp_path / "g.csv", [
            (6, 6, 4, 4, 2.0, 3.0, 10),
            (6, 6, 5, 5, 2.0, 3.0, 10),
            (6, 6, 3, 3, 2.0, 3.0, 10),
        ])
        kill_worker_on(monkeypatch, lambda config: config.r1 == 5)
        rc = cli.main(["simulate", "--grid", grid, "--workers", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "cell 2 (m=6, n=6, r1=5, r2=5): worker process died: " in captured.err
        assert "Traceback" not in captured.err
        assert list(csv.reader(captured.out.splitlines()))[0] == list(RESULT_COLUMNS)

    def test_seed_beyond_64_bits_exits_two_before_any_cell(self, tmp_path, capsys, monkeypatch):
        grid = write_grid(tmp_path / "g.csv", [(6, 6, 4, 4, 2.0, 3.0, 10)])
        monkeypatch.setattr(cli, "run_grid", self.must_not_run)
        rc = cli.main(["simulate", "--grid", grid, "--seed", str(2**64)])
        assert rc == 2
        assert "usage error: --seed" in capsys.readouterr().err

    @staticmethod
    def must_not_run(*args, **kwargs):
        raise AssertionError("the grid ran")

    def test_unwritable_out_exits_one_before_any_cell(self, tmp_path, capsys, monkeypatch):
        grid = write_grid(tmp_path / "g.csv", [(6, 6, 4, 4, 2.0, 3.0, 10)])
        monkeypatch.setattr(cli, "run_grid", self.must_not_run)
        out = tmp_path / "missing" / "dir" / "x.csv"
        rc = cli.main(["simulate", "--grid", grid, "--out", str(out)])
        assert rc == 1
        assert f"cannot write {out}" in capsys.readouterr().err
        rc = cli.main(["simulate", "--grid", grid, "--out", str(tmp_path)])
        assert rc == 1
        assert "is a directory" in capsys.readouterr().err

    def test_failed_run_leaves_earlier_table_untouched(self, tmp_path, monkeypatch):
        grid = write_grid(tmp_path / "g.csv", [(6, 6, 4, 4, 2.0, 3.0, 10)])
        out = tmp_path / "x.csv"
        out.write_text("earlier table\n")
        argv = ["simulate", "--grid", grid, "--out", str(out)]
        faults = [SimulationError("synthetic"), KeyboardInterrupt()]

        def crash(configs, workers=1):
            raise faults.pop(0)

        monkeypatch.setattr(cli, "run_grid", crash)
        assert cli.main(argv) == 1
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
        assert out.read_text() == "earlier table\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "x.csv"]

    def test_out_file_gets_the_usual_permissions(self, tmp_path):
        grid = write_grid(tmp_path / "g.csv", [(6, 6, 4, 4, 2.0, 3.0, 5)])
        out = tmp_path / "x.csv"
        assert cli.main(["simulate", "--grid", grid, "--out", str(out)]) == 0
        reference = tmp_path / "reference"
        with open(reference, "w"):
            pass
        assert out.stat().st_mode == reference.stat().st_mode
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.csv", "reference", "x.csv"]


class TestCoverageCommand:
    def test_matches_library_run(self, capsys):
        rc = cli.main(["coverage", "--alpha", "2", "--beta", "3",
                       "--n", "10", "--m", "10", "--r1", "8", "--r2", "8",
                       "--method", "exact", "--replicates", "200",
                       "--seed", "13", "--full-precision"])
        assert rc == 0
        rows = list(csv.reader(capsys.readouterr().out.splitlines()))
        assert tuple(rows[0]) == COVERAGE_COLUMNS
        config = SimCellConfig(ExponentialScales(2.0, 3.0), n=10, m=10,
                               r1=8, r2=8, replicates=200, seed=13)
        expected = run_coverage(config, "exact")
        assert rows[1][0] == "exact"
        assert float(rows[1][1]) == 0.95
        assert float(rows[1][2]) == expected.coverage
        assert float(rows[1][3]) == expected.mean_width

    def test_unwritable_out_exits_one_before_the_run(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("the coverage study ran")

        monkeypatch.setattr(cli, "run_coverage", must_not_run)
        out = tmp_path / "missing" / "cov.csv"
        rc = cli.main(["coverage", "--alpha", "1", "--beta", "1", "--n", "5", "--m", "5",
                       "--r1", "4", "--r2", "4", "--method", "exact", "--out", str(out)])
        assert rc == 1
        assert f"cannot write {out}" in capsys.readouterr().err

    def test_writes_to_file(self, tmp_path):
        out = tmp_path / "cov.csv"
        rc = cli.main(["coverage", "--alpha", "1", "--beta", "1",
                       "--n", "5", "--m", "5", "--r1", "4", "--r2", "4",
                       "--method", "asymptotic", "--replicates", "50",
                       "--out", str(out)])
        assert rc == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert tuple(rows[0]) == COVERAGE_COLUMNS
        assert len(rows) == 2


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        strength = write_times(tmp_path / "x.csv", [1.0, 2.0])
        stress = write_times(tmp_path / "y.csv", [1.0, 2.0])
        proc = subprocess.run(
            [sys.executable, "-m", "stress_strength", "estimate",
             "--strength", strength, "--stress", stress, "--n", "2", "--m", "2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "R1_mle 0.5"

    def test_usage_error_exit_status(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stress_strength", "ci",
             "--strength", "a", "--stress", "b", "--n", "0", "--m", "3",
             "--method", "exact"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage error:")
        assert "--n" in proc.stderr
