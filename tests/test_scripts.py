"""Study scripts: what they hand to the command line interface."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from helpers import fresh_draw_memo
from stress_strength import GammaPrior
from stress_strength.cli import main as cli_main, parse_manifest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestRunTableGrids:
    # The SHA-256 of the seven tables' bytes, in STUDIES order, written with
    # --full-precision at the default seed 42 and 20 replicates per cell.  A
    # change that moves any seeded bit of the study must change this digest
    # and say so.
    FULL_PRECISION_DIGEST = "30a408b188dbcc87b750e0a31b3924bc45d7cb067256fcad44cd0f74eefb712c"

    def run(self, monkeypatch, tmp_path):
        script = load_script("run_table_grids")
        manifests = []

        def fake_cli_main(argv):
            manifests.append(parse_manifest(argv))
            return 0

        monkeypatch.setattr(script, "cli_main", fake_cli_main)
        assert script.main(["--outdir", str(tmp_path), "--replicates", "3"]) == 0
        assert len(manifests) == 7
        assert {manifest.command for manifest in manifests} == {"simulate"}
        return script, manifests

    def test_default_priors_are_informative(self, monkeypatch, tmp_path):
        script, manifests = self.run(monkeypatch, tmp_path)
        assert script.PRIOR_STRENGTH == (2.0, 4.0)
        assert script.PRIOR_STRESS == (2.0, 5.0)
        for manifest in manifests:
            assert manifest.prior_strength == GammaPrior(*script.PRIOR_STRENGTH)
            assert manifest.prior_stress == GammaPrior(*script.PRIOR_STRESS)

    def test_real_run_writes_seven_tables_with_equal_copies(self, tmp_path):
        script = load_script("run_table_grids")
        argv = ["--outdir", str(tmp_path), "--replicates", "20", "--seed", "3"]
        assert script.main(argv) == 0
        tables = sorted(tmp_path.glob("table_*.csv"))
        assert len(tables) == 7
        for path in tables:
            _, *rows = [line.split(",") for line in path.read_text().splitlines()]
            layout = script.EQUAL_ROWS if path.name.startswith("table_equal") else script.UNEQUAL_ROWS
            assert [tuple(int(v) for v in row[:4]) for row in rows] == layout
            assert len(rows) in (17, 21)
            # Rows with equal (r1, r2) are one experiment: only m and n differ.
            by_counts = {}
            for row in rows:
                by_counts.setdefault((row[2], row[3]), []).append(row[2:])
            assert any(len(copies) > 1 for copies in by_counts.values())
            for copies in by_counts.values():
                assert all(copy == copies[0] for copy in copies)

    def test_draws_each_shared_array_once(self, monkeypatch, tmp_path):
        # Every cell has one seed and one replicate count, so the study reads
        # one strength array per distinct r1 and one stress array per r2.
        calls = fresh_draw_memo(monkeypatch)
        script = load_script("run_table_grids")
        argv = ["--outdir", str(tmp_path), "--replicates", "20", "--seed", "3"]
        assert script.main(argv) == 0
        layouts = [script.EQUAL_ROWS, script.UNEQUAL_ROWS]
        distinct = sum(len({row[i] for rows in layouts for row in rows}) for i in (2, 3))
        assert len(calls) == distinct == 38

    def test_seeded_full_precision_tables_are_unchanged(self, monkeypatch, tmp_path):
        script = load_script("run_table_grids")
        monkeypatch.setattr(script, "cli_main", lambda argv: cli_main([*argv, "--full-precision"]))
        assert script.main(["--outdir", str(tmp_path), "--replicates", "20"]) == 0
        digest = hashlib.sha256()
        for tag, _, scale_pairs in script.STUDIES:
            for alpha, beta in scale_pairs:
                digest.update((tmp_path / f"table_{tag}_alpha{alpha:g}_beta{beta:g}.csv").read_bytes())
        assert digest.hexdigest() == self.FULL_PRECISION_DIGEST


class TestRunCoverageStudy:
    def test_writes_header_and_twelve_rows(self, tmp_path):
        out = tmp_path / "coverage.csv"
        script = load_script("run_coverage_study")
        assert script.main(["--out", str(out), "--replicates", "20"]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "method,n,m,r1,r2,level,coverage,mean_width"
        assert len(lines) == 13
        assert [line.split(",")[:2] for line in lines[1:]] == [
            [method, str(size)] for method in ("exact", "asymptotic") for size in script.SIZES
        ]

    def test_draws_each_shared_array_once(self, monkeypatch, tmp_path):
        # Both methods run the same six cells of one seed: each cell's two
        # standard gamma arrays are drawn once, not once per method.
        calls = fresh_draw_memo(monkeypatch)
        script = load_script("run_coverage_study")
        assert script.main(["--out", str(tmp_path / "coverage.csv"), "--replicates", "20"]) == 0
        assert len(calls) == 12

    def test_crash_leaves_earlier_table_untouched(self, monkeypatch, tmp_path):
        out = tmp_path / "coverage.csv"
        out.write_bytes(b"earlier table\n")
        script = load_script("run_coverage_study")
        real_run_coverage = script.run_coverage
        calls = []

        def crash_on_third(config, method):
            calls.append(method)
            if len(calls) == 3:
                raise RuntimeError("synthetic crash")
            return real_run_coverage(config, method)

        monkeypatch.setattr(script, "run_coverage", crash_on_third)
        with pytest.raises(RuntimeError, match="synthetic crash"):
            script.main(["--out", str(out), "--replicates", "20"])
        assert out.read_bytes() == b"earlier table\n"
