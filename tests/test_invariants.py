"""Each range rule is written in one place in the library, and the command
line reports the kernels' checks at the numeric edge as before."""

import re
from pathlib import Path

import pytest

import stress_strength.cli as cli

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "stress_strength").glob("*.py"))

# The library's message of each rule.  The command line reports its own
# flags' violations at once under messages that begin with the flag
# ("--level must lie in (0, 1)"), so a template preceded by "-" is not one.
TEMPLATES = [
    "must lie strictly inside (0, 1)",
    "must lie in [0, 1]",
    "bounds must satisfy",
    "method must be one of",
    "must be a positive integer",
    "level must lie in (0, 1)",
]


@pytest.mark.parametrize("template", TEMPLATES)
def test_each_rule_is_written_once(template):
    pattern = re.compile(r"(?<![-\w])" + re.escape(template))
    places = []
    for path in SOURCES:
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            places += [f"{path.name}:{number}"] * len(pattern.findall(line))
    assert len(places) == 1, f"{template!r} is written at {places}"


class TestCommandLineAtTheEdge:
    # A strength total of 1e20 against a stress total of 1 puts the MLE's
    # odds against R at 1e-20, so R1 rounds to 1.
    def paths(self, tmp_path):
        (tmp_path / "x.csv").write_text("1e20\n")
        (tmp_path / "y.csv").write_text("1.0\n")
        return ["--strength", str(tmp_path / "x.csv"), "--stress", str(tmp_path / "y.csv"),
                "--n", "1", "--m", "1"]

    def test_estimate_reports_the_first_estimate_out_of_range(self, tmp_path, capsys):
        assert cli.main(["estimate", *self.paths(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: r1_mle must lie strictly inside (0, 1), got 1.0\n"

    def test_exact_interval_is_the_point_one(self, tmp_path, capsys):
        argv = ["ci", *self.paths(tmp_path), "--method", "exact", "--full-precision"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[:2] == ["lower 1.0", "upper 1.0"]
