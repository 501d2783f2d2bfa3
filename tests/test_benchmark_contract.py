"""The benchmark in ``perfbench/`` still runs against this checkout.

Each workload calls the package only through public names; a name it
needs that the package no longer has shows up here as a failed operation
or a failed output check, not first in a benchmark run.
"""

import importlib
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["paper-tables", "large-r", "coverage-sweep", "datasets"])
def test_workload_round_runs_and_checks(perfbench, monkeypatch, tmp_path, name):
    workloads, tracing = perfbench
    monkeypatch.setattr(sys, "path", list(sys.path))  # import_package prepends src
    package = workloads.import_package(ROOT)
    workload = workloads.CLASSES[name](package, 11, tmp_path)
    workload.run_round(0)
    assert workload.tally.failed == 0
    assert workload.tally.attempted > 0
    assert workload.check() == []
    # Installing the trace wrappers must not fail on this version of the
    # package; the originals are put back when the test ends.
    for module_name, attr, _ in tracing.SITES:
        module = importlib.import_module(module_name)
        if hasattr(module, attr):
            monkeypatch.setattr(module, attr, getattr(module, attr))
    tracing.install(tracing.Tracer())
