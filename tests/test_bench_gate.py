"""The benchmark's correctness gate on its generated workloads.

`bench/run.py` fails a run when a pass's machine report differs from the
golden report in `bench/expected/`, or when gq raises inside a pass. This
runs the same gate on every program for a few consecutive passes in one
process, as `bench/worker.py` does, on the seeds that cover both torus
orientations of the `lattice` workload and on the shipped suite.
"""

import contextlib
import importlib.util
import io
import shutil
import sys
from pathlib import Path

import pytest

from gq.cli import main as cli_main

BENCH = Path(__file__).resolve().parents[1] / "bench"
SUITE = BENCH.parent / "suite"
PASSES = 3     # state left behind by one pass would show in the next


def _load(monkeypatch, name, path):
    """The module at `path`, loaded without writing its bytecode cache; it
    leaves `sys.modules` and `sys.path` as they were when the test ends."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload,seed",
                         [("lattice", 0), ("lattice", 1), ("symbolic", 0), ("suite", 0)])
def test_generated_programs_match_goldens(tmp_path, monkeypatch, workload, seed):
    if workload == "suite":
        shutil.copytree(SUITE, tmp_path / "suite")
    monkeypatch.chdir(tmp_path)
    pg = _load(monkeypatch, "bench_programs", BENCH / "programs.py")
    pg.REPORTS.mkdir(parents=True)
    programs = pg.generate(workload, seed)
    for n in range(PASSES):
        for p in programs:
            p.report.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli_main(p.argv()) == 0, (n, p.name)
            golden = pg.golden_path(workload, p).read_bytes()
            _, failed, reasons = pg.compare(p.report.read_bytes(), golden, p.gq_seed)
            assert failed == 0, (n, p.name, reasons)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "Speedometer.slowdown is None over an interval with no kernel tick, so a "
    "pass shorter than KERNEL_PERIOD_S makes bench/run.py divide by None"))
def test_speedometer_slowdown_is_defined_without_a_tick(monkeypatch):
    _load(monkeypatch, "programs", BENCH / "programs.py")    # worker.py imports it by this name
    worker = _load(monkeypatch, "bench_worker", BENCH / "worker.py")
    s = worker.Speedometer()
    assert s.slowdown(s.mark()) is not None
