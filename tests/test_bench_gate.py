"""The benchmark's correctness gate on its generated workloads.

`bench/run.py` fails a run when a pass's machine report differs from the
golden report in `bench/expected/`, or when gq raises inside a pass. This
runs the same gate once per program, on the seeds that cover both torus
orientations of the `lattice` workload.
"""

import contextlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from gq.cli import main as cli_main

PROGRAMS = Path(__file__).resolve().parents[1] / "bench" / "programs.py"


def _bench_programs(monkeypatch):
    """`bench/programs.py`, loaded without writing its bytecode cache."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_programs", PROGRAMS)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)    # its dataclass looks itself up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload,seed", [("lattice", 0), ("lattice", 1), ("symbolic", 0)])
def test_generated_programs_match_goldens(tmp_path, monkeypatch, workload, seed):
    monkeypatch.chdir(tmp_path)
    pg = _bench_programs(monkeypatch)
    pg.REPORTS.mkdir(parents=True)
    for p in pg.generate(workload, seed):
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli_main(p.argv()) == 0, p.name
        golden = pg.golden_path(workload, p).read_bytes()
        _, failed, reasons = pg.compare(p.report.read_bytes(), golden, p.gq_seed)
        assert failed == 0, (p.name, reasons)
