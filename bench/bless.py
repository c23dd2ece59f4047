"""Write the golden machine reports the gate compares against.

    python3 bench/bless.py [WORKLOAD ...]

Run from the root of the repository.  Each workload's programs are generated
for seed 0 and run once; the reports, without timings, go to
`bench/expected/<workload>/`.  Nothing is written unless every verdict
agrees with `programs.PREDICTED`.  Re-bless only when a change to gq is
meant to change a report, and say so where the change is described.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, "src")

import programs as pg  # noqa: E402
from gq import cli  # noqa: E402


def bless(workload):
    programs = pg.generate(workload, 0)
    pg.REPORTS.mkdir(parents=True, exist_ok=True)
    goldens = {}
    for p in programs:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(p.argv())
        if code != 0:
            raise SystemExit(f"{workload}/{p.name}: gq run exited {code}")
        goldens[p.name] = pg.golden_bytes(p.report.read_bytes(), p.gq_seed)
    problems = pg.predicted_ok(workload, goldens)
    if problems:
        raise SystemExit(f"{workload}: " + "; ".join(problems))
    directory = pg.EXPECTED / workload
    directory.mkdir(parents=True, exist_ok=True)
    for name, raw in goldens.items():
        (directory / f"{name}.json").write_bytes(raw)
    print(f"{workload}: {len(goldens)} golden reports written")


if __name__ == "__main__":
    for w in sys.argv[1:] or pg.WORKLOADS:
        bless(w)
