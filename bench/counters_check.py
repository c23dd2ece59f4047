"""Repeat-exact check of the traced counters.

    python3 bench/counters_check.py [SEED]

Runs the traced `lattice` and `symbolic` workloads twice with one seed, each
time in fresh processes, and exits 1 unless every `*.calls` value and every
counter is identical across the two runs.  Self times are not compared.
Run from the root of the repository; it takes about two minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer as tr  # noqa: E402


def traced_counts(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"traced {workload} run exited {proc.returncode}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: m["value"] for name, m in metrics.items()
            if name.endswith(".calls") or name in tr.COUNTERS}


def main(argv):
    seed = int(argv[0]) if argv else 7
    differences = []
    for workload in ("lattice", "symbolic"):
        first, second = traced_counts(workload, seed), traced_counts(workload, seed)
        differences += [f"{workload} {name}: {first[name]} != {second[name]}"
                        for name in first if first[name] != second[name]]
        print(f"{workload}: {len(first)} calls and counters compared, "
              f"{sum(first[n] != second[n] for n in first)} differ")
    for d in differences:
        print(d)
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
