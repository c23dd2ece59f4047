"""One-off baseline sweep, kept out of the timed workloads because it is slow.

    python3 bench/baseline.py [OUT]

Run from the root of the repository, single-threaded like the benchmark.
Measures once:
- torus m x m lattice models with the so(3) fiber, m = 3, 6, 8:
  `lattice_model` and `cohomology_pairing` times, cochain and cohomology dims;
- `apath.integrate` on `suite/data/path_a.apath` at 10^4 and 10^5 steps.
Writes JSON to OUT (default `bench/results/baseline_sweep.json`).
"""

from __future__ import annotations

import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import THREAD_VARS  # noqa: E402

for var in THREAD_VARS:
    os.environ[var] = "1"
sys.path.insert(0, "src")

import numpy  # noqa: E402
import scipy  # noqa: E402

from gq import apath, complexes, extensions  # noqa: E402


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def main(argv):
    out_path = Path(argv[0]) if argv else HERE / "results" / "baseline_sweep.json"
    torus = []
    for m in (3, 6, 8):
        R, build_s = timed(complexes.lattice_model, ("torus", m, m), extensions.so3())
        cp, pairing_s = timed(complexes.cohomology_pairing, R.total)
        row = {"mesh": f"{m}x{m}", "cochain_dims": [R.total.dim(k) for k in range(3)],
               "h_dims": [cp.dims.get(k, 0) for k in range(3)],
               "lattice_model_s": build_s, "cohomology_pairing_s": pairing_s}
        torus.append(row)
        print(json.dumps(row))
    path = apath.load_apath(Path("suite/data/path_a.apath"))
    rk4 = []
    for steps in (10_000, 100_000):
        _, seconds = timed(apath.integrate, path, steps)
        rk4.append({"path": "suite/data/path_a.apath", "steps": steps, "integrate_s": seconds})
        print(json.dumps(rk4[-1]))
    record = {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "threads": dict.fromkeys(THREAD_VARS, "1"), "repeats": 1,
        "torus_so3": torus, "integrate": rk4,
    }
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
