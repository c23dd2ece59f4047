"""The gq benchmark: one workload, measured end to end or traced per layer.

    python3 bench/run.py --workload {suite,lattice,symbolic} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  The programs are generated from the seed
(see programs.py and README.md in this directory), then measured in fresh
single-threaded interpreters started by this script.  The end-to-end times
are seconds at a reference machine speed: each raw time is divided by the
slowdown of a fixed kernel timed through the same interval
(worker.Speedometer).

    setup_s      median over SETUP_REPEATS fresh interpreters of the time to
                 import gq and parse and bind every program
    wall_s       median time of one pass (parse, bind, every check, the text
                 and machine reports) in a warm process, over the passes that
                 fit in --seconds
    peak_rss_mb  ru_maxrss of a fresh process after its first pass
    fail_share   checks whose report differs from the golden one, over the
                 checks attempted; printed, and carried by `failed` and
                 `attempted` in the result line

With --trace 1 the result line carries the per-layer metrics instead: calls,
self time and counters for each wrapped function (tracer.py), and the
tracing overhead.  The last line of standard output is one JSON object.  The
exit code is 0 only if every check matched its golden report.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import programs as pg  # noqa: E402
import tracer as tr  # noqa: E402

SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(Path("src").resolve())
    return env


def run_child(args, deadline):
    """Run worker.py in a fresh interpreter; returns its JSON result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), *map(str, args)]
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def pass_time(samples, slowdowns=None):
    """Median over passes of the pass time; each sample holds per-program
    times, and is divided by its pass's slowdown if given."""
    slowdowns = slowdowns or [1.0] * len(samples)
    return statistics.median(sum(times) / s for times, s in zip(samples, slowdowns))


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=pg.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S

    if not (Path("src/gq/__init__.py").is_file() and pg.SUITE.is_dir()):
        raise SystemExit("run from the root of a gq checkout (src/gq and suite/ are missing)")

    programs = pg.generate(args.workload, args.seed)
    record = {
        "workload": args.workload, "seed": args.seed, "nproc": os.cpu_count(),
        "threads": dict.fromkeys(THREAD_VARS, "1"),
        "programs": [p.name for p in programs], "digest": pg.digest(programs),
    }

    setups = []
    if not args.trace:
        setups = [run_child(["setup", args.workload, args.seed], deadline)
                  for _ in range(SETUP_REPEATS)]
    res = run_child(["run", args.workload, args.seed, args.seconds, args.trace], deadline)

    walls = res["walls"]
    raw_wall, wall = pass_time(walls), pass_time(walls, res["slowdowns"])
    attempted, failed = res["attempted"], res["failed"]
    record.update(versions=res["versions"], walls=walls, slowdowns=res["slowdowns"],
                  warmup_s=res["warmup_s"], setups=setups, peak_rss_kb=res["peak_rss_kb"])

    print(f"# {args.workload}  seed {args.seed}  {len(programs)} programs  "
          f"digest {record['digest'][:16]}  nproc {record['nproc']}  "
          f"python {res['versions']['python']}  numpy {res['versions']['numpy']}  "
          f"scipy {res['versions']['scipy']}  threads pinned to 1")
    for reason in res["reasons"]:
        print(f"# FAIL {reason}")

    if not args.trace:
        metrics = {
            "setup_s": metric(statistics.median(s["setup_s"] / s["slowdown"] for s in setups),
                              "s"),
            "wall_s": metric(wall, "s"),
            "peak_rss_mb": metric(res["peak_rss_kb"] / 1024.0, "MB"),
        }
        notes = {"setup_s": f"median of {len(setups)} fresh interpreters; raw "
                            f"{statistics.median(s['setup_s'] for s in setups):.4f} s",
                 "wall_s": f"median of {len(walls)} passes; raw {raw_wall:.4f} s, slowdown "
                           f"{statistics.median(res['slowdowns']):.3f}",
                 "peak_rss_mb": "fresh process after one pass"}
        for name, m in metrics.items():
            print(f"{name:<12} {m['value']:>12.4f} {m['unit']:<4} {notes[name]}")
    else:
        traced = pass_time(res["traced_walls"], res["traced_slowdowns"])
        metrics = {}
        for name in tr.FUNCTIONS:
            metrics[f"{name}.calls"] = metric(res["calls"][name], "count")
            metrics[f"{name}.self_s"] = metric(res["self_s"][name], "s")
        for name in tr.COUNTERS:
            metrics[name] = metric(res["counters"][name], "count")
        metrics["trace.overhead_s"] = metric(traced - wall, "s")
        record.update(traced_walls=res["traced_walls"], traced_slowdowns=res["traced_slowdowns"])
        print(f"wall_s untraced {wall:.4f} s ({len(walls)} passes), traced {traced:.4f} s "
              f"({len(res['traced_walls'])} passes), overhead {traced - wall:.4f} s")
        for name in tr.FUNCTIONS:
            if res["calls"][name]:
                print(f"{name:<44} {res['calls'][name]:>9} calls "
                      f"{res['self_s'][name]:>10.4f} s self")
        for name in tr.COUNTERS:
            print(f"{name:<44} {res['counters'][name]:>9}")
    print(f"{'fail_share':<12} {failed / attempted:>12.4f} {'1':<4} "
          f"{failed} of {attempted} checks")

    pg.WORK.mkdir(exist_ok=True)
    (pg.WORK / f"record-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
