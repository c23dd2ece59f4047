"""One measuring process; `bench/run.py` starts it fresh for every sample.

    python3 bench/worker.py setup WORKLOAD SEED
        import gq, then parse and bind every program; prints
        {"setup_s": ..., "slowdown": ...}
    python3 bench/worker.py run WORKLOAD SEED SECONDS TRACE
        one warm-up pass (its peak RSS is that of a fresh process after one
        pass), then timed passes for SECONDS; with TRACE=1 the second half of
        the passes runs under the per-layer tracer.  Every pass is gated.

Both print one JSON line, with raw times and the machine's slowdown (see
`Speedometer`) measured in the same process.  The workload's programs must
already have been written by `programs.generate` (run.py does that before
starting workers).
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import platform
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import programs as pg  # noqa: E402

# The host's speed drifts by up to 2x over minutes and by 1.5x within a second,
# because other tenants share its cores, and the guest sees no steal time.  So
# while it measures, a process also times a fixed kernel that shares no code
# with gq, a few milliseconds at a time spread through the work (Speedometer);
# every time is taken on a clock that stops while the kernel runs, and run.py
# divides it by the kernel's slowdown over the same interval.
KERNEL_REFERENCE_S = 0.003   # one kernel call on the 2-core Xeon VM the bounds were set on
KERNEL_PERIOD_S = 0.03       # one call per 30 ms: about a tenth of the time


def _kernel():
    """Exact elimination of a fixed 9x9 Fraction matrix: the kind of
    pure-Python work gq does, written without gq."""
    n = 9
    m = [[Fraction((3 * i + 5 * j) % 13 - 6, 1 + (i * j) % 5) for j in range(n)]
         for i in range(n)]
    rank = 0
    for c in range(n):
        p = next((i for i in range(rank, n) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(n):
            if i != rank and m[i][c]:
                f = m[i][c] / m[rank][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class Speedometer:
    """Kernel calls and their total time.  Inside `with`, a SIGALRM every
    KERNEL_PERIOD_S runs the kernel once, between two bytecodes of whatever
    the process is doing, with the collector off so that the size of gq's
    heap does not change its cost; leaving `with` runs it once more.
    `clock` is `time.perf_counter` without the kernel's time."""

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0

    def _tick(self, signum=None, frame=None):
        gc_on = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        _kernel()
        self.seconds += time.perf_counter() - t0
        self.calls += 1
        if gc_on:
            gc.enable()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, KERNEL_PERIOD_S, KERNEL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def slowdown(self, since=(0.0, 0)):
        """Mean kernel time since `since` (a `mark()`) over KERNEL_REFERENCE_S:
        2.0 means half speed; None without calls."""
        calls = self.calls - since[1]
        return (self.seconds - since[0]) / calls / KERNEL_REFERENCE_S if calls else None

    def mark(self):
        return self.seconds, self.calls

    def clock(self):
        while True:   # retry if a kernel call ran between the two reads
            calls = self.calls
            t = time.perf_counter() - self.seconds
            if calls == self.calls:
                return t


def _import_gq():
    import gq
    from gq import cli, dsl, session

    src = Path("src").resolve()
    if src not in Path(gq.__file__).resolve().parents:
        raise SystemExit(f"gq was imported from {gq.__file__}, not from {src}")
    return cli, dsl, session


def setup(workload, seed):
    programs = pg.generate(workload, seed, write=False)
    with Speedometer() as speed:
        t0 = speed.clock()       # set-up covers `import gq`
        _, dsl, session = _import_gq()
        for p in programs:
            program = dsl.parse(p.path.read_text())
            session.analyze(program, session.Options(seed=p.gq_seed, base_dir=p.path.parent))
        setup_s = speed.clock() - t0
    return {"setup_s": setup_s, "slowdown": speed.slowdown()}


def _one_pass(cli, programs, speed):
    """Run every program through the CLI; returns (seconds per program on
    `speed.clock`, exit codes, `speed.slowdown` over the pass)."""
    for p in programs:
        p.report.unlink(missing_ok=True)
    codes, times = [], []
    clock = speed.clock
    start = speed.mark()
    with contextlib.redirect_stdout(io.StringIO()):
        for p in programs:
            t0 = clock()
            try:
                codes.append(cli.main(p.argv()))
            except Exception as exc:  # a crash is a failed program, not a dead benchmark
                codes.append(f"crashed: {type(exc).__name__}: {exc}")
            times.append(clock() - t0)
    return times, codes, speed.slowdown(start)


def _gate(workload, programs, codes):
    """(attempted, failed, reasons) for one pass."""
    attempted = failed = 0
    reasons = []
    for p, code in zip(programs, codes):
        golden = pg.golden_path(workload, p).read_bytes()
        if code != 0 or not p.report.exists():
            n = len(json.loads(golden)["checks"])
            attempted += n
            failed += n
            reasons.append(f"{p.name}: exit {code}")
            continue
        n, bad, why = pg.compare(p.report.read_bytes(), golden, p.gq_seed)
        attempted += n
        failed += bad
        reasons += [f"{p.name}: {w}" for w in why]
    return attempted, failed, reasons


def run(workload, seed, seconds, trace):
    cli, _, _ = _import_gq()
    programs = pg.generate(workload, seed, write=False)
    pg.REPORTS.mkdir(parents=True, exist_ok=True)
    totals = {"attempted": 0, "failed": 0}
    reasons = []

    speed = Speedometer()

    def timed_pass():
        times, codes, slowdown = _one_pass(cli, programs, speed)
        a, f, why = _gate(workload, programs, codes)
        totals["attempted"] += a
        totals["failed"] += f
        reasons.extend(why)
        return times, slowdown

    def passes(budget, minimum, before=None, after=None):
        """Per-program times and slowdown of each pass; no pass starts that
        would end past `budget`."""
        samples, spans = [], []
        t_end = time.perf_counter() + budget
        while len(samples) < minimum or (
                time.perf_counter() + statistics.median(spans) < t_end):
            t0 = time.perf_counter()
            if before:
                before()
            samples.append(timed_pass())
            if after:
                after()
            spans.append(time.perf_counter() - t0)
        return [times for times, _ in samples], [slowdown for _, slowdown in samples]

    with speed:
        out = {"warmup_s": sum(timed_pass()[0]),
               "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}
        if not trace:
            out["walls"], out["slowdowns"] = passes(seconds, 2)
        else:
            import tracer as tr

            out["walls"], out["slowdowns"] = passes(seconds / 2, 2)
            tracer = tr.Tracer(clock=speed.clock)
            snapshots = []
            tracer.install()
            try:
                out["traced_walls"], out["traced_slowdowns"] = passes(
                    seconds / 2, 2, before=tracer.reset,
                    after=lambda: snapshots.append(tracer.snapshot()))
            finally:
                tracer.uninstall()
    if trace:
        first = snapshots[0]
        for snap in snapshots[1:]:
            if snap["calls"] != first["calls"] or snap["counters"] != first["counters"]:
                reasons.append("trace: calls or counters differ between traced passes")
                totals["failed"] += 1
        errors = tr.coverage_errors(workload, first["calls"])
        reasons += [f"trace: {e}" for e in errors]
        totals["failed"] += len(errors)
        out["calls"] = first["calls"]
        out["counters"] = first["counters"]
        out["self_s"] = {name: statistics.median(
            s["self_s"][name] / slowdown for s, slowdown in zip(snapshots, out["traced_slowdowns"]))
            for name in tr.FUNCTIONS}

    import numpy
    import scipy

    out.update(totals, reasons=reasons[:20], versions={
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__})
    return out


def main(argv):
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    if mode == "setup":
        result = setup(workload, seed)
    elif mode == "run":
        result = run(workload, seed, float(argv[3]), argv[4] == "1")
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
