"""Workload programs and the correctness gate.

Every path here is relative to the root of a checkout: the benchmark runs
from there, reads `suite/` and `src/`, and writes only under `.bench_work/`.

A workload is a list of `Program`s, each a `.gq` file that one pass runs
through `gq.cli.main(["run", FILE, "--report", OUT, "--seed", S])`.
`suite` runs the shipped programs in place; `lattice` and `symbolic` are
generated from the benchmark seed.  The gate compares every machine report
with a committed golden report in `bench/expected/<workload>/`.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("suite", "lattice", "symbolic")
SUITE = Path("suite")
WORK = Path(".bench_work")
REPORTS = WORK / "reports"
EXPECTED = Path(__file__).resolve().parent / "expected"

# Checks whose `residual` is a float.  The RK4 ones must stay under the
# report's tolerance; `wzw` reports the size of the product 2-form, which
# must stay within WZW_RTOL of the golden value.
RK4_CHECKS = {"holonomy", "reparam", "exp", "action"}
FLOAT_CHECKS = RK4_CHECKS | {"wzw"}
WZW_RTOL = 1e-9

# Verdicts known before running anything; `bench/bless.py` refuses to write
# golden reports that disagree with them.
PREDICTED = {
    "suite": {"pass": 60, "degraded-mode": 2},
    "lattice": {
        "torus_moduli": ["pass", "pass"],
        "torus_lemma3": ["degraded-mode"],
        "cylinder": ["degraded-mode", "pass"],
    },
    "symbolic": "pass",
}

SYMBOLIC_PROGRAMS = 8      # each: Courant m=5, twisted Courant m=5, log-canonical m=10
COURANT_M = 5
LOGCAN_M = 10
DORFMAN_SAMPLES = 20


@dataclass
class Program:
    name: str
    path: Path          # the file `gq run` reads
    gq_seed: int        # passed to `gq run --seed`

    @property
    def report(self) -> Path:
        return REPORTS / f"{self.name}.json"

    def argv(self):
        return ["run", str(self.path), "--report", str(self.report), "--seed", str(self.gq_seed)]


def _coefficient(rng):
    return rng.choice([-3, -2, -1, 1, 2, 3])


def _signed_sum(terms):
    return " + ".join(terms).replace("+ -", "- ")


def _courant(name, m, rng=None, samples=None):
    """Standard Courant chart on R^m; with `rng`, twisted by a constant 3-form
    whose every coefficient is a seeded nonzero integer."""
    pairs = [f"(x{a}:0, p{a}:2, sign -1);" for a in range(1, m + 1)]
    pairs += [f"(theta{a}:1, chi{a}:1);" for a in range(1, m + 1)]
    terms = [f"theta{a}*p{a}" for a in range(1, m + 1)]
    if rng is not None:
        terms += [f"{_coefficient(rng)}*theta{a}*theta{b}*theta{c}"
                  for a, b, c in itertools.combinations(range(1, m + 1), 3)]
    out = [f"sigma S{name} deg 2 pairs {{ {' '.join(pairs)} }}",
           f"ham {name} on S{name} = {_signed_sum(terms)};",
           f"check master {name};"]
    if samples:
        # the Dorfman oracle holds only without a twist
        out.append(f"check dorfman {name} samples {samples};")
    out.append(f"check hamround {name};")
    return out


def _log_canonical(name, m, rng):
    """sum_{a<b} q_ab x_a x_b p_a p_b: Poisson for every seeded q."""
    pairs = " ".join(f"(x{a}:0, p{a}:1);" for a in range(1, m + 1))
    terms = [f"{_coefficient(rng)}*x{a}*x{b}*p{a}*p{b}"
             for a, b in itertools.combinations(range(1, m + 1), 2)]
    return [f"sigma S{name} deg 1 pairs {{ {pairs} }}",
            f"ham {name} on S{name} = {_signed_sum(terms)};",
            f"check master {name};",
            f"check poisson {name};",
            f"check hamround {name};"]


def _lattice_sources(seed):
    rng = random.Random(seed)
    m1, m2 = rng.choice([(9, 4), (4, 9)])   # mesh orientation keeps the cost class
    head = "algebra G so3;"
    return {
        "torus_moduli": [head, f"complex T torus {m1} {m2} fiber G;",
                         "check moduli T dims 3 6 3;", "check stokes T;"],
        "torus_lemma3": [head, "complex T torus 4 4 fiber G;", "check lemma3 T;"],
        "cylinder": [head, "complex C cylinder 3 3 fiber G;",
                     "check lemma3 C;", "check boundary-lagrangian C;"],
    }


def _symbolic_sources(seed):
    rng = random.Random(seed)
    out = {}
    for i in range(SYMBOLIC_PROGRAMS):
        out[f"charts_{i}"] = (_courant("STD", COURANT_M, samples=DORFMAN_SAMPLES)
                              + _courant("TW", COURANT_M, rng=rng)
                              + _log_canonical("LOG", LOGCAN_M, rng))
    return out


def generate(workload: str, seed: int, write: bool = True) -> list[Program]:
    """The workload's programs for `seed` in run order; `write` puts the
    generated ones on disk (workers read what the parent wrote)."""
    if workload == "suite":
        return [Program(p.stem, p, seed) for p in sorted(SUITE.glob("*.gq"))]
    if workload == "lattice":
        sources = _lattice_sources(seed)
        gq_seed = lambda i: seed          # no lattice check draws random numbers
    elif workload == "symbolic":
        sources = _symbolic_sources(seed)
        # `dorfman` draws its random sections from `gq run --seed`; a fixed
        # seed per program keeps their cost out of the seed-to-seed spread,
        # while the benchmark seed varies the twist and the bivector.
        gq_seed = lambda i: i
    else:
        raise ValueError(f"unknown workload {workload!r}")
    directory = WORK / "programs" / workload
    programs = []
    for i, (name, lines) in enumerate(sources.items()):
        path = directory / f"{name}.gq"
        if write:
            directory.mkdir(parents=True, exist_ok=True)
            path.write_text("\n".join(lines) + "\n")
        programs.append(Program(name, path, gq_seed(i)))
    return programs


def digest(programs) -> str:
    """sha256 over every input a pass reads: program texts and suite data."""
    h = hashlib.sha256()
    files = [p.path for p in programs]
    if any(p.path.parent == SUITE for p in programs):
        files += sorted((SUITE / "data").glob("*"))
    for f in files:
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------


def golden_path(workload, program) -> Path:
    return EXPECTED / workload / f"{program.name}.json"


def _masked(payload):
    """The report with the seed, timings and float residuals blanked out."""
    out = dict(payload, seed=None)
    out["checks"] = [{k: (None if k == "residual" and c["name"] in FLOAT_CHECKS else v)
                      for k, v in c.items() if k != "ms"}
                     for c in payload["checks"]]
    return out


def golden_bytes(raw: bytes, seed: int) -> bytes:
    """A machine report as stored in `bench/expected/`: no `ms`, seed 0."""
    payload = json.loads(raw)
    if payload["seed"] != seed:
        raise ValueError(f"report seed {payload['seed']} != {seed}")
    payload["seed"] = 0
    for c in payload["checks"]:
        c.pop("ms", None)
    return (json.dumps(payload, indent=2) + "\n").encode()


def _residual_ok(check, golden_check, tolerance):
    r = check.get("residual")
    if not isinstance(r, float) or not math.isfinite(r):
        return False
    if check["name"] in RK4_CHECKS:
        return r < tolerance
    g = golden_check["residual"]
    return abs(r - g) <= WZW_RTOL * max(abs(g), 1e-300)


def compare(raw: bytes, golden: bytes, seed: int) -> tuple[int, int, list[str]]:
    """(checks attempted, checks failed, reasons) for one machine report.

    Exact equality of the masked reports, plus the residual rule for the
    float checks.  A check whose record differs counts as failed; a wrong
    seed, a missing or extra check, or a mismatch outside the check records
    (header, summary) fails one more.
    """
    want = json.loads(golden)
    want_m = _masked(want)
    n = len(want["checks"])
    try:
        got = json.loads(raw)
        got_m = _masked(got)
    except (ValueError, KeyError, TypeError):
        return n, n, ["machine report is not a gq report"]
    checks = got["checks"]
    reasons = []
    for i, w in enumerate(want["checks"][:len(checks)]):
        if got_m["checks"][i] != want_m["checks"][i]:
            reasons.append(f"check {i} ({w['name']}): {json.dumps(got_m['checks'][i])}")
        elif w["name"] in FLOAT_CHECKS and not _residual_ok(checks[i], w, want["tolerance"]):
            reasons.append(f"check {i} ({w['name']}): residual {checks[i].get('residual')}")
    failed = len(reasons) + max(0, n - len(checks))
    other = []
    if got["seed"] != seed:
        other.append(f"report seed {got['seed']} != {seed}")
    if len(checks) != n:
        other.append(f"{len(checks)} checks, expected {n}")
    if not reasons and not other and got_m != want_m:
        other.append("report differs outside the check records")
    if other:
        failed += 1
    return n, min(failed, n), reasons + other


def predicted_ok(workload, goldens: dict) -> list[str]:
    """Disagreements between golden reports and the verdicts known in advance."""
    verdicts = {name: [c["verdict"] for c in json.loads(raw)["checks"]]
                for name, raw in goldens.items()}
    want = PREDICTED[workload]
    if workload == "suite":
        counts = {}
        for v in itertools.chain.from_iterable(verdicts.values()):
            counts[v] = counts.get(v, 0) + 1
        return [] if counts == want else [f"suite verdict counts {counts} != {want}"]
    if workload == "lattice":
        return [f"{k}: {v} != {want.get(k)}" for k, v in verdicts.items() if v != want.get(k)]
    return [f"{k}: {v}" for k, v in verdicts.items() if any(x != want for x in v)]
