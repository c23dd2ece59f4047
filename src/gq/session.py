"""Execution of DSL programs: bindings, named checks, and reports.

A session binds names to constructed objects in statement order (the
semantic pass), then binds each check's arguments against its form in the
dispatch table `CHECKS`, once, at analysis; execution runs the bound
checks. Structural failures inside a check become failed records, not
crashes; unknown names, weight/arity mistakes and malformed check
arguments are semantic errors raised before anything runs.
"""

from __future__ import annotations

import functools
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from . import complexes as cx
from . import dsl
from . import extensions as ext
from . import sigma_structures as sig
from .errors import GqError, SemanticError, UnsupportedInputError
from .forms import TangentChart, dorfman_bracket
from .graded_algebra import Chart, GVar, left_derivative, scaling_check
from .linalg import Matrix, rational
from .nq_core import Derivation, commutator, euler_field, q_square


@dataclass
class Options:
    steps: int = 10_000
    tolerance: float = 1e-6
    seed: int = 0
    base_dir: Path = field(default_factory=Path)


@dataclass
class CheckRecord:
    name: str
    args: list
    verdict: str                 # pass | fail | degraded-mode
    residual: float | None = None
    witness: str | None = None
    ms: float = 0.0


@dataclass
class Report:
    seed: int
    steps: int
    tolerance: float
    records: list

    @property
    def counts(self):
        out = {"pass": 0, "fail": 0, "degraded-mode": 0}
        for r in self.records:
            out[r.verdict] += 1
        return out

    @property
    def all_ok(self) -> bool:
        return self.counts["fail"] == 0


def report_render(report: Report, fmt: str = "text", include_timing: bool = True) -> bytes:
    """Stable rendering; 'machine' is JSON with fixed field order."""
    if fmt == "text":
        lines = []
        for r in report.records:
            extra = ""
            if r.residual is not None:
                extra += f" residual={r.residual:.3e}"
            if r.witness:
                extra += f" [{r.witness}]"
            ms = f" ({r.ms:.0f} ms)" if include_timing else ""
            args = " ".join(str(a) for a in r.args)
            lines.append(f"{r.verdict.upper():13s} {r.name} {args}{extra}{ms}".rstrip())
        c = report.counts
        lines.append(f"checks: {len(report.records)}  pass: {c['pass']}  "
                     f"fail: {c['fail']}  degraded: {c['degraded-mode']}")
        return ("\n".join(lines) + "\n").encode()
    if fmt == "machine":
        payload = {
            "format": "gq-report",
            "version": 1,
            "seed": report.seed,
            "steps": report.steps,
            "tolerance": report.tolerance,
            "checks": [
                {
                    "name": r.name,
                    "inputs": [str(a) for a in r.args],
                    "verdict": r.verdict,
                    "residual": r.residual,
                    "witness": r.witness,
                    **({"ms": round(r.ms, 3)} if include_timing else {}),
                }
                for r in report.records
            ],
            "summary": report.counts,
        }
        return (json.dumps(payload, indent=2) + "\n").encode()
    raise ValueError(f"unknown report format {fmt!r}")


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def _eval(expr, chart: Chart, tangent: TangentChart | None, pos):
    if isinstance(expr, dsl.Num):
        return chart.const(expr.value)
    if isinstance(expr, dsl.Var):
        try:
            return chart.var(expr.name)
        except KeyError:
            raise SemanticError(f"unknown variable {expr.name!r}", *pos)
    if isinstance(expr, dsl.Neg):
        return -_eval(expr.arg, chart, tangent, pos)
    if isinstance(expr, dsl.DOp):
        if tangent is None:
            raise SemanticError("d(...) needs a chart with base/xi pairs", *pos)
        return tangent.d(_eval(expr.arg, chart, tangent, pos))
    if isinstance(expr, dsl.BinOp):
        left = _eval(expr.left, chart, tangent, pos)
        if expr.op == "^":
            return left ** int(expr.right.value)
        right = _eval(expr.right, chart, tangent, pos)
        if expr.op == "+":
            return left + right
        if expr.op == "-":
            return left - right
        return left * right
    raise SemanticError(f"cannot evaluate expression {expr!r}", *pos)


def _entries(pairs, what):
    """The table of (key, value) pairs; a key written twice must repeat its
    value. `what` names the table in errors."""
    table = {}
    for key, value in pairs:
        if table.setdefault(key, value) != value:
            raise ValueError(f"conflicting {what} at {key}")
    return table


# ---------------------------------------------------------------------------
# Session: bindings
# ---------------------------------------------------------------------------


class Session:
    def __init__(self, options: Options | None = None):
        self.options = options or Options()
        self.bindings = {}       # name -> (kind, value)
        self.checks = []         # (statement, handler, values, options), bound by analyze
        self.rng = random.Random(self.options.seed)

    def bind(self, name, kind, value, pos):
        if name in self.bindings:
            raise SemanticError(f"name {name!r} already bound", *pos)
        self.bindings[name] = (kind, value)

    def get(self, name, *kinds, pos=(0, 0)):
        if name not in self.bindings:
            raise SemanticError(f"unknown identifier {name!r}", *pos)
        kind, value = self.bindings[name]
        if kinds and kind not in kinds:
            raise SemanticError(
                f"{name!r} is a {kind}, expected {' or '.join(kinds)}", *pos)
        return value

    def kind_of(self, name):
        return self.bindings[name][0] if name in self.bindings else None

    # -- statement handlers -------------------------------------------------

    def run_statement(self, st):
        """Run one binding statement; a construction error is a semantic
        error at the statement."""
        handler = getattr(self, f"_do_{type(st).__name__}")
        try:
            handler(st)
        except SemanticError:
            raise
        except (GqError, ValueError) as exc:
            raise SemanticError(str(exc), *st.pos)

    def _do_ChartStmt(self, st):
        for n, w in st.coords:
            if w < 0:
                raise SemanticError(f"negative weight for {n!r}", *st.pos)
        self.bind(st.name, "chart", Chart(GVar(n, w) for n, w in st.coords), st.pos)

    def _do_QFieldStmt(self, st):
        target_kind = self.kind_of(st.chart)
        if target_kind == "sigma":
            dchart = self.get(st.chart, "sigma", pos=st.pos)
            chart = dchart.chart
        else:
            chart = self.get(st.chart, "chart", pos=st.pos)
        comps = {}
        for vname, e in st.components:
            if vname not in {v.name for v in chart.gvars}:
                raise SemanticError(f"unknown coordinate {vname!r}", *st.pos)
            comps[vname] = _eval(e, chart, None, st.pos)
        self.bind(st.name, "qfield", Derivation(chart, st.degree, comps), st.pos)

    def _do_SigmaStmt(self, st):
        dchart = sig.DarbouxChart(
            st.degree, [sig.ConjugatePair(q, wq, p, wp, s) for q, wq, p, wp, s in st.pairs])
        self.bind(st.name, "sigma", dchart, st.pos)

    def _do_HamStmt(self, st):
        dchart = self.get(st.target, "sigma", pos=st.pos)
        poly = _eval(st.expr, dchart.chart, None, st.pos)
        self.bind(st.name, "ham", sig.Hamiltonian(dchart, poly), st.pos)

    def _do_FormStmt(self, st):
        kind = self.kind_of(st.target)
        if kind == "twist":
            tw = self.get(st.target, "twist", pos=st.pos)
            chart, tangent = tw.chart, tw.tangent
        elif kind == "pair":
            sp = self.get(st.target, "pair", pos=st.pos)
            chart, tangent = sp.twist.chart, sp.tangent
        elif kind == "sigma":
            chart, tangent = self.get(st.target, "sigma", pos=st.pos).chart, None
        else:
            chart, tangent = self.get(st.target, "chart", pos=st.pos), None
        poly = _eval(st.expr, chart, tangent, st.pos)
        self.bind(st.name, "form", (st.target, poly), st.pos)

    def _do_AlgebroidStmt(self, st):
        chart = sig.algebroid_chart(st.base, st.fiber)
        rho = _entries((((a, i), _eval(e, chart, None, st.pos)) for a, i, e in st.anchors),
                       "anchor entries")
        c = _entries((((k, i, j), _eval(e, chart, None, st.pos)) for k, i, j, e in st.structures),
                     "structure functions")
        self.bind(st.name, "algebroid", sig.AlgebroidData(st.base, st.fiber, rho, c), st.pos)

    def _do_AlgebraStmt(self, st):
        if st.builtin == "so3":
            g = ext.so3()
        elif st.builtin == "sl2":
            g = ext.sl2()
        else:
            c = _entries((((k, i, j), rational(v)) for k, i, j, v in st.structures),
                         "structure constants")
            ip = {}                       # the last assignment to a pair wins
            for i, j, v in st.inner:
                if not (1 <= i <= st.dim and 1 <= j <= st.dim):
                    raise SemanticError(f"inner product index out of range: {(i, j)}", *st.pos)
                ip[(i - 1, j - 1)] = ip[(j - 1, i - 1)] = v
            entries = ((i, j, rational(v)) for (i, j), v in ip.items())
            g = ext.QuadraticLieAlgebra(st.dim, c, Matrix.from_entries(st.dim, st.dim, entries))
        self.bind(st.name, "algebra", g, st.pos)

    def _do_TwistStmt(self, st):
        shell = ext.TwistData(st.base, st.degree)
        eta = _eval(st.expr, shell.chart, shell.tangent, st.pos)
        self.bind(st.name, "twist", ext.TwistData(st.base, st.degree, eta), st.pos)

    def _do_PairStmt(self, st):
        shell = ext.TwistData(st.base, st.degree)
        v = [shell.chart.zero()] * st.base
        for i, e in st.vector:
            if not (1 <= i <= st.base):
                raise SemanticError(f"vector index {i} out of range", *st.pos)
            v[i - 1] = _eval(e, shell.chart, shell.tangent, st.pos)
        alpha = _eval(st.alpha, shell.chart, shell.tangent, st.pos)
        self.bind(st.name, "pair", ext.SymmetryPair(st.base, st.degree, v, alpha), st.pos)

    def _do_LoadStmt(self, st):
        # paths and grids are numpy arrays: their modules load on first use
        if st.kind == "path":
            from .apath import load_apath as load
        elif st.kind == "grid":
            from .grids import load_gridmap as load
        else:
            load = cx.load_complex
        path = self.options.base_dir / st.filename
        try:
            value = load(path)
        except (OSError, ValueError, GqError) as exc:
            raise SemanticError(f"cannot load {st.filename!r}: {exc}", *st.pos)
        self.bind(st.name, st.kind, value, st.pos)

    def _do_SaveStmt(self, st):
        kind = self.kind_of(st.name)
        if kind is None:
            raise SemanticError(f"unknown identifier {st.name!r}", *st.pos)
        value = self.bindings[st.name][1]
        path = self.options.base_dir / st.filename
        if kind == "path":
            from .apath import save_apath
            save_apath(value, path)
        elif kind == "grid":
            from .grids import save_gridmap
            save_gridmap(value, path)
        elif kind == "complex":
            target = value.total if isinstance(value, cx.RelativeComplex) else value
            cx.save_complex(target, path)
        else:
            raise SemanticError(f"cannot save a {kind} binding", *st.pos)

    def _do_ComplexStmt(self, st):
        if st.fiber2 is not None:
            fiber = cx.two_term_fiber(st.fiber2)
        else:
            fiber = self.get(st.fiber, "algebra", pos=st.pos)
        self.bind(st.name, "complex", cx.lattice_model(st.surface, fiber), st.pos)

    def _do_NMapStmt(self, st):
        dchart = self.get(st.target, "sigma", pos=st.pos)
        self.bind(st.name, "nmap", cx.nmap_space(dchart, st.dim), st.pos)


def analyze(program: dsl.Program, options: Options | None = None) -> Session:
    """The semantic pass: build every binding, then bind every check's
    arguments, in statement order, into `session.checks`."""
    session = Session(options)
    checks = [st for st in program.statements if isinstance(st, dsl.CheckStmt)]
    for st in program.statements:
        if not isinstance(st, dsl.CheckStmt):
            session.run_statement(st)
    session.checks = [(st, *_check_args(session, st)) for st in checks]
    return session


# one item of a check's argument form: a bracketed optional group, a marker
# word with its value, or a single word (`N` or a `kind|kind` binding)
_FORM_ITEM = re.compile(r"\[([^\]]*)\]|(\S+(?: N\.\.\.| NAME\.\.\.| N)?)")


def _check_args(session: Session, st: dsl.CheckStmt):
    """Bind a check's arguments against its form in `CHECKS`.

    `kind|kind` is one bound name of those kinds, `N` an integer >= 1,
    `word N` an integer >= 1 after a marker word, `word N...` and
    `word NAME...` one or more remaining tokens as integers >= 0 or as raw
    names; a bracketed item is optional. Returns the handler, its positional
    values (bound objects, integers) and its options keyed by marker word.
    """
    if st.check not in CHECKS:
        raise SemanticError(f"unknown check {st.check!r}", *st.pos)
    handler, form, _ = CHECKS[st.check]

    def fail(msg):
        usage = f"{st.check} {form}".rstrip()
        raise SemanticError(f"{st.check}: {msg} (usage: {usage})", *st.pos)

    def integer(tok, what, least=1):
        if not re.fullmatch(r"-?[0-9]+", tok):
            fail(f"{what} must be an integer, got {tok!r}")
        try:
            n = int(tok)
        except ValueError:                        # past Python's digit limit
            fail(f"{what} of {len(tok.lstrip('-'))} digits is too long")
        if n < least:
            fail(f"{what} must be at least {least}, got {tok}")
        return n

    args, values, marked = list(st.args), [], {}
    for group, item in _FORM_ITEM.findall(form):
        head, *value = (group or item).split()
        if not args or (value and args[0] != head):
            if group:
                continue
            fail(f"missing {item}")
        if not value:
            tok = args.pop(0)
            values.append(integer(tok, "N") if head == "N"
                          else session.get(tok, *head.split("|"), pos=st.pos))
            continue
        args.pop(0)                               # the marker word
        if not args:
            fail(f"missing {value[0]} after {head!r}")
        if value[0] == "N":
            marked[head] = integer(args.pop(0), head)
        else:
            marked[head] = [integer(a, head, 0) for a in args] if value[0] == "N..." else args
            args = []
    if args:
        fail(f"unexpected argument {args[0]!r}")
    return handler, values, marked


def execute(program: dsl.Program, options: Options | None = None) -> Report:
    """Analyze the program, then run every check in order on the arguments
    `analyze` bound. Malformed check arguments and bindings of the wrong
    kind are semantic errors raised there, before any check runs; a
    semantic error raised inside a check is raised too, and any other
    exception in a check becomes that check's `fail` record."""
    options = options or Options()
    session = analyze(program, options)
    records = []
    for st, handler, values, kwargs in session.checks:
        t0 = time.perf_counter()
        try:
            verdict, residual, witness = handler(session, st, *values, **kwargs)
        except SemanticError:
            raise
        except GqError as exc:
            verdict, residual, witness = "fail", None, f"error: {exc}"
        except Exception as exc:
            verdict, residual, witness = "fail", None, f"error: {type(exc).__name__}: {exc}"
        ms = (time.perf_counter() - t0) * 1000.0
        records.append(CheckRecord(st.check, list(st.args), verdict, residual, witness, ms))
    return Report(options.seed, options.steps, options.tolerance, records)


# ---------------------------------------------------------------------------
# Check implementations
# ---------------------------------------------------------------------------

def _ok(cond, witness_fail=None, residual=None, witness_pass=None):
    """A check's (verdict, residual, witness). A non-finite residual fails
    with no residual, since a report holds only finite numbers, and a
    witness naming it."""
    if residual is not None and not math.isfinite(residual):
        return "fail", None, f"non-finite residual {residual}"
    if cond:
        return "pass", residual, witness_pass
    return "fail", residual, witness_fail


def _float_check(check):
    """`check` run with numpy's floating-point warnings off: a huge finite
    sample may overflow to inf or nan, which `_ok` turns into a failed
    record instead of a warning on stderr."""
    @functools.wraps(check)
    def run(*args, **kwargs):
        import numpy as np

        with np.errstate(all="ignore"):
            return check(*args, **kwargs)
    return run


def _q_of(value):
    """The Q-field of a qfield, algebroid, twist or ham binding."""
    if isinstance(value, sig.AlgebroidData):
        return sig.algebroid_to_q(value)
    if isinstance(value, ext.TwistData):
        return ext.twisted_q(value)
    if isinstance(value, sig.Hamiltonian):
        return sig.hamiltonian_to_q(value.dchart, value)
    return value


def check_q2(session, st, value):
    Q = _q_of(value)
    sq = q_square(Q)
    if sq.is_zero():
        return "pass", None, None
    bad = next(v.name for v in Q.chart.gvars if not sq.component(v.name).is_zero())
    return "fail", None, f"Q^2({bad}) = {sq.component(bad)}"


def check_master(session, st, h):
    me = sig.master_equation(h.dchart, h)
    return _ok(me.is_zero(), witness_fail=f"{{Theta,Theta}} = {me}")


def check_jacobi(session, st, g):
    ce = ext.central_extension(g)
    bad = ce.jacobi_violation()
    if bad is not None:
        return "fail", None, f"graded Jacobi fails on basis triple {bad}"
    bad = ce.q_derivation_violation()
    if bad is not None:
        return "fail", None, f"Q is not a bracket derivation at {bad}"
    return _ok(ce.q_square_is_zero(), witness_fail="Q^2 != 0 on the extension")


def check_cartan(session, st, g):
    eta = ext.cartan_3form(g)
    closed = ext.chevalley_eilenberg_q(g)(eta)
    return _ok(closed.is_zero(), witness_fail=f"Q_CE(eta) = {closed}",
               witness_pass=f"eta = {eta}")


def check_dirac(session, st, h, constraints):
    Q = sig.hamiltonian_to_q(h.dchart, h)
    try:
        good = sig.lambda_check(h.dchart, Q, constraints)
    except UnsupportedInputError as exc:    # a name off the chart
        raise SemanticError(f"dirac: {exc}", *st.pos)
    return _ok(good, witness_fail="locus is not a Lagrangian Q-invariant submanifold")


def check_lemma1(session, st, val, deg):
    if deg not in (1, 2, 3):
        raise SemanticError(f"lemma1: deg must be 1, 2 or 3, got {deg}", *st.pos)
    base = val.total.complex if isinstance(val, cx.RelativeComplex) else val
    if isinstance(base, cx.SymplecticComplex):
        base = base.complex
    rep = cx.suspension_check(base, deg)
    return rep.verdict, None, f"H(base) = {rep.base_betti}, H(tensor) = {rep.tensor_betti}"


def check_lemma3(session, st, val):
    R = val if isinstance(val, cx.RelativeComplex) else cx.closed_relative(_as_symplectic(val, st))
    rep = cx.lemma3_orthogonality(R)
    wit = (f"mode={rep.mode} equality={rep.equality} quotient={rep.quotient_dims} "
           f"nondeg={rep.quotient_nondegenerate}")
    return rep.verdict, None, wit


def _as_symplectic(val, st):
    if isinstance(val, cx.SymplecticComplex):
        return val
    raise SemanticError("this check needs a complex with a pairing", *st.pos)


def check_stokes(session, st, val):
    if isinstance(val, cx.RelativeComplex):
        bad = val.stokes_violation()
        return _ok(bad is None, witness_fail=f"Stokes fails at degree {bad}")
    S = _as_symplectic(val, st)
    bad = S.compatibility_violation()
    return _ok(bad is None, witness_fail=f"compatibility fails at degree {bad}")


def check_boundary_lagrangian(session, st, val):
    if not isinstance(val, cx.RelativeComplex):
        raise SemanticError("boundary-lagrangian needs a relative complex", *st.pos)
    rep = cx.boundary_lagrangian(val)
    wit = f"image {rep.image_dim} of H(boundary) {rep.boundary_h_dim}, isotropic={rep.isotropic}"
    return rep.verdict, None, wit


# `check cocycle` evaluates d^3 (2 modes + 1)^2 cocycle terms per cocycle:
# about 2.5 s for so3 at this cutoff on a 2-core VM
_MAX_COCYCLE_MODES = 64


def check_cocycle(session, st, g, modes=4):
    if modes > _MAX_COCYCLE_MODES:
        raise SemanticError(
            f"cocycle: modes must be at most {_MAX_COCYCLE_MODES}, got {modes}", *st.pos)
    good = ext.affine_cocycle_check(g, modes)
    broken_fails = not ext.affine_cocycle_check(g, modes, ext.broken_cocycle(g))
    if good and broken_fails:
        return "pass", None, f"modes <= {modes}; broken counterexample rejected"
    return "fail", None, ("cocycle identity fails" if not good
                          else "broken cocycle was not rejected")


@_float_check
def check_holonomy(session, st, p, q):
    import numpy as np

    from . import apath as ap

    steps = session.options.steps
    g = ap.integrate(ap.concatenate(p, q), steps).holonomy
    sep = ap.integrate(p, steps).holonomy @ ap.integrate(q, steps).holonomy
    res = float(np.max(np.abs(g - sep)))
    return _ok(res < session.options.tolerance, residual=res,
               witness_fail="concatenation law residual above tolerance")


@_float_check
def check_reparam(session, st, p):
    import numpy as np

    from . import apath as ap

    s = np.linspace(0.0, 1.0, max(len(p.times), 4001))
    phi = np.stack([s, s * s * (3 - 2 * s)], axis=1)   # smooth, monotone, fixed ends
    res = ap.reparametrize_check(p, phi, session.options.steps)
    return _ok(res < session.options.tolerance, residual=res,
               witness_fail="reparametrization residual above tolerance")


def _expm(X):
    """exp(X) by scaling and squaring a degree-18 Taylor polynomial (Moler &
    Van Loan 2003, method 3). X is scaled by 2^-s to a 1-norm of at most 1/2,
    where the truncation error is about 1e-23; it shares no code with RK4.
    A 1-norm that overflows leaves s = 1 and a non-finite result."""
    import numpy as np

    s = max(0, int(np.frexp(np.max(np.sum(np.abs(X), axis=0)))[1]) + 1)
    A, eye = np.ldexp(X, -s), np.eye(len(X))
    E = eye
    for k in range(18, 0, -1):
        E = eye + A @ E / k
    for _ in range(s):
        E = E @ E
    return E


@_float_check
def check_exp(session, st, p):
    import numpy as np

    from . import apath as ap

    if float(np.max(np.abs(p.mats - p.mats[0]))) > 0:
        return "fail", None, "exp check needs a constant path"
    g = ap.integrate(p, session.options.steps).holonomy
    res = float(np.max(np.abs(g - _expm(p.mats[0]))))
    return _ok(res < session.options.tolerance, residual=res,
               witness_fail="holonomy differs from the exponential")


@_float_check
def check_action(session, st, p):
    import numpy as np

    from . import apath as ap

    el = ap.action_integrate(p, session.options.steps,
                             transport_tol=session.options.tolerance)
    res = float(np.max(np.abs(el.target - p.base[-1])))
    return _ok(res < session.options.tolerance, residual=res,
               witness_fail="group transport misses the recorded endpoint")


def check_euler(session, st, value):
    Q = _q_of(value)
    E = euler_field(Q.chart)
    match = commutator(E, Q) == Q * Fraction(Q.degree)
    return _ok(match, witness_fail="[E, D] != deg(D) D")


def check_scaling(session, st, value, lam=2):
    if isinstance(value, sig.Hamiltonian):
        poly = value.theta
    elif isinstance(value, ext.TwistData):
        poly = value.eta
    else:
        poly = value[1]                           # a form binding: (target, poly)
    lam = Fraction(lam)
    if poly.is_zero():
        return "pass", None, "zero polynomial"
    comp = poly.weight_decomposition()
    good = all(scaling_check(c, lam) for c in comp.values())
    return _ok(good, witness_fail="scaling law fails",
               witness_pass=f"weights {sorted(comp)}")


def check_hamround(session, st, h):
    Q = sig.hamiltonian_to_q(h.dchart, h)
    back = sig.q_to_hamiltonian(h.dchart, Q)
    return _ok(back == h.theta, witness_fail=f"round trip gave {back}")


def check_alground(session, st, A):
    back = sig.q_to_algebroid(sig.algebroid_to_q(A))
    return _ok(back == A, witness_fail="anchor/structure functions changed")


def _bivector_of(h):
    """pi^{ab} = -dL_{p_b} dL_{p_a} Theta on a degree-1 chart."""
    dchart = h.dchart
    m = len(dchart.pairs)
    pi = {}
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            pa, pb = dchart.pairs[a - 1].p_name, dchart.pairs[b - 1].p_name
            pi[(a, b)] = -left_derivative(left_derivative(h.theta, pa), pb)
    return pi


def _schouten_jacobiator(h, pi):
    """Cyclic sum pi^{sa} d_s pi^{bc} for every a<b<c; exact polynomials.
    Each d_s pi^{jk} is taken once, for the stored pair j < k, and negated
    for the reversed pair."""
    dchart = h.dchart
    m = len(dchart.pairs)
    xs = [p.q_name for p in dchart.pairs]
    piv, dpi = {}, {}                 # (j, k) -> pi^{jk}, [d_s pi^{jk} for each s]
    for (j, k), p in pi.items():
        piv[(j, k)], piv[(k, j)] = p, -p
        dpi[(j, k)] = [left_derivative(p, x) for x in xs]
        dpi[(k, j)] = [-d for d in dpi[(j, k)]]
    out = {}
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            for c in range(b + 1, m + 1):
                out[(a, b, c)] = dchart.chart.sum_of_products(
                    (piv[(s, i)], dpi[(j, k)][s - 1])
                    for s in range(1, m + 1) for i, j, k in ((a, b, c), (b, c, a), (c, a, b))
                    if s != i)
    return out


def check_poisson(session, st, h):
    if h.dchart.n != 1:
        raise SemanticError("poisson check needs a degree-1 chart", *st.pos)
    pi = _bivector_of(h)
    jac = _schouten_jacobiator(h, pi)
    oracle_flat = all(v.is_zero() for v in jac.values())
    master_flat = sig.master_equation(h.dchart, h).is_zero()
    if oracle_flat != master_flat:
        return "fail", None, "master equation disagrees with the Schouten oracle"
    m = len(h.dchart.pairs)
    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            xa = h.dchart.var(h.dchart.pairs[a - 1].q_name)
            xb = h.dchart.var(h.dchart.pairs[b - 1].q_name)
            if sig.derived_bracket(h.dchart, h, xa, xb) != pi[(a, b)]:
                return "fail", None, f"derived bracket misses pi^({a},{b})"
    wit = "flat" if master_flat else "curved (master equation nonzero), oracle agrees"
    return "pass", None, wit


def _courant_base(dchart, st):
    """Names of the q's of the even pairs (the weight-0 base coordinates) and
    of the odd pairs (their differentials theta) of a standard degree-2 chart;
    otherwise a semantic error naming the check statement `st`."""
    even = [p for p in dchart.pairs if p.q_weight % 2 == 0]
    odd = [p.q_name for p in dchart.pairs if p.q_weight % 2]
    if dchart.n != 2 or len(even) != len(odd) or any(p.q_weight for p in even):
        raise SemanticError(f"{st.check} check needs a standard degree-2 chart", *st.pos)
    return [p.q_name for p in even], odd


def _rand_base(rng, chart, xnames, top):
    """A random monomial in the named base coordinates: each exponent in
    [0, top], coefficient in [-2, 2]."""
    key = [0] * len(chart.gvars)
    for nm in xnames:
        key[chart.index(nm)] = rng.randint(0, top)
    return chart.monomial(Fraction(rng.randint(-2, 2)), tuple(key))


def check_dorfman(session, st, h, samples=20):
    """{{Theta, e1}, e2} against the Dorfman bracket of the Cartan calculus
    on the same chart, with the 1-form xi_a encoded as xi_a theta^a."""
    dchart = h.dchart
    tc = TangentChart.over(dchart.chart, *_courant_base(dchart, st))
    chart, m, rng = dchart.chart, tc.m, session.rng

    def rand_poly():
        return chart.sum(_rand_base(rng, chart, tc.x_names, 2)
                         for _ in range(rng.randint(1, 2)))

    def one_form(coeffs):
        return chart.sum_of_products((f, chart.var(t)) for f, t in zip(coeffs, tc.xi_names))

    for _ in range(samples):
        X, xi, Y, zeta = ([rand_poly() for _ in range(m)] for _ in range(4))
        e1 = sig.section_encode(dchart, X, xi)
        e2 = sig.section_encode(dchart, Y, zeta)
        got = sig.derived_bracket(dchart, h, e1, e2)
        vec, form = dorfman_bracket(tc, (X, one_form(xi)), (Y, one_form(zeta)))
        expected = sig.section_encode(
            dchart, vec, [left_derivative(form, t) for t in tc.xi_names])
        if got != expected:
            return "fail", None, "derived bracket differs from the Dorfman oracle"
    return "pass", None, f"{samples} random sections agree exactly"


def check_pairing(session, st, dchart):
    xnames, _ = _courant_base(dchart, st)
    m = len(xnames)
    rng = session.rng
    for _ in range(20):
        X, xi, Y, zeta = ([_rand_base(rng, dchart.chart, xnames, 1) for _ in range(m)]
                          for _ in range(4))
        e1 = sig.section_encode(dchart, X, xi)
        e2 = sig.section_encode(dchart, Y, zeta)
        got = sig.poisson_bracket(dchart, e1, e2)
        want = dchart.chart.sum_of_products(zip(X + Y, zeta + xi))
        if got != want:
            return "fail", None, "section bracket differs from iota_X zeta + iota_Y xi"
    return "pass", None, None


def check_iota(session, st, sp):
    self_bracket_zero = ext.iota_self_bracket(sp).is_zero()
    contraction = sp.tangent.iota(sp.v, sp.alpha)
    agrees = self_bracket_zero == contraction.is_zero()
    wit = f"v . alpha = {contraction}"
    return _ok(agrees, witness_fail="[iota,iota] = 0 disagrees with v . alpha = 0",
               witness_pass=wit)


def check_pairbracket(session, st, s1, s2):
    br = ext.symmetry_bracket(s1, s2)
    Q = ext.twisted_q(s1.twist)
    i1, i2 = ext.iota_encode(s1), ext.iota_encode(s2)
    dec = ext.pair_decode(s1, commutator(commutator(Q, i1), i2))
    if dec != br:
        return "fail", None, "bracket differs from [[Q, iota1], iota2]"
    br21 = ext.symmetry_bracket(s2, s1)
    pol = ext.pair_decode(s1, commutator(Q, commutator(i1, i2)))
    defect_v = [a + b for a, b in zip(br.v, br21.v)]
    defect_a = br.alpha + br21.alpha
    if pol.v != defect_v or pol.alpha != defect_a:
        return "fail", None, "polarized identity [[Q,i],i] = 1/2 [Q,[i,i]] fails"
    return "pass", None, None


def check_leibniz(session, st, s1, s2, s3):
    lhs = ext.symmetry_bracket(s1, ext.symmetry_bracket(s2, s3))
    r1 = ext.symmetry_bracket(ext.symmetry_bracket(s1, s2), s3)
    r2 = ext.symmetry_bracket(s2, ext.symmetry_bracket(s1, s3))
    good = (lhs.v == [a + b for a, b in zip(r1.v, r2.v)]
            and lhs.alpha == r1.alpha + r2.alpha)
    return _ok(good, witness_fail="left Leibniz identity fails")


def check_skewwitness(session, st, s1, s2):
    b12 = ext.symmetry_bracket(s1, s2)
    b21 = ext.symmetry_bracket(s2, s1)
    skew = (b12.v == [-c for c in b21.v]) and b12.alpha == -b21.alpha
    wit = f"defect alpha = {b12.alpha + b21.alpha}"
    return _ok(not skew, witness_fail="bracket is skew on this pair (no witness)",
               witness_pass=wit)


def check_degbound(session, st):
    rng = session.rng
    cases = [(2, 3, -1), (1, 2, 0), (2, 0, 3)]
    for _ in range(25):
        n = rng.randint(0, 4)
        w = rng.randint(n + 1, n + 5)
        cases.append((n, w, n - w))
    for n, wq, wp in cases:
        try:
            sig.DarbouxChart(n, [sig.ConjugatePair("a", wq, "b", wp)])
            return "fail", None, f"accepted weights ({wq}, {wp}) at degree {n}"
        except GqError:
            continue
    return "pass", None, f"{len(cases)} out-of-range charts rejected"


def check_moduli(session, st, val, dims=None):
    if isinstance(val, cx.RelativeComplex):
        if val.boundary.complex.components:
            raise SemanticError("moduli needs a closed complex", *st.pos)
        val = val.total
    S = _as_symplectic(val, st)
    rep = cx.cohomology_pairing(S)
    got = [rep.dims.get(k, 0) for k in sorted(rep.dims)]
    chi = sum(-d if k % 2 else d for k, d in rep.dims.items())
    # from the component dimensions alone, with no elimination: a mismatch
    # means the row and column reductions of some d_k disagree on its rank
    euler = S.complex.euler_characteristic()
    if chi != euler:
        return "fail", None, f"sum of (-1)^k dim H^k is {chi}, Euler characteristic {euler}"
    if dims is not None and got != dims:
        return "fail", None, f"H dims {got}, expected {dims}"
    return _ok(rep.nondegenerate, witness_fail=f"induced pairing degenerate; H dims {got}",
               witness_pass=f"H dims {got}, induced pairing nondegenerate")


def check_nmap(session, st, N):
    n = N.source_dim
    for name, w, d in N.components:
        expected = math.comb(n, w) if 0 <= w <= n else 0
        if d != expected:
            return "fail", None, f"component {name} has dim {d}, expected {expected}"
    return _ok(N.nondegenerate, witness_fail="component pairing is degenerate",
               witness_pass=f"total dim {N.total_dim}")


@_float_check
def check_wzw(session, st, a, b):
    import numpy as np

    from . import grids

    prod = grids.wzw_product(a, b)
    n1, n2 = a.nodes_shape
    ident = grids.GridMap.identity(n1 - 1, n2 - 1)
    right_unit = grids.wzw_product(a, ident)
    if not (np.array_equal(right_unit.values, a.values)
            and np.array_equal(right_unit.omega, a.omega)):
        return "fail", None, "identity grid is not a right unit"
    inv = b.inverse()
    cancel = grids.GridMap(inv.values, -b.omega - grids.wzw_cross_term(inv, b))
    res = float(np.max(np.abs(grids.wzw_product(cancel, b).omega)))
    ok = res < 1e-9
    return _ok(ok, residual=float(np.max(np.abs(prod.omega))) if ok else res,
               witness_fail="inverse cancellation failed",
               witness_pass="unit and inverse laws hold")


def check_gauge(session, st, tw, form):
    _, alpha = form
    shifted = ext.gauge_change(tw, alpha)
    d_preserved = tw.tangent.d(shifted.eta) == tw.tangent.d(tw.eta)
    conjugate = ext.gauge_shift_consistent(tw, alpha)
    return _ok(d_preserved and conjugate,
               witness_fail="gauge change broke d eta or the fiber shift conjugation",
               witness_pass=f"eta' = {shifted.eta}")


# name -> (handler, argument form, description), the one record of each
# check; `_check_args` binds a check's arguments against its form
CHECKS = {
    "q2": (check_q2, "qfield|algebroid|twist|ham", "Q^2 = 0 for a Q-field, algebroid, or twist"),
    "master": (check_master, "ham", "{Theta, Theta} = 0"),
    "jacobi": (check_jacobi, "algebra", "graded Jacobi + Q derivation on the central extension"),
    "cartan": (check_cartan, "algebra", "Cartan 3-form is Chevalley-Eilenberg closed"),
    "dirac": (check_dirac, "ham constraints NAME...",
              "constraint locus is a Lagrangian Q-invariant submanifold"),
    "lemma1": (check_lemma1, "complex deg N", "relative ball tensor shifts cohomology by n"),
    "lemma3": (check_lemma3, "complex",
               "cocycles vs orthogonal complement of relative coboundaries"),
    "stokes": (check_stokes, "complex",
               "boundary pairing of restrictions equals the d-pairing combination"),
    "boundary-lagrangian": (check_boundary_lagrangian, "complex",
                            "image of H(total) in H(boundary) is Lagrangian"),
    "cocycle": (check_cocycle, "algebra [modes N]",
                "loop-algebra 2-cocycle identity at mode cutoff"),
    "holonomy": (check_holonomy, "path path",
                 "holonomy of a concatenation is the product of holonomies"),
    "reparam": (check_reparam, "path", "holonomy is reparametrization invariant"),
    "exp": (check_exp, "path", "constant-path holonomy matches the matrix exponential"),
    "action": (check_action, "path", "base transport matches group transport"),
    "euler": (check_euler, "qfield|algebroid|twist|ham", "[E, D] = deg(D) D"),
    "scaling": (check_scaling, "ham|twist|form [N]",
                "f(lambda . x) = lambda^deg f(x) on homogeneous components"),
    "hamround": (check_hamround, "ham", "Hamiltonian <-> Q round trip"),
    "alground": (check_alground, "algebroid", "algebroid <-> Q round trip"),
    "poisson": (check_poisson, "ham",
                "derived bracket reproduces the bivector; master = Schouten oracle"),
    "dorfman": (check_dorfman, "ham [samples N]",
                "derived bracket equals the Dorfman bracket on sections"),
    "pairing": (check_pairing, "sigma", "section bracket is the tangent-plus-cotangent pairing"),
    "iota": (check_iota, "pair", "[iota, iota] = 0 iff the contraction vanishes"),
    "pairbracket": (check_pairbracket, "pair pair",
                    "symmetry bracket matches [[Q, iota1], iota2]"),
    "leibniz": (check_leibniz, "pair pair pair", "left Leibniz identity for symmetry pairs"),
    "skewwitness": (check_skewwitness, "pair pair", "records a non-skew witness pair"),
    "degbound": (check_degbound, "", "Darboux charts reject weights outside [0, n]"),
    "moduli": (check_moduli, "complex [dims N...]",
               "cohomology dimensions and induced pairing of a lattice model"),
    "nmap": (check_nmap, "nmap",
             "component dimensions are binomial and the pairing is symplectic"),
    "wzw": (check_wzw, "grid grid",
            "grid product: unit and inverse laws for the corrected 2-form"),
    "gauge": (check_gauge, "twist form", "gauge change shifts eta by d alpha and conjugates Q"),
}
