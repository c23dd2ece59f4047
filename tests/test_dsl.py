"""Parser, session execution, reports, CLI, and dispatch coverage."""

import contextlib
import io
import itertools
import json
import random
import re
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from gq import APath, GradedComplex, dsl, left_derivative, save_apath
from gq import apath, grids
from gq import complexes as cx
from gq import extensions as ext
from gq import graded_algebra as ga
from gq import nq_core as nq
from gq import sigma_structures as sig
from gq import session as session_module
from gq.cli import main as cli_main
from gq.errors import ParseError, SemanticError
from gq.session import CHECKS, Options, analyze, execute, report_render
from conftest import entered_code

SUITE = Path(__file__).resolve().parent.parent / "suite"

MINIMAL = "chart X { x:0; xi:1; } qfield Q on X { xi -> 0; x -> xi; } check q2 Q;"

SIGMA2 = """
sigma S deg 2 pairs { (x:0, p:2, sign -1); (theta:1, chi:1); }
ham TH on S = theta*p;
check master TH;
"""


def test_parse_minimal_program():
    prog = dsl.parse(MINIMAL)
    assert len(prog.statements) == 3
    kinds = [type(s).__name__ for s in prog.statements]
    assert kinds == ["ChartStmt", "QFieldStmt", "CheckStmt"]


def test_parse_sigma_program():
    prog = dsl.parse(SIGMA2)
    assert len(prog.statements) == 3
    rep = execute(dsl.parse(SIGMA2))
    assert rep.records[0].verdict == "pass"


def test_negative_weight_is_semantic_error():
    with pytest.raises(SemanticError) as err:
        execute(dsl.parse("chart X { x:-1; }"))
    assert "negative weight" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        dsl.parse("chart X { x:0")
    assert err.value.line >= 1 and err.value.column >= 1


def test_unknown_identifier_is_semantic_error():
    with pytest.raises(SemanticError):
        execute(dsl.parse("check q2 NOPE;"))


def test_wrong_weight_hamiltonian_is_semantic_error():
    with pytest.raises(SemanticError):
        execute(dsl.parse("sigma S deg 1 pairs { (x:0, p:1); } ham H on S = p;"))


def test_render_parse_roundtrip():
    sources = [
        MINIMAL,
        SIGMA2,
        'algebra G so3; check jacobi G;',
        'algebra G dim 2 { c 1 1 2 = 1/2; ip 1 1 = 1; ip 2 2 = -1; }',
        'twist T base 2 deg 1 = d(x1*xi2); form A on T = x1*xi2; check gauge T A;',
        'pair P base 2 deg 2 { v 1 = x2; alpha = x1*xi2; } check iota P;',
        'algebroid A base 1 fiber 2 { rho 1 1 = 1; c 2 1 2 = x1; } check q2 A;',
        'load path P "data/p.apath"; save P "out.apath";',
        'complex K torus 3 3 fiber G; algebra G so3;',
        'nmap N on S dim 2; sigma S deg 2 pairs { (a:0, b:2); };'.replace("};", "}"),
        'check moduli K dims 3 6 3;',
        'check boundary-lagrangian K;',
        'ham H on S = 2*x^2*p - 1/3*p;',
    ]
    for src in sources:
        prog = dsl.parse(src)
        again = dsl.parse(dsl.render(prog))
        assert again == prog, src


# Message, line and column of the ParseError for one malformed program per
# statement kind, plus the lexical and expression errors.
MALFORMED = [
    ('chart X { x:0', "1:14: expected ';', found ''", 1, 14),
    ('chart X { x 0; }', "1:13: expected ':', found '0'", 1, 13),
    ('qfield Q on X deg { x -> 1; }', "1:19: expected 'int', found '{'", 1, 19),
    ('qfield Q on X { x = 1; }', "1:19: expected '->', found '='", 1, 19),
    ('sigma S deg 2 pairs { (x:0, p:2, sgn -1); }', "1:34: expected 'sign', found 'sgn'", 1, 34),
    ('sigma S deg 2 { }', "1:15: expected 'pairs', found '{'", 1, 15),
    ('sigma S deg 1 pairs { (x:0, p:1, sign 1/-0); }', '1:41: zero denominator', 1, 41),
    ('ham H on S = x +;', "1:17: expected an expression, found ';'", 1, 17),
    ('ham H on S = d(x;', "1:17: expected ')', found ';'", 1, 17),
    ('ham H on S = x^-1;', "1:16: expected 'int', found '-'", 1, 16),
    ('ham H on S = 1/-2*x;', "1:16: expected 'int', found '-'", 1, 16),
    ('ham H on S = 2/0*x;', '1:16: zero denominator', 1, 16),
    ('form A on T x1;', "1:13: expected '=', found 'x1'", 1, 13),
    ('algebroid A base 1 fiber 2 { rho 1 = 1; }', "1:36: expected 'int', found '='", 1, 36),
    ('algebroid A base 1 fiber 2 { sigma 1 1 = 1; }', "1:36: expected 'rho' or 'c', found 'sigma'", 1, 36),
    ('algebra G dim 2 { ip 1 1 = x; }', "1:28: expected 'int', found 'x'", 1, 28),
    ('algebra G su2;', "1:11: expected 'dim', found 'su2'", 1, 11),
    ('algebra G dim 1 { c 1 1 1 = 1/0; }', '1:31: zero denominator', 1, 31),
    ('twist T base 2 = x;', "1:16: expected 'deg', found '='", 1, 16),
    ('pair P base 2 deg 2 { w 1 = x; }', "1:25: expected 'v' or 'alpha', found 'w'", 1, 25),
    ('pair P base 2 deg 2 { v 1 = x; alpha x; }', "1:38: expected '=', found 'x'", 1, 38),
    ('load mesh M "m.dat";', "1:11: load expects path|grid|complex, found 'mesh'", 1, 11),
    ('save K out.cplx;', "1:11: unexpected character '.'", 1, 11),
    ('save K out;', "1:8: expected 'string', found 'out'", 1, 8),
    ('qfield Q X { x -> 1; }', "1:10: expected 'on', found 'X'", 1, 10),
    ('complex K sphere 3 fiber G;', "1:18: unknown surface 'sphere'", 1, 18),
    ('complex K torus 3 3 base G;', "1:26: expected 'fiber' or 'fiber2', found 'base'", 1, 26),
    ('nmap N on S dim x;', "1:17: expected 'int', found 'x'", 1, 17),
    ('check lemma1 K deg (;', "1:20: unexpected check argument '('", 1, 20),
    ('check q2 Q', "1:11: unexpected check argument ''", 1, 11),
    ('load path P "data/p.apath;\n', '1:13: unterminated string', 1, 13),
    ('chart X { x: 0; }\n  $', "2:3: unexpected character '$'", 2, 3),
    ('quux X;', "1:1: unknown statement 'quux'", 1, 1),
    ('42;', "1:1: expected a statement keyword, found '42'", 1, 1),
    ('chart X { x:0; }\n\n\tqfield Q on X { x -> 1 }', "3:25: expected ';', found '}'", 3, 25),
    ('"chart";', "1:1: expected a statement keyword, found 'chart'", 1, 1),
    ('chart X { x:0; } # comment\nqfield Q on X { x -> @; }', "2:22: unexpected character '@'", 2, 22),
]


@pytest.mark.parametrize("source,message,line,column", MALFORMED)
def test_parse_error_text_and_position(source, message, line, column):
    with pytest.raises(ParseError) as err:
        dsl.parse(source)
    assert (str(err.value), err.value.line, err.value.column) == (message, line, column)


def _statements(st, runnable=False):
    """Per-statement strategies for ASTs in the parser's normal form:
    left-associated sums and products, non-negative numerals, and
    parentheses only where `render` writes them. `runnable` keeps integers
    small and file names to letters, so that the program is cheap and safe
    to run."""
    name = st.from_regex(r"[^\W\d]\w{0,3}", fullmatch=True).filter(
        lambda s: s[0].isalpha() or s[0] == "_")
    n = st.integers(-3, 3) if runnable else st.integers(-30, 30)
    frac = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 9))
    num = st.builds(Fraction, st.integers(0, 10**30), st.integers(1, 9)).map(dsl.Num)

    # `render` writes no parentheses around the right operand of a sum
    summand = st.deferred(lambda: term.filter(
        lambda t: not (isinstance(t, dsl.BinOp) and t.op in "+-")))
    expr = st.deferred(lambda: st.one_of(
        term, st.builds(dsl.BinOp, st.sampled_from("+-"), expr, summand)))
    paren = st.deferred(lambda: st.one_of(
        st.builds(dsl.BinOp, st.sampled_from("+-"), expr, summand), st.builds(dsl.Neg, factor)))
    atom = st.one_of(num, st.builds(dsl.Var, name), st.builds(dsl.DOp, expr), paren)
    power = st.deferred(lambda: st.one_of(atom, st.builds(
        dsl.BinOp, st.just("^"), power, st.integers(0, 9).map(Fraction).map(dsl.Num))))
    factor = st.deferred(lambda: st.one_of(power, st.builds(dsl.Neg, factor)))
    term = st.deferred(lambda: st.one_of(factor, st.builds(dsl.BinOp, st.just("*"), term, factor)))

    lists = st.lists
    fname = st.text("abc" if runnable else st.characters(blacklist_characters='"\n'),
                    max_size=8)
    surface = st.one_of(st.tuples(st.sampled_from(["torus", "cylinder"]), n, n),
                        st.tuples(st.sampled_from(["interval", "disk"]), n))
    check_name = lists(name, min_size=1, max_size=3).map("-".join)
    return st.one_of(
        st.builds(dsl.ChartStmt, name, lists(st.tuples(name, n), max_size=3)),
        st.builds(dsl.QFieldStmt, name, name, n, lists(st.tuples(name, expr), max_size=3)),
        st.builds(dsl.SigmaStmt, name, n, lists(st.tuples(name, n, name, n, frac), max_size=3)),
        st.builds(dsl.HamStmt, name, name, expr),
        st.builds(dsl.FormStmt, name, name, expr),
        st.builds(dsl.AlgebroidStmt, name, n, n, lists(st.tuples(n, n, expr), max_size=2),
                  lists(st.tuples(n, n, n, expr), max_size=2)),
        st.builds(dsl.AlgebraStmt, name, st.sampled_from(["so3", "sl2"]), st.none(),
                  st.just([]), st.just([])),
        st.builds(dsl.AlgebraStmt, name, st.none(), n, lists(st.tuples(n, n, n, frac), max_size=3),
                  lists(st.tuples(n, n, frac), max_size=3)),
        st.builds(dsl.TwistStmt, name, n, n, expr),
        st.builds(dsl.PairStmt, name, n, n, lists(st.tuples(n, expr), max_size=3), expr),
        st.builds(dsl.LoadStmt, st.sampled_from(["path", "grid", "complex"]), name, fname),
        st.builds(dsl.SaveStmt, name, fname),
        st.builds(dsl.ComplexStmt, name, surface, name, st.none()),
        st.builds(dsl.ComplexStmt, name, surface, st.none(), n),
        st.builds(dsl.NMapStmt, name, name, st.none() | n),
        st.builds(dsl.CheckStmt, check_name, lists(
            name | st.integers(0, 10**20).map(str)
            | st.text(st.characters(blacklist_characters='"\n'), max_size=4), max_size=4)))


@pytest.mark.parametrize("source, rendered", [
    ('check dirac TH constraints "a b";', 'check dirac TH constraints "a b";\n'),
    ('check q2 "#";', 'check q2 "#";\n'),
    ('check q2 "-3";', 'check q2 "-3";\n'),
    ('check q2 "x" "12" "";', 'check q2 x 12 "";\n'),
])
def test_render_quotes_string_check_arguments(source, rendered):
    program = dsl.parse(source)
    assert dsl.render(program) == rendered
    assert dsl.parse(rendered) == program


def test_render_parse_roundtrip_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.lists(_statements(st), max_size=6).map(dsl.Program))
    def roundtrip(program):
        assert dsl.parse(dsl.render(program)) == program

    roundtrip()


def test_parse_and_run_fuzz(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    piece = st.one_of(
        st.sampled_from(["²", "٣", "½", "x²", "9" * 5000, "-", "/", "(", ";", "}", "#", '"']),
        # no ASCII digits: a numeral grown to `torus 999 999` would bind for minutes
        st.text(st.characters(blacklist_characters="0123456789"), max_size=3))

    def mutate(source, edits):
        """Replace up to two lexemes at each edit's position, or one numeral,
        by the edit's piece."""
        lexemes = re.findall(r"\s+|\w+|\S", source)
        for at, width, numeral, text in edits:
            numerals = [i for i, lexeme in enumerate(lexemes) if lexeme.isdigit()]
            if numeral and numerals:
                at, width = numerals[at % len(numerals)], 1
            at %= len(lexemes) + 1
            lexemes[at:at + width] = [text]
        return "".join(lexemes)

    programs = st.lists(_statements(st, runnable=True), max_size=4).map(
        lambda statements: dsl.render(dsl.Program(statements)))
    edits = st.lists(st.tuples(st.integers(0, 10**4), st.integers(0, 2), st.booleans(), piece),
                     max_size=3)
    sources = st.one_of(st.text(), st.builds(mutate, programs, edits))
    f = tmp_path_factory.mktemp("fuzz") / "p.gq"

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(sources)
    def run(source):
        try:
            dsl.parse(source)
        except ParseError:
            pass
        f.write_text(source)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["run", str(f), "--steps", "50"])
        assert code in (0, 1, 2)
        if code == 2:
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()

    run()


_VALID_DATA = {
    "grid": "grid 1 2\n" + "".join(f"node {i} {j} 1 0 0 0\n" for i in (0, 1) for j in (0, 1, 2))
            + "cell 0 0 0.25\ncell 0 1 -0.5\n",
    "path": "dim 2\n0 0 -1 1 0\n0.5 0 -2 2 0\n1 0 -1 1 0\n",
    "complex": "gqcomplex 1\ncomponent 0 1\ncomponent 1 2\ncomponent 2 1\n"
               "differential 0\n1\n-1\ndifferential 1\n1 1\npairingdegree 2\n"
               "pairing 0\n1\npairing 1\n0 1\n-1 0\npairing 2\n1\nend\n",
}


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("kind", sorted(_VALID_DATA))
def test_data_file_fuzz(tmp_path_factory, kind):
    """Mutated (non-finite and finite huge values included), truncated and
    arbitrary data files through `load`: exit 0, 1 or 2, and on 2 exactly
    one `error:` line. A path also runs the float checks, so huge samples
    reach the integrator, and its report must be strict JSON."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    piece = st.one_of(
        st.sampled_from(["nan", "inf", "-inf", "1e308", "-1e308", "1e200", "-1e200", "1e154",
                         "1e999", "1e999999999", "-1",
                         "0", "1", "2", "1/0", "1/2", "-3/4", "0.5", "x", "#", "", "\n", "9" * 5000,
                         "99999999999", "٣", "½", "node", "cell", "grid", "dim", "component",
                         "differential", "pairing", "pairingdegree", "end", "gqcomplex"]),
        st.text(max_size=3))
    valid = _VALID_DATA[kind]
    lexemes = re.findall(r"\s+|\S+", valid)
    words = [i for i, lexeme in enumerate(lexemes) if not lexeme.isspace()]

    def mutate(edits):
        """Replace one word of the valid file at each edit's position by the
        edit's piece."""
        out = list(lexemes)
        for at, text in edits:
            out[words[at % len(words)]] = text
        return "".join(out).encode()

    mutated = st.builds(mutate, st.lists(st.tuples(st.integers(0, 10**4), piece),
                                         min_size=1, max_size=3))
    contents = st.one_of(
        mutated, mutated,
        st.integers(0, len(valid)).map(lambda cut: valid[:cut].encode()),
        st.text().map(str.encode), st.binary(max_size=64))
    work = tmp_path_factory.mktemp("fuzz")
    data, f, report = work / "d.dat", work / "p.gq", work / "r.json"
    checks = " check holonomy B B; check reparam B;" if kind == "path" else ""
    f.write_text(f'load {kind} B "d.dat";{checks}')

    def load(content):
        """(exit code, stderr lines) of loading `content`; no warning allowed."""
        data.write_bytes(content)
        report.unlink(missing_ok=True)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = cli_main(["run", str(f), "--steps", "100", "--report", str(report)])
        assert not caught, [str(w.message) for w in caught]
        if code != 2:
            json.loads(report.read_text(), parse_constant=_reject_constant)
        return code, err.getvalue().strip().splitlines()

    assert load(valid.encode()) == (0, [])

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(contents)
    def run(content):
        code, lines = load(content)
        assert code in (0, 1, 2)
        if code == 2:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert lines == []

    run()


def test_report_text_shape():
    rep = execute(dsl.parse(MINIMAL))
    text = report_render(rep, "text").decode()
    assert text.startswith("PASS")
    assert "q2 Q" in text


def test_machine_report_schema_fields():
    rep = execute(dsl.parse(MINIMAL))
    payload = json.loads(report_render(rep, "machine"))
    assert payload["format"] == "gq-report"
    assert payload["summary"] == {"pass": 1, "fail": 0, "degraded-mode": 0}
    rec = payload["checks"][0]
    assert rec["name"] == "q2" and rec["inputs"] == ["Q"] and rec["verdict"] == "pass"
    assert "ms" in rec


def test_machine_report_deterministic():
    opts = Options(seed=7)
    a = report_render(execute(dsl.parse(SIGMA2), Options(seed=7)), "machine", include_timing=False)
    b = report_render(execute(dsl.parse(SIGMA2), Options(seed=7)), "machine", include_timing=False)
    assert a == b


def test_failing_check_is_recorded_not_raised():
    src = """
    sigma C deg 2 pairs { (x1:0, p1:2, sign -1); (x2:0, p2:2, sign -1);
                          (x3:0, p3:2, sign -1); (x4:0, p4:2, sign -1);
                          (theta1:1, chi1:1); (theta2:1, chi2:1);
                          (theta3:1, chi3:1); (theta4:1, chi4:1); }
    ham BAD on C = theta1*p1 + theta2*p2 + theta3*p3 + theta4*p4
                   + x1*theta2*theta3*theta4;
    check master BAD;
    """
    rep = execute(dsl.parse(src))
    assert rep.records[0].verdict == "fail"
    assert "theta" in rep.records[0].witness  # the witness polynomial is printed
    assert not rep.all_ok


def test_degraded_mode_reported():
    src = "algebra G so3; complex K torus 3 3 fiber G; check lemma3 K;"
    rep = execute(dsl.parse(src))
    assert rep.records[0].verdict == "degraded-mode"
    assert rep.all_ok  # degraded is not a failure


def test_empty_program():
    rep = execute(dsl.parse(""))
    assert rep.records == [] and rep.all_ok


def test_duplicate_binding_rejected():
    with pytest.raises(SemanticError):
        execute(dsl.parse("chart X { x:0; } chart X { y:0; }"))


def test_d_operator_needs_tangent_chart():
    with pytest.raises(SemanticError):
        execute(dsl.parse("sigma S deg 1 pairs { (x:0, p:1); } ham H on S = d(x);"))


def test_save_and_load_statements(tmp_path):
    # a closed model round-trips through the interchange format and still
    # satisfies the compatibility identity
    src = """
    algebra G so3;
    complex K torus 3 3 fiber G;
    save K "saved.cplx";
    """
    execute(dsl.parse(src), Options(base_dir=tmp_path))
    assert (tmp_path / "saved.cplx").exists()
    src2 = 'load complex K2 "saved.cplx"; check stokes K2; check moduli K2 dims 3 6 3;'
    rep = execute(dsl.parse(src2), Options(base_dir=tmp_path))
    assert [r.verdict for r in rep.records] == ["pass", "pass"]


def test_missing_load_file_is_semantic_error(tmp_path):
    with pytest.raises(SemanticError):
        execute(dsl.parse('load path P "nope.apath";'), Options(base_dir=tmp_path))


def test_unexpected_exception_in_check_becomes_fail_record():
    # path_a has no base curve, so action_integrate raises ValueError
    src = ('load path P "data/path_a.apath"; load path C "data/const_so3.apath";'
           "check action P; check exp C;")
    rep = execute(dsl.parse(src), Options(base_dir=SUITE))
    assert [r.verdict for r in rep.records] == ["fail", "pass"]
    assert rep.records[0].witness == "error: ValueError: action_integrate needs base samples"
    assert rep.records[0].residual is None


def test_binding_kind_mismatch_in_check_is_semantic_error():
    with pytest.raises(SemanticError, match="expected path"):
        execute(dsl.parse("algebra G so3; check exp G;"))


def test_action_fails_when_base_misses_transport(tmp_path):
    X = np.array([[0.0, -0.5, -1.1], [0.5, 0.0, -0.8], [1.1, 0.8, 0.0]])
    ts = np.linspace(0.0, 1.0, 101)
    base = np.stack([expm(t * X) @ [1.0, 0.0, 0.0] + [0.0, 0.0, 0.012 * t] for t in ts])
    save_apath(APath(ts, np.repeat(X[None], len(ts), axis=0), base), tmp_path / "off.apath")
    rep = execute(dsl.parse('load path A "off.apath"; check action A;'),
                  Options(base_dir=tmp_path))
    assert rep.records[0].verdict == "fail"
    assert "recorded endpoint" in rep.records[0].witness


@pytest.mark.parametrize("kind,text", [
    ("path", "dim 1\n0.0 0.5\n1.0 nan\n"),
    ("grid", "grid 1 1\nnode 0 0 1 0 0 0\nnode 0 1 1 0 0 0\nnode 1 0 1 0 0 0\n"
             "node 1 1 1 0 0 0\ncell 0 0 inf\n"),
    ("grid", "grid 1 1\nnode 0 0 1 0 0 0\nnode 0 1 nan 0 0 0\nnode 1 0 1 0 0 0\n"
             "node 1 1 1 0 0 0\n"),
])
def test_non_finite_load_is_semantic_error(tmp_path, kind, text):
    (tmp_path / "bad.dat").write_text(text)
    with pytest.raises(SemanticError, match="finite"):
        execute(dsl.parse(f'load {kind} B "bad.dat";'), Options(base_dir=tmp_path))


def _rand_base_reference(rng, chart, xnames, top):
    """`session._rand_base` as it drew before `Chart._pack` skipped zero
    exponents, building the monomial as a product of variables."""
    key = [0] * len(chart.gvars)
    for nm in xnames:
        key[chart.index(nm)] = rng.randint(0, top)
    c = Fraction(rng.randint(-2, 2))
    out = chart.const(c)
    for v, e in zip(chart.gvars, key):
        out = out * chart.var(v.name) ** e
    return out


def test_random_sections_keep_their_draws():
    """For a given seed `_rand_base` draws the same numbers in the same order
    and builds the same monomials as before."""
    from gq import courant_chart

    chart = courant_chart(5).chart
    xnames = [f"x{a}" for a in range(1, 6)]
    for seed in (0, 1, 7):
        got, want = random.Random(seed), random.Random(seed)
        for top in (1, 2, 2, 1) * 25:
            assert (session_module._rand_base(got, chart, xnames, top)
                    == _rand_base_reference(want, chart, xnames, top))
        assert got.getstate() == want.getstate()


# -- CLI ----------------------------------------------------------------------


def test_cli_run_suite_file(tmp_path, capsys):
    f = tmp_path / "p.gq"
    f.write_text(MINIMAL)
    code = cli_main(["run", str(f)])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_cli_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.gq"
    bad.write_text("chart X { x:-1; }")
    assert cli_main(["run", str(bad)]) == 2
    failing = tmp_path / "fail.gq"
    failing.write_text(
        "algebroid A base 0 fiber 3 { c 3 1 2 = 1; c 1 2 3 = 1; c 2 3 1 = 1; c 1 3 1 = 1; }\n"
        "check q2 A;\n")
    assert cli_main(["run", str(failing)]) == 1
    syn = tmp_path / "syn.gq"
    syn.write_text("chart X {")
    assert cli_main(["run", str(syn)]) == 2
    capsys.readouterr()


def test_cli_binding_kind_mismatch_exits_2(tmp_path, capsys):
    f = tmp_path / "kind.gq"
    f.write_text("algebra G so3; check exp G;")
    assert cli_main(["run", str(f)]) == 2
    assert "expected path" in capsys.readouterr().err


@pytest.mark.parametrize("option", ["--steps=0", "--steps=-5", "--tolerance=nan",
                                    "--tolerance=inf", "--tolerance=0", "--tolerance=-1e-6"])
def test_cli_out_of_range_option_exits_2(tmp_path, capsys, option):
    f = tmp_path / "p.gq"
    f.write_text(MINIMAL)
    for argv in (["run", str(f)], ["check", "q2", "Q", "-s", MINIMAL]):
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + [option])
        assert exc.value.code == 2
        assert "must be" in capsys.readouterr().err


@pytest.mark.parametrize("source,where", [
    ("sigma S deg 1 pairs { (x:0, p:1, sign 1/0); }", ":1:41:"),
    ("sigma S deg 1 pairs { (x:0, p:1); }\nham H on S = 1/0*x*p;", ":2:16:"),
])
def test_cli_zero_denominator_exits_2(tmp_path, capsys, source, where):
    f = tmp_path / "p.gq"
    f.write_text(source)
    assert cli_main(["run", str(f)]) == 2
    assert f"{where} zero denominator" in capsys.readouterr().err


_LONG = "9" * 5000
_TOO_LONG = "of 5000 digits is too long"


@pytest.mark.parametrize("source,message", [
    ("chart C { x: ²; }", "1:14: unexpected character '²'"),
    ("algebra G dim 1 { ip 1 1 = 1/²; }", "1:30: unexpected character '²'"),
    ("chart C { x: ٣; }", "1:14: unexpected character '٣'"),
    (f"chart C {{ x:0; }}\nham H on C = {_LONG};", f"2:14: integer literal {_TOO_LONG}"),
    (f"chart C {{ x:0; }}\nham H on C = x^{_LONG};", f"2:16: integer literal {_TOO_LONG}"),
    (f"algebra G so3;\ncheck cocycle G modes {_LONG};", f"2:1: cocycle: modes {_TOO_LONG}"),
    (f'algebra G so3;\ncheck cocycle G modes "-{_LONG}";', f"2:1: cocycle: modes {_TOO_LONG}"),
    ('algebra G so3;\ncheck cocycle G modes "٣";',
     "2:1: cocycle: modes must be an integer, got '٣'"),
], ids=["superscript-weight", "superscript-denominator", "arabic-indic-weight",
        "long-coefficient", "long-exponent", "long-check-argument",
        "long-string-argument", "arabic-indic-string-argument"])
def test_cli_numeral_outside_ascii_or_digit_limit_exits_2(tmp_path, capsys, source, message):
    f = tmp_path / "p.gq"
    f.write_text(source)
    assert cli_main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {f}:{message}") and len(err.strip().splitlines()) == 1


_NODES_1X1 = "".join(f"node {i} {j} 1 0 0 0\n" for i in (0, 1) for j in (0, 1))


@pytest.mark.parametrize("kind,text,message", [
    ("grid", "node 0 0 1 0 0 0\ngrid 1 1\n", "before the grid header"),
    ("grid", "grid 1 1\n" + _NODES_1X1 + "node 5 5 1 0 0 0\n", "outside"),
    ("grid", "grid 1 1\n" + _NODES_1X1 + "node -1 -1 1 0 0 0\n", "outside"),
    ("grid", "grid 1 1\n" + _NODES_1X1 + "cell 0 1 0.5\n", "outside"),
    ("grid", "grid 1\n", "needs 2 fields"),
    ("complex", "gqcomplex 1\ncomponent 0 1\ncomponent 1 2\ndifferential 0\n1\n",
     "needs 2 rows"),
    ("complex", "gqcomplex 1\ncomponent 0\n", "needs 2 integer"),
    ("path", "dim\n0 1\n1 1\n", "'dim' header"),
    # a header larger than its node lines is rejected before any allocation
    ("grid", "grid 100000 100000\n" + _NODES_1X1, "has 4 node lines"),
    ("complex", "gqcomplex 1\ncomponent 0 1\ncomponent 1 1\ndifferential 0\n1/0\n",
     "zero denominator in '1/0'"),
    # an exponent would make the entry a billion-digit integer
    ("complex", "gqcomplex 1\ncomponent 0 1\ncomponent 1 1\ndifferential 0\n1e999999999\n",
     "not an integer or p/q: '1e999999999'"),
    # finite values whose differences or squares overflow
    ("path", "dim 1\n0 0\n-1e308 0\n1e308 0\n1 0\n", "times must be non-decreasing"),
    ("grid", "grid 1 1\n" + _NODES_1X1.replace(" 1 0 0 0", " 1e308 0 0 0"),
     "quaternion norms off unit by inf"),
])
def test_cli_malformed_data_file_exits_2(tmp_path, capsys, kind, text, message):
    (tmp_path / "bad.dat").write_text(text)
    f = tmp_path / "p.gq"
    f.write_text(f'load {kind} B "bad.dat";')
    # a warning would print a second stderr line outside the test
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(["run", str(f)]) == 2
    assert not caught, [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


def test_cli_non_finite_residual_fails_with_null(tmp_path, capsys):
    """Finite samples whose holonomy overflows: each float check fails with
    no residual and a witness naming the non-finite one, the report is
    strict JSON, and nothing reaches stderr."""
    (tmp_path / "huge.apath").write_text("dim 1\n0 1e200\n1 1e200\n")
    f, report = tmp_path / "p.gq", tmp_path / "r.json"
    f.write_text('load path P "huge.apath";\ncheck exp P;\ncheck holonomy P P;\n')
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli_main(["run", str(f), "--steps", "10", "--report", str(report)])
    assert not caught, [str(w.message) for w in caught]
    assert code == 1 and capsys.readouterr().err == ""
    checks = json.loads(report.read_text(), parse_constant=_reject_constant)["checks"]
    assert [(c["name"], c["verdict"], c["residual"], c["witness"]) for c in checks] == [
        ("exp", "fail", None, "non-finite residual nan"),
        ("holonomy", "fail", None, "non-finite residual nan")]


def test_cli_negative_nmap_dimension_exits_2(tmp_path, capsys):
    f = tmp_path / "p.gq"
    f.write_text("sigma S deg 1 pairs { (x:0, p:1); } nmap N on S dim -1; check nmap N;")
    assert cli_main(["run", str(f)]) == 2
    assert "N-map source dimension -1 is negative" in capsys.readouterr().err


def test_cli_dorfman_without_samples_exits_2(tmp_path, capsys):
    f = tmp_path / "p.gq"
    f.write_text("sigma S deg 2 pairs { (x:0, p:2, sign -1); (theta:1, chi:1); }\n"
                 "ham TH on S = theta*p;\ncheck dorfman TH samples 0;")
    assert cli_main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert "3:1: dorfman: samples must be at least 1, got 0 (usage: dorfman ham [samples N])" in err
    assert len(err.strip().splitlines()) == 1


def test_cli_semantic_error_names_the_program_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "s.gq").write_text(
        "sigma S deg 2 pairs { (x:0, p:2, sign -1); (theta:1, chi:1); }\n"
        "ham TH on S = theta*p;\ncheck dorfman TH samples 0;")
    assert cli_main(["run", "s.gq"]) == 2
    err = capsys.readouterr().err
    assert err == ("error: s.gq:3:1: dorfman: samples must be at least 1, got 0 "
                   "(usage: dorfman ham [samples N])\n")


def test_cli_moduli_on_complex_with_boundary_exits_2(tmp_path, capsys):
    f = tmp_path / "p.gq"
    f.write_text("algebra G so3; complex CY cylinder 3 1 fiber G; check moduli CY;")
    assert cli_main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {f}:1:49: moduli needs a closed complex\n"


def test_moduli_certifies_euler_characteristic(monkeypatch):
    cohomology = GradedComplex.cohomology
    running = []

    def drop_one_class(self):
        # the total's cohomology is built from its surface factor's; drop
        # the class from the outermost call, the total's, only
        running.append(self)
        try:
            out = cohomology(self)
        finally:
            running.pop()
        if running:
            return out
        dim, reps = out[1]
        out[1] = (dim - 1, reps[1:])
        return out

    monkeypatch.setattr(GradedComplex, "cohomology", drop_one_class)
    (rec,) = execute(dsl.parse("algebra G so3; complex T torus 3 3 fiber G; check moduli T;")).records
    assert (rec.verdict, rec.witness) == (
        "fail", "sum of (-1)^k dim H^k is 1, Euler characteristic 0")


@pytest.mark.parametrize("check", ["pairing S", "dorfman TH samples 2"])
def test_cli_courant_checks_need_weight_zero_base(tmp_path, capsys, check):
    # the even pair is written (p:2, x:0): its q has weight 2, not a base coordinate
    f = tmp_path / "p.gq"
    f.write_text("sigma S deg 2 pairs { (p1:2, x1:0, sign -1); (theta1:1, chi1:1); }\n"
                 f"ham TH on S = theta1*p1;\ncheck {check};")
    assert cli_main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    name = check.split()[0]
    assert err == f"error: {f}:3:1: {name} check needs a standard degree-2 chart\n"


def test_cli_exponent_past_the_bound_exits_2(tmp_path, capsys):
    f = tmp_path / "p.gq"
    f.write_text("sigma S deg 2 pairs { (x1:0, p1:2, sign -1); (theta1:1, chi1:1); }\n"
                 "ham H on S = x1^3000000000*theta1*p1;\ncheck master H;")
    assert cli_main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {f}:2:1: exponent of 'x1' exceeds the largest supported "
                   "exponent 2147483647\n")


@pytest.mark.parametrize("degree", ["0", "-1"])
def test_cli_two_term_fiber_needs_positive_degree(tmp_path, capsys, degree):
    f = tmp_path / "p.gq"
    f.write_text(f"complex S interval 2 fiber2 {degree};\ncheck lemma3 S;")
    assert cli_main(["run", str(f)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {f}:1:1: a two-term fiber needs degree n >= 1, got {degree}\n"


def test_cli_check_semantic_error_has_no_file(capsys):
    code = cli_main(["check", "exp", "G", "-s", "algebra G so3;"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: 2:1: ")


def test_cli_conflicting_algebra_constants_exits_2(tmp_path, capsys):
    f = tmp_path / "p.gq"
    f.write_text("algebra G dim 2 { c 1 1 2 = 1; c 1 2 1 = 1; ip 1 1 = 1; ip 2 2 = 1; }\n"
                 "check jacobi G;")
    assert cli_main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "conflicting structure constants" in err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err


COURANT_1 = "sigma S deg 2 pairs { (x:0, p:2, sign -1); (theta:1, chi:1); }\n"
COURANT_3 = ("sigma S deg 2 pairs { "
             + " ".join(f"(x{a}:0, p{a}:2, sign -1);" for a in (1, 2, 3))
             + " " + " ".join(f"(theta{a}:1, chi{a}:1);" for a in (1, 2, 3)) + " }\n")


@pytest.mark.parametrize("source, where, message", [
    ("chart C { x:0; x:0; }", "1:1", "duplicate variable names in chart"),
    ("sigma S deg 1 pairs { (x:0, p:1); (x:0, q:1); }", "1:1", "duplicate variable names in chart"),
    ("twist T base 2 deg 0 = 0;", "1:1", "fiber weight must be at least 1"),
    ("pair P base 2 deg 0 { alpha = 0; }", "1:1", "fiber weight must be at least 1"),
    ("algebra G dim 2 { ip 3 3 = 1; }", "1:1", "inner product index out of range: (3, 3)"),
    ("algebra G dim 2 { ip 1 1 = 1; ip 2 0 = 1; }", "1:1",
     "inner product index out of range: (2, 0)"),
    (COURANT_1 + "ham TH on S = theta*p;\ncheck dirac TH constraints q9;", "3:1",
     "dirac: constraint 'q9' is not a Darboux coordinate"),
    ("algebroid A base 0 fiber 2 { c 1 1 2 = 1; c 1 2 1 = 0; }\ncheck alground A;", "1:1",
     "conflicting structure functions at (1, 1, 2)"),
    ("algebroid A base 1 fiber 2 { c 1 1 2 = x1; c 1 2 1 = x1; }", "1:1",
     "conflicting structure functions at (1, 1, 2)"),
    ("algebra G dim 2 { c 1 2 1 = 0; c 1 1 2 = 1; ip 1 1 = 1; ip 2 2 = 1; }", "1:1",
     "conflicting structure constants at (1, 1, 2)"),
    ("algebra G so3;\ncheck cocycle G modes 65;", "2:1",
     "cocycle: modes must be at most 64, got 65"),
    # an entry repeated in the same order must repeat its value
    ("algebroid A base 0 fiber 2 { c 1 1 2 = 1; c 1 1 2 = 2; }\ncheck alground A;", "1:1",
     "conflicting structure functions at (1, 1, 2)"),
    ("algebra G dim 2 { c 1 1 2 = 1; c 1 1 2 = 0; ip 1 1 = 1; ip 2 2 = 1; }\ncheck jacobi G;",
     "1:1", "conflicting structure constants at (1, 1, 2)"),
    ("algebroid A base 1 fiber 1 { rho 1 1 = x1; rho 1 1 = 2*x1; }", "1:1",
     "conflicting anchor entries at (1, 1)"),
])
def test_cli_construction_error_exits_2(tmp_path, capsys, source, where, message):
    f = tmp_path / "p.gq"
    f.write_text(source)
    assert cli_main(["run", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {f}:{where}: {message}\n"
    assert captured.out == ""


def test_repeated_table_entry_with_its_value_binds():
    session = analyze(dsl.parse(
        "algebroid A base 1 fiber 2 { rho 1 1 = x1; rho 1 1 = x1; c 1 1 2 = 1; c 1 1 2 = 1; }\n"
        "algebra G dim 2 { c 1 1 2 = 0; c 1 1 2 = 0; ip 1 1 = 1; ip 2 2 = 1; }"))
    A = session.get("A")
    assert list(A.rho) == [(1, 1)] and A.c == {(1, 1, 2): A.chart.const(1)}
    assert session.get("G").brackets == {}


def test_algebra_inner_product_last_assignment_wins():
    # a repeated position is overwritten, not summed, and (i, j) mirrors (j, i)
    session = analyze(dsl.parse(
        "algebra G dim 2 { ip 1 1 = 5; ip 1 1 = 1; ip 2 2 = 1; ip 1 2 = 2; ip 2 1 = 3; }"))
    assert session.get("G").ip.rows == [{0: 1, 1: 3}, {0: 3, 1: 1}]


def test_algebra_form_entries_stay_int():
    source = "algebra G dim 2 { ip 1 1 = 1; ip 2 2 = 1; }\ncheck jacobi G;"
    session = analyze(dsl.parse(source))
    assert all(type(x) is int for row in session.get("G").ip.rows for x in row.values())
    assert [r.verdict for r in execute(dsl.parse(source)).records] == ["pass"]


def _jacobiator_reference(h, pi):
    """The Schouten Jacobiator as a triple loop that differentiates every
    term afresh."""
    dchart = h.dchart
    m = len(dchart.pairs)
    chart = dchart.chart

    def piv(a, b):
        if a == b:
            return chart.zero()
        return pi[(a, b)] if a < b else -pi[(b, a)]

    xs = [p.q_name for p in dchart.pairs]
    return {(a, b, c): chart.sum(
                piv(s, i) * left_derivative(piv(j, k), xs[s - 1])
                for s in range(1, m + 1) for i, j, k in ((a, b, c), (b, c, a), (c, a, b)))
            for a, b, c in itertools.combinations(range(1, m + 1), 3)}


@pytest.mark.parametrize("extra", ["", " + x3*p1*p2 - 2*x1*x4*p2*p9"],
                         ids=["log-canonical", "not-poisson"])
def test_schouten_jacobiator_differentiates_each_pair_once(monkeypatch, extra):
    m, rng = 10, random.Random(3)
    pairs = " ".join(f"(x{a}:0, p{a}:1);" for a in range(1, m + 1))
    terms = " + ".join(f"{rng.choice([-3, -2, -1, 1, 2, 3])}*x{a}*x{b}*p{a}*p{b}"
                       for a, b in itertools.combinations(range(1, m + 1), 2))
    session = analyze(dsl.parse(f"sigma S deg 1 pairs {{ {pairs} }}\n"
                                f"ham H on S = {terms}{extra};"))
    h = session.get("H")
    pi = session_module._bivector_of(h)
    calls = []
    derivative = session_module.left_derivative
    monkeypatch.setattr(session_module, "left_derivative",
                        lambda p, v: calls.append(v) or derivative(p, v))
    jac = session_module._schouten_jacobiator(h, pi)
    assert len(calls) == len(pi) * m == 450
    assert jac == _jacobiator_reference(h, pi)
    assert all(v.is_zero() for v in jac.values()) == (extra == "")


def test_dorfman_rejects_a_twisted_courant_hamiltonian():
    plain = "ham TH on S = theta1*p1 + theta2*p2 + theta3*p3;\n"
    twisted = "ham TH on S = theta1*p1 + theta2*p2 + theta3*p3 + 2*theta1*theta2*theta3;\n"
    for ham, verdict in ((plain, "pass"), (twisted, "fail")):
        rep = execute(dsl.parse(COURANT_3 + ham + "check dorfman TH samples 5;"))
        assert [r.verdict for r in rep.records] == [verdict]
    assert rep.records[0].witness == "derived bracket differs from the Dorfman oracle"


def test_cli_one_shot_check(capsys):
    code = cli_main(["check", "q2", "Q", "-s",
                     "chart X { x:0; xi:1; } qfield Q on X { x -> xi; xi -> 0; }"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_report_written(tmp_path, capsys):
    f = tmp_path / "p.gq"
    f.write_text(MINIMAL)
    out = tmp_path / "r.json"
    assert cli_main(["run", str(f), "--report", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["format"] == "gq-report"
    capsys.readouterr()


def test_cli_checks_listing(capsys):
    assert cli_main(["checks"]) == 0
    out = capsys.readouterr().out
    for name in ("q2", "master", "lemma3", "boundary-lagrangian"):
        assert name in out


# -- dispatch coverage ----------------------------------------------------------

def test_core_check_names_exist():
    for name in ("q2", "master", "jacobi", "dirac", "lemma1", "lemma3",
                 "stokes", "boundary-lagrangian", "cocycle", "holonomy", "reparam"):
        assert name in CHECKS


def test_suite_exercises_every_check():
    used = set()
    for f in sorted(SUITE.glob("*.gq")):
        prog = dsl.parse(f.read_text())
        for st in prog.statements:
            if isinstance(st, dsl.CheckStmt):
                used.add(st.check)
    missing = set(CHECKS) - used
    assert not missing, f"suite never runs: {missing}"


# -- check-argument grammar -------------------------------------------------------

DATA = SUITE / "data"

# one binding of every kind a check form names, one statement per line
BINDINGS = f"""chart X {{ x:0; xi:1; }}
qfield Q on X {{ xi -> 0; x -> xi; }}
sigma S deg 2 pairs {{ (x:0, p:2, sign -1); (theta:1, chi:1); }}
ham TH on S = theta*p;
sigma S1 deg 1 pairs {{ (y1:0, q1:1); (y2:0, q2:1); }}
ham H1 on S1 = y1*q1*q2;
algebroid A base 1 fiber 2 {{ rho 1 1 = 1; c 2 1 2 = x1; }}
algebra G so3;
twist T base 2 deg 1 = 0;
form F on T = x1*xi2;
pair P base 2 deg 2 {{ v 1 = x2; alpha = x1*xi2; }}
complex K torus 3 3 fiber G;
complex CY cylinder 3 1 fiber G;
nmap N on S;
load path PA "{DATA / 'path_a.apath'}";
load path ACT "{DATA / 'action_so3.apath'}";
load grid GA "{DATA / 'grid_a.grid'}";
"""
CHECK_LINE = BINDINGS.count("\n") + 1

# a call of every check that binds, in the form `gq checks` lists
CANONICAL = {
    "q2": "Q", "master": "TH", "jacobi": "G", "cartan": "G",
    "dirac": "TH constraints chi p", "lemma1": "K deg 1", "lemma3": "K", "stokes": "K",
    "boundary-lagrangian": "CY", "cocycle": "G modes 2", "holonomy": "PA PA",
    "reparam": "PA", "exp": "PA", "action": "ACT", "euler": "Q", "scaling": "TH 3",
    "hamround": "TH", "alground": "A", "poisson": "H1", "dorfman": "TH samples 2",
    "pairing": "S", "iota": "P", "pairbracket": "P P", "leibniz": "P P P",
    "skewwitness": "P P", "degbound": "", "moduli": "K dims 3 6 3", "nmap": "N",
    "wzw": "GA GA", "gauge": "T F",
}


def _run_check(tmp_path, capsys, call):
    """`gq run` on BINDINGS plus `check CALL;`; returns (exit code, stderr)."""
    f = tmp_path / "p.gq"
    f.write_text(f"{BINDINGS}check {call};\n")
    code = cli_main(["run", str(f), "--steps", "50"])
    return code, capsys.readouterr().err


def _assert_one_error_line(code, err, where):
    assert code == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and "Traceback" not in err, err
    assert lines[0].startswith(f"error: {where}:{CHECK_LINE}:1: "), lines[0]


def test_canonical_table_covers_every_check():
    assert set(CANONICAL) == set(CHECKS)


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_canonical_check_call_binds(name):
    prog = dsl.parse(f"{BINDINGS}check {name} {CANONICAL[name]};")
    rep = execute(prog, Options(steps=50))
    # the handler took the bound values: no TypeError or other error record
    assert not (rep.records[0].witness or "").startswith("error:")


# each operation the checks must reach, by the function that performs it
CANONICAL_OPS = [
    ga.GPoly.__mul__, ga.left_derivative, ga.GPoly.weight, ga.scaling_check,
    nq.apply_derivation, nq.commutator, nq.q_square, ga.Chart.degree, nq.euler_field,
    sig.poisson_bracket, sig.hamiltonian_to_q, sig.q_to_hamiltonian, sig.master_equation,
    sig.algebroid_to_q, sig.q_to_algebroid, sig.derived_bracket, sig.lambda_check,
    ext.twisted_q, ext.gauge_change, ext.cartan_3form, ext.central_extension,
    ext.affine_cocycle_check, ext.iota_encode, ext.symmetry_bracket, grids.wzw_product,
    apath.integrate, apath.concatenate, apath.reparametrize_check, apath.action_integrate,
    cx.GradedComplex.cohomology, cx.cohomology_pairing, cx.lemma3_orthogonality,
    cx.boundary_lagrangian, cx.suspension_check, cx.lattice_model, cx.nmap_space,
]


def test_every_operation_reachable_from_dispatch_table():
    """Running BINDINGS and the canonical call of every check through
    `execute` enters the code of every canonical operation."""
    prog = dsl.parse(BINDINGS + "".join(f"check {n} {a};\n" for n, a in CANONICAL.items()))
    with entered_code() as entered:
        execute(prog, Options(steps=50))
    missing = [fn.__qualname__ for fn in CANONICAL_OPS if fn.__code__ not in entered]
    assert not missing, f"operations no check reaches: {missing}"


def test_each_check_is_bound_once(monkeypatch):
    """`analyze` binds each check statement's arguments once and `execute`
    runs on those bindings."""
    bound = []
    bind = session_module._check_args

    def counted(session, st):
        bound.append(st)
        return bind(session, st)

    monkeypatch.setattr(session_module, "_check_args", counted)
    prog = dsl.parse(MINIMAL + " check euler Q; check q2 Q;")
    assert [r.verdict for r in execute(prog).records] == ["pass"] * 3
    assert bound == [st for st in prog.statements if isinstance(st, dsl.CheckStmt)]


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_stray_check_argument_exits_2(tmp_path, capsys, name):
    args = CANONICAL[name]
    # `NAME...` takes every trailing token, so dirac's stray goes before it
    call = (f"{name} TH G constraints chi p" if name == "dirac"
            else f"{name} {args} G")
    code, err = _run_check(tmp_path, capsys, call)
    _assert_one_error_line(code, err, tmp_path / "p.gq")


@pytest.mark.parametrize("name", sorted(set(CHECKS) - {"degbound"}))
def test_dropped_check_argument_exits_2(tmp_path, capsys, name):
    call = f"{name} {' '.join(CANONICAL[name].split()[1:])}"    # without the first
    code, err = _run_check(tmp_path, capsys, call)
    _assert_one_error_line(code, err, tmp_path / "p.gq")


@pytest.mark.parametrize("call,message", [
    ("cocycle G 3 4 5", "cocycle: unexpected argument '3'"),
    ("cocycle G 3", "cocycle: unexpected argument '3'"),
    ("dorfman TH 5", "dorfman: unexpected argument '5'"),
    ("moduli K 3 3", "moduli: unexpected argument '3'"),
    ("jacobi G G G", "jacobi: unexpected argument 'G'"),
    ("jacobi", "jacobi: missing algebra"),
    ("cocycle G modes x", "cocycle: modes must be an integer, got 'x'"),
    ("cocycle G modes 0", "cocycle: modes must be at least 1, got 0"),
    ("lemma1 K", "lemma1: missing deg N"),
    ("lemma1 K 2", "lemma1: missing deg N"),
    ("lemma1 K deg 7", "lemma1: deg must be 1, 2 or 3, got 7"),
    ("lemma1 K deg", "lemma1: missing N after 'deg'"),
    ("dirac TH constraints", "dirac: missing NAME... after 'constraints'"),
    ("dirac TH chi p", "dirac: missing constraints NAME..."),
    ("moduli K dims 3 x", "moduli: dims must be an integer, got 'x'"),
    ("scaling TH 0", "scaling: N must be at least 1, got 0"),
    ("q2 G", "'G' is a algebra, expected qfield or algebroid or twist or ham"),
    ("degbound 1", "degbound: unexpected argument '1'"),
])
def test_malformed_check_arguments_exit_2(tmp_path, capsys, call, message):
    code, err = _run_check(tmp_path, capsys, call)
    _assert_one_error_line(code, err, tmp_path / "p.gq")
    assert message in err


def test_malformed_check_stops_before_any_check_runs(tmp_path, capsys):
    code, err = _run_check(tmp_path, capsys, "q2 Q; check jacobi G G")
    assert code == 2 and "jacobi: unexpected argument 'G'" in err
    assert capsys.readouterr().out == ""


def test_cli_checks_lists_each_form(capsys):
    assert cli_main(["checks"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(CHECKS)
    for line, name in zip(lines, sorted(CHECKS)):
        _, form, description = CHECKS[name]
        pattern = rf"{re.escape(name)} +{re.escape(form)} +{re.escape(description)}"
        assert re.fullmatch(pattern, line), line


def test_check_arguments_fuzz(tmp_path_factory):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    tokens = st.one_of(
        st.sampled_from(["Q", "TH", "H1", "A", "G", "T", "F", "P", "K", "CY", "N", "S",
                         "PA", "ACT", "GA", "chi", "p", "modes", "samples", "deg",
                         "dims", "constraints"]),
        st.integers(0, 5).map(str))
    f = tmp_path_factory.mktemp("fuzz") / "p.gq"

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(name=st.sampled_from(sorted(CHECKS)),
                      args=st.lists(tokens, max_size=5))
    def run(name, args):
        f.write_text(f"{BINDINGS}check {name} {' '.join(args)};\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(["run", str(f), "--steps", "50"])
        assert code in (0, 1, 2)
        # a malformed argument is never a Python error inside a check
        assert not re.search(r"error: (IndexError|TypeError|KeyError)|invalid literal",
                             out.getvalue())
        if code == 2:
            lines = err.getvalue().strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), err.getvalue()

    run()
