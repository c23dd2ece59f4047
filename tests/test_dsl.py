"""Parser, session execution, reports, CLI, and dispatch coverage."""

import contextlib
import io
import json
import re
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from gq import APath, dsl, save_apath
from gq.cli import main as cli_main
from gq.errors import ParseError, SemanticError
from gq.session import CHECKS, Options, analyze, execute, report_render, run_source

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
    rep = run_source(SIGMA2)
    assert rep.records[0].verdict == "pass"


def test_negative_weight_is_semantic_error():
    with pytest.raises(SemanticError) as err:
        run_source("chart X { x:-1; }")
    assert "negative weight" in str(err.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as err:
        dsl.parse("chart X { x:0")
    assert err.value.line >= 1 and err.value.column >= 1


def test_unknown_identifier_is_semantic_error():
    with pytest.raises(SemanticError):
        run_source("check q2 NOPE;")


def test_wrong_weight_hamiltonian_is_semantic_error():
    with pytest.raises(SemanticError):
        run_source("sigma S deg 1 pairs { (x:0, p:1); } ham H on S = p;")


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


def test_report_text_shape():
    rep = run_source(MINIMAL)
    text = report_render(rep, "text").decode()
    assert text.startswith("PASS")
    assert "q2 Q" in text


def test_machine_report_schema_fields():
    rep = run_source(MINIMAL)
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
    rep = run_source(src)
    assert rep.records[0].verdict == "fail"
    assert "theta" in rep.records[0].witness  # the witness polynomial is printed
    assert not rep.all_ok


def test_degraded_mode_reported():
    src = "algebra G so3; complex K torus 3 3 fiber G; check lemma3 K;"
    rep = run_source(src)
    assert rep.records[0].verdict == "degraded-mode"
    assert rep.all_ok  # degraded is not a failure


def test_empty_program():
    rep = run_source("")
    assert rep.records == [] and rep.all_ok


def test_duplicate_binding_rejected():
    with pytest.raises(SemanticError):
        run_source("chart X { x:0; } chart X { y:0; }")


def test_d_operator_needs_tangent_chart():
    with pytest.raises(SemanticError):
        run_source("sigma S deg 1 pairs { (x:0, p:1); } ham H on S = d(x);")


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
])
def test_cli_malformed_data_file_exits_2(tmp_path, capsys, kind, text, message):
    (tmp_path / "bad.dat").write_text(text)
    f = tmp_path / "p.gq"
    f.write_text(f'load {kind} B "bad.dat";')
    assert cli_main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert message in err and len(err.strip().splitlines()) == 1


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


@pytest.mark.parametrize("check", ["pairing S", "dorfman TH samples 2"])
def test_cli_courant_checks_need_weight_zero_base(tmp_path, capsys, check):
    # the even pair is written (p:2, x:0): its q has weight 2, not a base coordinate
    f = tmp_path / "p.gq"
    f.write_text("sigma S deg 2 pairs { (p1:2, x1:0, sign -1); (theta1:1, chi1:1); }\n"
                 f"ham TH on S = theta1*p1;\ncheck {check};")
    assert cli_main(["run", str(f)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {f}:3:1: dorfman check needs a standard degree-2 chart\n"


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
])
def test_cli_construction_error_exits_2(tmp_path, capsys, source, where, message):
    f = tmp_path / "p.gq"
    f.write_text(source)
    assert cli_main(["run", str(f)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {f}:{where}: {message}\n"
    assert captured.out == ""


def test_algebra_inner_product_last_assignment_wins():
    # a repeated position is overwritten, not summed, and (i, j) mirrors (j, i)
    session = analyze(dsl.parse(
        "algebra G dim 2 { ip 1 1 = 5; ip 1 1 = 1; ip 2 2 = 1; ip 1 2 = 2; ip 2 1 = 3; }"))
    assert session.get("G").ip.rows == [{0: 1, 1: 3}, {0: 3, 1: 1}]


def test_dorfman_rejects_a_twisted_courant_hamiltonian():
    plain = "ham TH on S = theta1*p1 + theta2*p2 + theta3*p3;\n"
    twisted = "ham TH on S = theta1*p1 + theta2*p2 + theta3*p3 + 2*theta1*theta2*theta3;\n"
    for ham, verdict in ((plain, "pass"), (twisted, "fail")):
        rep = run_source(COURANT_3 + ham + "check dorfman TH samples 5;")
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

CANONICAL_OPS = {
    # graded_algebra
    "multiply", "left_derivative", "weight_of", "scaling_check",
    # nq_core
    "apply", "commutator", "q_square", "manifold_degree", "euler_field",
    # sigma_structures
    "poisson_bracket", "hamiltonian_to_q", "q_to_hamiltonian",
    "master_equation", "algebroid_to_q", "q_to_algebroid", "derived_bracket",
    "lambda_check",
    # extensions
    "twisted_q", "gauge_change", "cartan_3form", "central_extension",
    "wzw_product", "affine_cocycle_check", "iota_encode", "symmetry_bracket",
    # apath
    "integrate", "concatenate", "reparametrize_check", "action_integrate",
    # complexes
    "cohomology", "cohomology_pairing", "lemma3_orthogonality",
    "boundary_lagrangian", "suspension_check", "lattice_model", "nmap_space",
}


def test_every_operation_reachable_from_dispatch_table():
    covered = set()
    for _, _, ops, _ in CHECKS.values():
        covered |= set(ops)
    missing = CANONICAL_OPS - covered
    assert not missing, f"operations with no DSL route: {missing}"


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
    # every check in the dispatch table appears in the shipped suite,
    # except the purely auxiliary ones listed here
    optional = {"exp", "action"}  # exercised too; keep assertion strict anyway
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
        _, form, _, description = CHECKS[name]
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
