"""Acceptance criteria, one test per criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Tolerances and sample counts are fixed here, not configurable.
"""

import json
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

import gq
from gq import dsl
from gq.cli import main as cli_main
from gq.session import Options, execute, report_render
from conftest import homogeneous_pieces, random_poly, so3_matrix, smooth_so3_path
from models import circle_complex, double_complex, poisson_chart, poisson_theta

SUITE = Path(__file__).resolve().parent.parent / "suite"
F = Fraction


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}".rstrip())
    assert ok, f"{name}: {detail}"


# -- 1. Koszul kernel ---------------------------------------------------------


def test_criterion_01_koszul_kernel():
    """Supercommutativity, associativity, Leibniz on >= 10^4 random
    polynomials, exact, under 30 s."""
    chart = gq.Chart.build(("x", 0), ("y", 0), ("xi1", 1), ("xi2", 1), ("xi3", 1))
    rng = random.Random(1)
    t0 = time.time()
    checked = 0
    while checked < 10_000:
        p0 = random_poly(chart, rng)
        q0 = random_poly(chart, rng)
        r0 = random_poly(chart, rng)
        checked += 3
        assert (p0 * q0) * r0 == p0 * (q0 * r0)
        for p in homogeneous_pieces(p0):
            for q in homogeneous_pieces(q0):
                s = -1 if (p.weight() % 2) * (q.weight() % 2) else 1
                assert p * q == s * (q * p)
        v = chart.gvars[rng.randrange(len(chart.gvars))]
        for p in homogeneous_pieces(p0):
            s = -1 if v.parity * (p.weight() % 2) else 1
            lhs = gq.left_derivative(p * q0, v.name)
            assert lhs == gq.left_derivative(p, v.name) * q0 + s * p * gq.left_derivative(q0, v.name)
    elapsed = time.time() - t0
    _report("criterion 1 (Koszul kernel)", elapsed < 30.0,
            f"{checked} polynomials in {elapsed:.1f}s")


# -- 2. Q^2 = 0 equivalences -----------------------------------------------------


def _jacobi_oracle(c, dim=3):
    """Independent structure-constant Jacobi check (no polynomial machinery)."""
    def s(k, i, j):
        if i == j:
            return F(0)
        if (k, i, j) in c:
            return c[(k, i, j)]
        if (k, j, i) in c:
            return -c[(k, j, i)]
        return F(0)

    for i in range(1, dim + 1):
        for j in range(i + 1, dim + 1):
            for k in range(j + 1, dim + 1):
                for t in range(1, dim + 1):
                    total = F(0)
                    for u in range(1, dim + 1):
                        total += s(u, j, k) * s(t, i, u)
                        total += s(u, k, i) * s(t, j, u)
                        total += s(u, i, j) * s(t, k, u)
                    if total != 0:
                        return False
    return True


def test_criterion_02_q_square_equivalences():
    # (a) de Rham on T[1]R^m, m <= 4
    for m in (1, 2, 3, 4):
        assert gq.q_square(gq.TangentChart(m).de_rham()).is_zero()
    # (b) CE for so(3), sl(2), and 20 random 3-dim structure tables
    tables = [
        {(3, 1, 2): F(1), (1, 2, 3): F(1), (2, 3, 1): F(1)},                  # so(3)
        {(2, 1, 2): F(2), (3, 1, 3): F(-2), (1, 2, 3): F(1)},                 # sl(2)
    ]
    rng = random.Random(2)
    while len(tables) < 22:
        c = {}
        for k in (1, 2, 3):
            for i in (1, 2, 3):
                for j in range(i + 1, 4):
                    v = rng.randint(-1, 1)
                    if v and rng.random() < 0.6:
                        c[(k, i, j)] = F(v)
        tables.append(c)
    agree = 0
    outcomes = {True: 0, False: 0}
    for c in tables:
        Q = gq.algebroid_to_q(gq.AlgebroidData(0, 3, {}, c))
        flat = gq.q_square(Q).is_zero()
        oracle = _jacobi_oracle(c)
        agree += flat == oracle
        outcomes[oracle] += 1
    _report("criterion 2 (Q^2 = 0 equivalences)",
            agree == len(tables) and outcomes[True] > 0 and outcomes[False] > 0,
            f"{agree}/{len(tables)} agreement, outcomes {dict(outcomes)}")


# -- 3. Sigma_1 <-> Poisson ------------------------------------------------------


def test_criterion_03_poisson():
    dc = poisson_chart(3)
    rng = random.Random(3)
    xnames = ["x1", "x2", "x3"]

    def rand_deg2(chart):
        p = chart.zero()
        for _ in range(rng.randint(1, 2)):
            key = [0] * len(chart.gvars)
            total = 0
            for nm in xnames:
                e = rng.randint(0, 2 - total if total < 2 else 0)
                key[chart.index(nm)] = e
                total += e
            p = p + chart.monomial(F(rng.randint(-2, 2)), tuple(key))
        return p

    def schouten_flat(pi):
        def piv(a, b):
            if a == b:
                return dc.zero()
            return pi[(a, b)] if a < b else -pi[(b, a)]

        for a in (1,):
            for b in (2,):
                for c in (3,):
                    acc = dc.zero()
                    for s in (1, 2, 3):
                        xs = f"x{s}"
                        acc = acc + piv(s, a) * gq.left_derivative(piv(b, c), xs)
                        acc = acc + piv(s, b) * gq.left_derivative(piv(c, a), xs)
                        acc = acc + piv(s, c) * gq.left_derivative(piv(a, b), xs)
                    if not acc.is_zero():
                        return False
        return True

    agree = derived_ok = 0
    outcomes = {True: 0, False: 0}
    for _ in range(50):
        pi = {(a, b): rand_deg2(dc.chart) for (a, b) in ((1, 2), (1, 3), (2, 3))}
        theta = poisson_theta(dc, pi)
        flat = gq.master_equation(dc, theta).is_zero()
        agree += flat == schouten_flat(pi)
        outcomes[flat] += 1
        good = all(
            gq.derived_bracket(dc, theta, dc.var(f"x{a}"), dc.var(f"x{b}")) == pi[(a, b)]
            for (a, b) in pi)
        derived_ok += good
    _report("criterion 3 (Poisson)",
            agree == 50 and derived_ok == 50 and outcomes[True] and outcomes[False],
            f"oracle agreement 50/50, derived bracket exact 50/50, outcomes {dict(outcomes)}")


# -- 4. Sigma_2 <-> Courant -------------------------------------------------------


def test_criterion_04_courant():
    rng = random.Random(4)
    m = 3
    cc = gq.courant_chart(m)
    theta = gq.courant_theta(cc)
    tc = gq.TangentChart(m)
    xnames = [f"x{a}" for a in range(1, m + 1)]

    def rand_deg2(chart):
        p = chart.zero()
        for _ in range(rng.randint(1, 2)):
            key = [0] * len(chart.gvars)
            total = 0
            for nm in xnames:
                e = rng.randint(0, 2 - total if total < 2 else 0)
                key[chart.index(nm)] = e
                total += e
            p = p + chart.monomial(F(rng.randint(-2, 2)), tuple(key))
        return p

    def to_tc(p):
        out = tc.chart.zero()
        for key, coeff in p.terms.items():
            exps = [0] * len(tc.chart.gvars)
            for a in range(m):
                exps[a] = key[cc.chart.index(xnames[a])]
            out = out + tc.chart.monomial(coeff, tuple(exps))
        return out

    def from_tc(p):
        out = cc.chart.zero()
        for key, coeff in p.terms.items():
            exps = [0] * len(cc.chart.gvars)
            for a in range(m):
                exps[cc.chart.index(xnames[a])] = key[a]
            out = out + cc.chart.monomial(coeff, tuple(exps))
        return out

    exact = 0
    for _ in range(100):
        X = [rand_deg2(cc.chart) for _ in range(m)]
        xi = [rand_deg2(cc.chart) for _ in range(m)]
        Y = [rand_deg2(cc.chart) for _ in range(m)]
        zeta = [rand_deg2(cc.chart) for _ in range(m)]
        got = gq.derived_bracket(cc, theta, gq.section_encode(cc, X, xi),
                                 gq.section_encode(cc, Y, zeta))
        sec1 = ([to_tc(f) for f in X],
                sum((to_tc(f) * tc.xi(a + 1) for a, f in enumerate(xi)), tc.chart.zero()))
        sec2 = ([to_tc(f) for f in Y],
                sum((to_tc(f) * tc.xi(a + 1) for a, f in enumerate(zeta)), tc.chart.zero()))
        vec, form = gq.dorfman_bracket(tc, sec1, sec2)
        want = gq.section_encode(
            cc, [from_tc(v) for v in vec],
            [from_tc(gq.left_derivative(form, tc.xi_names[a])) for a in range(m)])
        exact += got == want

    # twisted case over a 4-dim base: master = 0 iff d eta = 0
    import itertools

    cc4 = gq.courant_chart(4)
    de_rham = gq.Derivation(cc4.chart, 1,
                            {f"x{a}": cc4.var(f"theta{a}") for a in range(1, 5)})
    x4names = [f"x{a}" for a in range(1, 5)]
    agree = 0
    outcomes = {True: 0, False: 0}
    for _ in range(50):
        eta = cc4.zero()
        for _ in range(rng.randint(1, 2)):
            key = [0] * len(cc4.chart.gvars)
            for nm in x4names:
                key[cc4.chart.index(nm)] = rng.randint(0, 1)
            coeff = cc4.chart.monomial(F(rng.randint(-2, 2)), tuple(key))
            a, b, c = rng.choice(list(itertools.combinations((1, 2, 3, 4), 3)))
            eta = eta + coeff * cc4.var(f"theta{a}") * cc4.var(f"theta{b}") * cc4.var(f"theta{c}")
        th = gq.courant_theta(cc4, eta)
        flat = gq.master_equation(cc4, th).is_zero()
        agree += flat == de_rham(eta).is_zero()
        outcomes[flat] += 1
    _report("criterion 4 (Courant)",
            exact == 100 and agree == 50 and outcomes[True] and outcomes[False],
            f"Dorfman exact 100/100, twisted agreement 50/50, outcomes {dict(outcomes)}")


# -- 5. degree bound ---------------------------------------------------------------


def test_criterion_05_degree_bound():
    rng = random.Random(5)
    rejected = 0
    total = 60
    for _ in range(total):
        n = rng.randint(0, 4)
        w = rng.randint(n + 1, n + 6) * rng.choice([-1, 1])
        wq, wp = (w, n - w)
        try:
            gq.sigma_structures.DarbouxChart(
                n, [gq.sigma_structures.ConjugatePair("a", wq, "b", wp)])
        except gq.GqError:
            rejected += 1
    _report("criterion 5 (degree bound)", rejected == total,
            f"{rejected}/{total} out-of-range charts rejected")


# -- 6. central extension ------------------------------------------------------------


def test_criterion_06_central_extension():
    ok = True
    for g in (gq.so3(), gq.sl2()):
        ce = gq.central_extension(g)
        ok &= ce.jacobi_violation() is None
        ok &= ce.q_derivation_violation() is None
        ok &= ce.q_square_is_zero()
    g = gq.so3()
    t0 = time.time()
    ok &= gq.affine_cocycle_check(g, 4)
    ok &= not gq.affine_cocycle_check(g, 4, gq.broken_cocycle(g))
    _report("criterion 6 (central extension)", ok,
            f"exhaustive Jacobi + cocycle N=4 in {time.time() - t0:.1f}s")


# -- 7. symmetry pairs ------------------------------------------------------------------


def test_criterion_07_symmetry_pairs():
    rng = random.Random(7)
    m, n = 3, 2
    tw = gq.TwistData(m, n)
    tc = tw.tangent
    Q = gq.twisted_q(tw)

    def rand0():
        p = tc.chart.zero()
        for _ in range(rng.randint(1, 2)):
            key = [0] * len(tc.chart.gvars)
            for a in range(m):
                key[tc.chart.index(tc.x_names[a])] = rng.randint(0, 1)
            p = p + tc.chart.monomial(F(rng.randint(-1, 1)), tuple(key))
        return p

    def rand_pair():
        v = [rand0() for _ in range(m)]
        alpha = sum((rand0() * tc.xi(a + 1) for a in range(m)), tc.chart.zero())
        return gq.SymmetryPair(m, n, v, alpha)

    leibniz_ok = 0
    for _ in range(100):
        s1, s2, s3 = rand_pair(), rand_pair(), rand_pair()
        lhs = gq.symmetry_bracket(s1, gq.symmetry_bracket(s2, s3))
        r1 = gq.symmetry_bracket(gq.symmetry_bracket(s1, s2), s3)
        r2 = gq.symmetry_bracket(s2, gq.symmetry_bracket(s1, s3))
        leibniz_ok += (lhs.v == [a + b for a, b in zip(r1.v, r2.v)]
                       and lhs.alpha == r1.alpha + r2.alpha)

    decode_ok = 0
    for _ in range(30):
        s1, s2 = rand_pair(), rand_pair()
        br = gq.symmetry_bracket(s1, s2)
        dec = gq.pair_decode(s1, gq.commutator(
            gq.commutator(Q, gq.iota_encode(s1)), gq.iota_encode(s2)))
        decode_ok += dec == br

    iota_ok = 0
    outcomes = {True: 0, False: 0}
    for trial in range(100):
        s = rand_pair()
        if trial % 3 == 0:
            alpha = rand0() * tc.xi(2) + rand0() * tc.xi(3)
            s = gq.SymmetryPair(m, n, [s.v[0], tc.zero(), tc.zero()], alpha)
        zero = gq.iota_self_bracket(s).is_zero()
        iota_ok += zero == tc.iota(s.v, s.alpha).is_zero()
        outcomes[zero] += 1

    # concrete non-skew witness, recorded
    w1 = gq.SymmetryPair(m, n, [tc.one()] + [tc.zero()] * (m - 1), tc.zero())
    w2 = gq.SymmetryPair(m, n, [tc.zero()] * m, tc.x(2) * tc.xi(1))
    b12, b21 = gq.symmetry_bracket(w1, w2), gq.symmetry_bracket(w2, w1)
    witness = not (b12.v == [-c for c in b21.v] and b12.alpha == -b21.alpha)

    ok = (leibniz_ok == 100 and decode_ok == 30 and iota_ok == 100
          and witness and outcomes[True] and outcomes[False])
    _report("criterion 7 (symmetry pairs)", ok,
            f"Leibniz {leibniz_ok}/100, decode {decode_ok}/30, iota {iota_ok}/100, "
            f"witness defect alpha = {b12.alpha + b21.alpha}")


# -- 8. A-paths --------------------------------------------------------------------------


def test_criterion_08_apaths():
    t0 = time.time()
    nprng = np.random.default_rng(8)
    # constant-path holonomy vs the exponential oracle
    exp_ok = True
    for _ in range(3):
        v = nprng.normal(size=3)
        v = v / np.linalg.norm(v) * nprng.uniform(0.5, 2.0)
        X = so3_matrix(v)
        g = gq.integrate(gq.constant_path(X), 10_000).holonomy
        exp_ok &= float(np.max(np.abs(g - expm(X)))) < 1e-8
    # concatenation homomorphism and reparametrization residuals
    p, q = smooth_so3_path(nprng), smooth_so3_path(nprng)
    concat_res = float(np.max(np.abs(
        gq.integrate(gq.concatenate(p, q), 10_000).holonomy
        - gq.integrate(p, 10_000).holonomy @ gq.integrate(q, 10_000).holonomy)))
    s = np.linspace(0, 1, 2001)
    phi = np.stack([s, np.sin(np.pi * s / 2)], axis=1)
    reparam_res = gq.reparametrize_check(smooth_so3_path(nprng, segments=2000), phi, 10_000)
    # observed convergence order vs a Richardson-extrapolated reference
    ts = np.linspace(0, 1, 11)
    c = nprng.normal(size=(3, 3)) * 2.0
    mats = np.stack([so3_matrix(c[0] * np.sin(2 * t) + c[1] * t + c[2] * np.cos(3 * t))
                     for t in ts])
    path = gq.APath(ts, mats)
    g1, g2 = gq.integrate(path, 1280).holonomy, gq.integrate(path, 2560).holonomy
    ref = g2 + (g2 - g1) / 15.0
    errs = [float(np.max(np.abs(gq.integrate(path, N).holonomy - ref)))
            for N in (20, 40, 80)]
    orders = [float(np.log2(errs[i] / errs[i + 1])) for i in range(2)]
    elapsed = time.time() - t0
    ok = (exp_ok and concat_res < 1e-6 and reparam_res < 1e-6
          and all(abs(o - 4.0) <= 0.3 for o in orders) and elapsed < 60.0)
    _report("criterion 8 (A-paths)", ok,
            f"concat {concat_res:.1e}, reparam {reparam_res:.1e}, "
            f"orders {[f'{o:.2f}' for o in orders]}, {elapsed:.0f}s")


# -- 9. appendix lemmas ---------------------------------------------------------------------


def test_criterion_09_appendix():
    rng = random.Random(9)
    # Lemma 1 for n in {1,2,3} on three base complexes
    bases = [gq.GradedComplex({0: 1}, {}), circle_complex(4),
             gq.GradedComplex({0: 2, 1: 2}, {0: [[F(1), F(0)], [F(0), F(0)]]})]
    lemma1_ok = all(gq.suspension_check(C0, n).shifted_matches
                    for C0 in bases for n in (1, 2, 3))
    # Lemma 3 equality on nondegenerate doubles and the interval model
    doubles_ok = True
    for _ in range(5):
        d0, d1 = rng.randint(1, 3), rng.randint(1, 3)
        M = [[F(rng.randint(-2, 2)) for _ in range(d0)] for _ in range(d1)]
        S = double_complex(gq.GradedComplex({0: d0, 1: d1}, {0: M}), 2)
        rep = gq.lemma3_orthogonality(gq.closed_relative(S))
        doubles_ok &= rep.mode == "strict" and rep.equality
    interval = gq.lemma3_orthogonality(gq.lattice_model(("interval", 4), gq.two_term_fiber(2)))
    interval_ok = interval.equality and interval.quotient_nondegenerate
    # boundary Lagrangian on the cylinder
    cyl = gq.boundary_lagrangian(gq.lattice_model(("cylinder", 3, 2), gq.so3()))
    cyl_ok = cyl.isotropic and cyl.lagrangian and cyl.boundary_h_dim == 2 * cyl.image_dim
    # Stokes exactness on every constructed relative complex
    stokes_ok = all(
        gq.lattice_model(surf, fib).stokes_violation() is None
        for surf, fib in [(("interval", 3), gq.two_term_fiber(1)),
                          (("cylinder", 3, 2), gq.so3()),
                          (("torus", 3, 3), gq.so3()),
                          (("disk", 2), gq.sl2())])
    ok = lemma1_ok and doubles_ok and interval_ok and cyl_ok and stokes_ok
    _report("criterion 9 (appendix lemmas)", ok,
            f"lemma1 {lemma1_ok}, doubles {doubles_ok}, interval {interval_ok}, "
            f"cylinder {cyl_ok}, stokes {stokes_ok}")


# -- 10. flat-connection moduli ----------------------------------------------------------------


def test_criterion_10_moduli():
    t0 = time.time()
    ok = True
    for m in (3, 4):
        cp = gq.cohomology_pairing(gq.lattice_model(("torus", m, m), gq.so3()).total)
        ok &= cp.dims == {0: 3, 1: 6, 2: 3}
        # the H^1 block is a symplectic form
        block = cp.blocks[1]
        ok &= gq.linalg.rank(block) == 6
        ok &= cp.nondegenerate
    elapsed = time.time() - t0
    _report("criterion 10 (moduli)", ok and elapsed < 10.0,
            f"H = (3, 6, 3) for (3,3) and (4,4), H^1 pairing rank 6, {elapsed:.1f}s")


# -- 11. N-map spaces ----------------------------------------------------------------------------


def test_criterion_11_nmap():
    from math import comb

    ok = True
    for m in (1, 2, 3):
        N = gq.nmap_space(poisson_chart(m), 1)
        ok &= N.total_dim == 2 * m and N.nondegenerate
    N1 = gq.nmap_space(poisson_chart(1), 1)
    ok &= N1.pairing == [[F(0), F(1)], [F(-1), F(0)]]
    N2 = gq.nmap_space(gq.courant_chart(1), 2)
    ok &= [(w, d) for _, w, d in N2.components] == [(0, 1), (2, 1), (1, 2), (1, 2)]
    ok &= all(d == comb(2, w) for _, w, d in N2.components)
    ok &= N2.nondegenerate
    _report("criterion 11 (N-map spaces)", ok, "T*P canonical block, binomial dims")


# -- 12. CLI end-to-end -----------------------------------------------------------------------------


def test_criterion_12_cli_suite(capsys, tmp_path):
    files = sorted(SUITE.glob("*.gq"))
    assert files, "verification suite missing"
    all_ok = True
    for f in files:
        code = cli_main(["run", str(f), "--seed", "11"])
        all_ok &= code == 0
    capsys.readouterr()
    # byte-stable machine reports under a fixed seed (timing excluded)
    prog = dsl.parse((SUITE / "03_courant.gq").read_text())
    a = report_render(execute(prog, Options(seed=11)), "machine", include_timing=False)
    b = report_render(execute(prog, Options(seed=11)), "machine", include_timing=False)
    stable = a == b
    payload = json.loads(a)
    _report("criterion 12 (CLI suite)", all_ok and stable,
            f"{len(files)} programs exit 0; reports byte-stable "
            f"({payload['summary']['pass']} checks in the sampled program)")
