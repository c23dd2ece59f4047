"""Darboux charts, graded brackets, master equations, derived brackets."""

import itertools
from fractions import Fraction
from operator import mul

import pytest

from gq import (
    AlgebroidData, ConjugatePair, DarbouxChart, GPoly, GradingError, Hamiltonian,
    QuadraticLieAlgebra, StructureError, TangentChart, chevalley_eilenberg_q, UnsupportedInputError, algebroid_to_q,
    courant_chart, courant_theta, derived_bracket, dorfman_bracket,
    hamiltonian_to_q, lambda_check, left_derivative, master_equation,
    poisson_bracket, poisson_chart, poisson_theta, q_square, q_to_algebroid,
    q_to_hamiltonian, section_decode, section_encode, Derivation,
)
from gq.graded_algebra import _derivative
from gq.sigma_structures import algebroid_chart
from conftest import given, homogeneous_pieces, random_poly


# -- chart construction and the degree bound ---------------------------------


def test_degree_bound_enforced():
    with pytest.raises(GradingError):
        DarbouxChart(2, [ConjugatePair("a", 3, "b", -1)])
    with pytest.raises(GradingError):
        DarbouxChart(1, [ConjugatePair("a", 2, "b", 0)])
    with pytest.raises(GradingError):
        DarbouxChart(2, [ConjugatePair("a", 1, "b", 2)])  # weights must sum to n


def test_degree_bound_random(rng):
    for _ in range(100):
        n = rng.randint(0, 4)
        wq = rng.randint(n + 1, n + 6)
        with pytest.raises(GradingError):
            DarbouxChart(n, [ConjugatePair("a", wq, "b", n - wq)])


# -- bracket basics -----------------------------------------------------------


def test_darboux_relations_poisson():
    dc = poisson_chart(2)
    assert poisson_bracket(dc, dc.var("x1"), dc.var("p1")) == dc.one()
    assert poisson_bracket(dc, dc.var("x1"), dc.var("p2")).is_zero()
    assert poisson_bracket(dc, dc.var("x1"), dc.var("x1")).is_zero()
    assert poisson_bracket(dc, dc.var("p1"), dc.var("x1")) == -dc.one()


def test_darboux_relations_courant():
    cc = courant_chart(2)
    # odd-odd bracket is the symmetric pairing
    assert poisson_bracket(cc, cc.var("theta1"), cc.var("chi1")) == cc.one()
    assert poisson_bracket(cc, cc.var("chi1"), cc.var("theta1")) == cc.one()
    assert poisson_bracket(cc, cc.var("theta1"), cc.var("chi2")).is_zero()
    # the recorded even-pair convention
    assert poisson_bracket(cc, cc.var("x1"), cc.var("p1")) == -cc.one()


def _axes_charts():
    return [(poisson_chart(2), 1), (courant_chart(1), 2)]


def test_bracket_graded_antisymmetry(rng):
    for dch, n in _axes_charts():
        for _ in range(40):
            f0, g0 = random_poly(dch.chart, rng), random_poly(dch.chart, rng)
            for f in homogeneous_pieces(f0):
                for g in homogeneous_pieces(g0):
                    s = -1 if ((f.weight() + n) % 2) * ((g.weight() + n) % 2) else 1
                    assert poisson_bracket(dch, f, g) == -s * poisson_bracket(dch, g, f)


def test_bracket_leibniz(rng):
    for dch, n in _axes_charts():
        for _ in range(25):
            f0 = random_poly(dch.chart, rng)
            g0 = random_poly(dch.chart, rng)
            h0 = random_poly(dch.chart, rng)
            for f in homogeneous_pieces(f0):
                for g in homogeneous_pieces(g0):
                    s = -1 if ((f.weight() + n) % 2) * (g.weight() % 2) else 1
                    lhs = poisson_bracket(dch, f, g * h0)
                    rhs = poisson_bracket(dch, f, g) * h0 + s * g * poisson_bracket(dch, f, h0)
                    assert lhs == rhs


def test_bracket_graded_jacobi(rng):
    for dch, n in _axes_charts():
        for _ in range(15):
            fs = [homogeneous_pieces(random_poly(dch.chart, rng)) for _ in range(3)]
            for f in fs[0][:2]:
                for g in fs[1][:2]:
                    for h in fs[2][:2]:
                        s = -1 if ((f.weight() + n) % 2) * ((g.weight() + n) % 2) else 1
                        lhs = poisson_bracket(dch, f, poisson_bracket(dch, g, h))
                        rhs = poisson_bracket(dch, poisson_bracket(dch, f, g), h) \
                            + s * poisson_bracket(dch, g, poisson_bracket(dch, f, h))
                        assert lhs == rhs


def test_bracket_drops_weight_by_n(rng):
    for dch, n in _axes_charts():
        for _ in range(20):
            f0, g0 = random_poly(dch.chart, rng), random_poly(dch.chart, rng)
            for f in homogeneous_pieces(f0):
                for g in homogeneous_pieces(g0):
                    br = poisson_bracket(dch, f, g)
                    if not br.is_zero():
                        assert br.weight() == f.weight() + g.weight() - n


# -- properties of the bracket on generated Darboux charts --------------------
#
# Each property runs under hypothesis when it is installed and skips without
# it. The reference is the pair-by-pair formula the bracket had before it
# became one sweep over each argument.


def _bracket_reference(dchart, f, g):
    """{f, g} pair by pair: sign * [dR_q f dL_p g - (-1)^(|q||p|) dR_p f dL_q g]."""
    terms = []
    for pr in dchart.pairs:
        odd_pair = pr.q_weight % 2 and pr.p_weight % 2
        t1 = _derivative(f, pr.q_name, right=True) * left_derivative(g, pr.p_name)
        t2 = _derivative(f, pr.p_name, right=True) * left_derivative(g, pr.q_name)
        terms += (t1 * pr.sign, t2 * (pr.sign if odd_pair else -pr.sign))
    return dchart.chart.sum(terms)


def _darboux_polys(count, hamiltonian=False):
    """A Darboux chart of degree 1-3 with one to three pairs of any weights
    (so odd x odd and even x even pairs at degree 2) and pair coefficients in
    {+-1, +-2, 1/2}, and `count` polynomials of one to five terms on it with
    rational coefficients; with `hamiltonian`, every term has weight n + 1."""
    def build(st):
        @st.composite
        def case(draw):
            n = draw(st.integers(1, 3))
            pairs = []
            for a in range(draw(st.integers(1, 3))):
                w = draw(st.integers(0, n))
                sign = draw(st.sampled_from([1, -1, 2, -2, Fraction(1, 2)]))
                pairs.append((f"q{a}", w, f"p{a}", n - w, sign))
            dchart = DarbouxChart(n, pairs)
            weights = dchart.chart.weights
            keys = list(itertools.product(*(range(2 if w % 2 else 3) for w in weights)))
            if hamiltonian:
                keys = [k for k in keys if sum(map(mul, k, weights)) == n + 1]
            terms = st.dictionaries(st.sampled_from(keys), st.fractions(-3, 3, max_denominator=3),
                                    min_size=1, max_size=5) if keys else st.just({})
            polys = [GPoly(dchart.chart, draw(terms)) for _ in range(count)]
            return dchart, polys
        return case()
    return build


@given(_darboux_polys(2))
def test_bracket_matches_reference_property(case):
    dchart, (f, g) = case
    got, want = poisson_bracket(dchart, f, g), _bracket_reference(dchart, f, g)
    assert got == want and str(got) == str(want)


@given(_darboux_polys(2))
def test_bracket_antisymmetry_property(case):
    dchart, (f0, g0) = case
    n = dchart.n
    for f in homogeneous_pieces(f0):
        for g in homogeneous_pieces(g0):
            s = -1 if (f.weight() + n) * (g.weight() + n) % 2 else 1
            assert poisson_bracket(dchart, f, g) == -s * poisson_bracket(dchart, g, f)


@given(_darboux_polys(3))
def test_bracket_jacobi_property(case):
    dchart, (f0, g0, h) = case
    n = dchart.n
    for f in homogeneous_pieces(f0):
        for g in homogeneous_pieces(g0):
            s = -1 if (f.weight() + n) * (g.weight() + n) % 2 else 1
            lhs = poisson_bracket(dchart, f, poisson_bracket(dchart, g, h))
            rhs = poisson_bracket(dchart, poisson_bracket(dchart, f, g), h) \
                + s * poisson_bracket(dchart, g, poisson_bracket(dchart, f, h))
            assert lhs == rhs


@given(_darboux_polys(1, hamiltonian=True))
def test_master_equation_iff_q_square_property(case):
    dchart, (theta,) = case
    flat = master_equation(dchart, theta).is_zero()
    assert flat == q_square(hamiltonian_to_q(dchart, theta)).is_zero()


# -- Hamiltonian <-> Q -------------------------------------------------------


def test_hamiltonian_to_q_poisson_example():
    dc = poisson_chart(2)
    theta = Fraction(5) * dc.var("p1") * dc.var("p2")  # 1/2 pi^{ab} p_a p_b, pi^{12} = 5
    Q = hamiltonian_to_q(dc, theta)
    assert Q.component("x1") == 5 * dc.var("p2")
    assert Q.component("x2") == -5 * dc.var("p1")
    assert Q.degree == 1


def test_hamiltonian_to_q_courant_example():
    cc = courant_chart(2)
    Q = hamiltonian_to_q(cc, courant_theta(cc))
    assert Q.component("x1") == cc.var("theta1")     # de Rham type
    assert Q.component("chi1") == cc.var("p1")
    assert Q.component("theta1").is_zero()


def test_zero_hamiltonian():
    dc = poisson_chart(1)
    Q = hamiltonian_to_q(dc, dc.zero())
    assert Q.is_zero()
    assert q_to_hamiltonian(dc, Q).is_zero()


def test_wrong_weight_rejected():
    dc = poisson_chart(1)
    with pytest.raises(GradingError):
        Hamiltonian(dc, dc.var("p1"))  # weight 1, needs 2


def test_round_trip_uniqueness(rng):
    dc = poisson_chart(3)
    x = {a: dc.var(f"x{a}") for a in (1, 2, 3)}
    theta = poisson_theta(dc, {(1, 2): x[3], (2, 3): x[1], (3, 1): x[2]})
    assert q_to_hamiltonian(dc, hamiltonian_to_q(dc, theta)) == theta
    cc = courant_chart(2)
    th = courant_theta(cc)
    assert q_to_hamiltonian(cc, hamiltonian_to_q(cc, th)) == th


def test_round_trip_keeps_integral_coefficients_int():
    cc = courant_chart(2)
    th = courant_theta(cc)
    back = q_to_hamiltonian(cc, hamiltonian_to_q(cc, th))
    assert back == th and str(back) == str(th)
    assert all(type(c) is int for c in th.terms.values())
    assert all(type(c) is int for c in back.terms.values())


def test_non_symplectic_rejected():
    dc = poisson_chart(1)
    bad = Derivation(dc.chart, 1, {"x1": dc.var("x1") * dc.var("p1")})
    with pytest.raises(StructureError):
        q_to_hamiltonian(dc, bad)


def test_q_square_is_hamiltonian_of_half_master(rng):
    """q_square(X_Theta) equals the Hamiltonian field of 1/2 {Theta, Theta}."""
    from gq import hamiltonian_vector_field

    cc = courant_chart(1)
    for _ in range(15):
        theta = random_poly(cc.chart, rng).weight_component(3)
        Q = hamiltonian_to_q(cc, theta)
        half_master = poisson_bracket(cc, theta, theta) * Fraction(1, 2)
        expected = hamiltonian_vector_field(cc, half_master)
        sq = q_square(Q)
        for v in cc.chart.gvars:
            assert sq.component(v.name) == expected.component(v.name)


# -- master equation ----------------------------------------------------------


def _schouten_oracle(dc, pi):
    """Cyclic sum pi^{s[a} d_s pi^{bc]} on a degree-1 chart; independent of
    the bracket machinery."""
    m = len(dc.pairs)
    chart = dc.chart

    def piv(a, b):
        if a == b:
            return chart.zero()
        return pi[(a, b)] if a < b else -pi[(b, a)]

    for a in range(1, m + 1):
        for b in range(a + 1, m + 1):
            for c in range(b + 1, m + 1):
                acc = chart.zero()
                for s in range(1, m + 1):
                    xs = f"x{s}"
                    acc = acc + piv(s, a) * left_derivative(piv(b, c), xs)
                    acc = acc + piv(s, b) * left_derivative(piv(c, a), xs)
                    acc = acc + piv(s, c) * left_derivative(piv(a, b), xs)
                if not acc.is_zero():
                    return False
    return True


def test_master_constant_bivector():
    dc = poisson_chart(2)
    assert master_equation(dc, poisson_theta(dc, {(1, 2): 5})).is_zero()


def test_master_lie_poisson_so3():
    dc = poisson_chart(3)
    x = {a: dc.var(f"x{a}") for a in (1, 2, 3)}
    pi = {(1, 2): x[3], (2, 3): x[1], (3, 1): x[2]}
    assert master_equation(dc, poisson_theta(dc, pi)).is_zero()
    assert _schouten_oracle(dc, {(1, 2): x[3], (1, 3): -x[2], (2, 3): x[1]})


def test_master_agrees_with_schouten_oracle(rng):
    dc = poisson_chart(3)
    seen = {True: 0, False: 0}
    for _ in range(50):
        pi = {}
        for (a, b) in ((1, 2), (1, 3), (2, 3)):
            pi[(a, b)] = random_poly(dc.chart, rng, max_terms=2).weight_component(0)
        theta = poisson_theta(dc, pi)
        flat = master_equation(dc, theta).is_zero()
        assert flat == _schouten_oracle(dc, pi)
        seen[flat] += 1
    assert seen[True] > 0 and seen[False] > 0  # both outcomes exercised


def test_derived_bracket_reproduces_bivector(rng):
    dc = poisson_chart(3)
    for _ in range(10):
        pi = {}
        for (a, b) in ((1, 2), (1, 3), (2, 3)):
            pi[(a, b)] = random_poly(dc.chart, rng, max_terms=2).weight_component(0)
        theta = poisson_theta(dc, pi)
        for (a, b), val in pi.items():
            xa, xb = dc.var(f"x{a}"), dc.var(f"x{b}")
            assert derived_bracket(dc, theta, xa, xb) == val
            assert derived_bracket(dc, theta, xb, xa) == -val


def test_poisson_specialization_properties(rng):
    """For a flat bivector the derived bracket on functions is antisymmetric
    and satisfies Jacobi."""
    dc = poisson_chart(3)
    x = {a: dc.var(f"x{a}") for a in (1, 2, 3)}
    theta = poisson_theta(dc, {(1, 2): x[3], (2, 3): x[1], (3, 1): x[2]})
    assert master_equation(dc, theta).is_zero()

    def br(f, g):
        return derived_bracket(dc, theta, f, g)

    for _ in range(10):
        f = random_poly(dc.chart, rng, max_terms=2).weight_component(0)
        g = random_poly(dc.chart, rng, max_terms=2).weight_component(0)
        h = random_poly(dc.chart, rng, max_terms=2).weight_component(0)
        assert br(f, g) == -br(g, f)
        assert br(f, br(g, h)) == br(br(f, g), h) + br(g, br(f, h))


# -- Courant / Dorfman --------------------------------------------------------


def _random_base(chart, xnames, rng, max_terms=2):
    p = chart.zero()
    for _ in range(rng.randint(1, max_terms)):
        key = [0] * len(chart.gvars)
        for nm in xnames:
            key[chart.index(nm)] = rng.randint(0, 2)
        p = p + chart.monomial(Fraction(rng.randint(-2, 2)), tuple(key))
    return p


def test_derived_bracket_is_dorfman(rng):
    m = 3
    cc = courant_chart(m)
    theta = courant_theta(cc)
    tc = TangentChart(m)
    xnames = [f"x{a}" for a in range(1, m + 1)]

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

    for _ in range(30):
        X = [_random_base(cc.chart, xnames, rng) for _ in range(m)]
        xi = [_random_base(cc.chart, xnames, rng) for _ in range(m)]
        Y = [_random_base(cc.chart, xnames, rng) for _ in range(m)]
        zeta = [_random_base(cc.chart, xnames, rng) for _ in range(m)]
        e1 = section_encode(cc, X, xi)
        e2 = section_encode(cc, Y, zeta)
        got = derived_bracket(cc, theta, e1, e2)
        # independent oracle on polynomial vector fields and 1-forms
        sec1 = ([to_tc(f) for f in X],
                sum((to_tc(f) * tc.xi(a + 1) for a, f in enumerate(xi)), tc.chart.zero()))
        sec2 = ([to_tc(f) for f in Y],
                sum((to_tc(f) * tc.xi(a + 1) for a, f in enumerate(zeta)), tc.chart.zero()))
        vec, form = dorfman_bracket(tc, sec1, sec2)
        expected = section_encode(
            cc, [from_tc(v) for v in vec],
            [from_tc(left_derivative(form, tc.xi_names[a])) for a in range(m)])
        assert got == expected


def test_tangent_chart_over_a_darboux_chart(rng):
    m = 2
    cc = courant_chart(m)
    xnames = [f"x{a}" for a in range(1, m + 1)]
    tnames = [f"theta{a}" for a in range(1, m + 1)]
    tc = TangentChart.over(cc.chart, xnames, tnames)
    x1, x2, th1, th2 = (cc.var(n) for n in ("x1", "x2", "theta1", "theta2"))
    assert tc.chart is cc.chart and tc.m == m
    assert tc.d(x1 * x2) == th1 * x2 + x1 * th2
    assert tc.is_base_form(x1 * th2) and not tc.is_base_form(x1 * cc.var("p2"))
    theta = courant_theta(cc)

    def one_form(coeffs):
        return cc.chart.sum(f * cc.var(t) for f, t in zip(coeffs, tnames))

    for _ in range(10):
        X, xi, Y, zeta = ([_random_base(cc.chart, xnames, rng) for _ in range(m)]
                          for _ in range(4))
        vec, form = dorfman_bracket(tc, (X, one_form(xi)), (Y, one_form(zeta)))
        expected = section_encode(cc, vec, [left_derivative(form, t) for t in tnames])
        e1, e2 = section_encode(cc, X, xi), section_encode(cc, Y, zeta)
        assert derived_bracket(cc, theta, e1, e2) == expected
    with pytest.raises(GradingError):
        TangentChart.over(cc.chart, ["p1"], ["theta1"])
    with pytest.raises(ValueError):
        TangentChart.over(cc.chart, xnames, tnames[:1])


def test_dorfman_named_examples():
    cc = courant_chart(1)
    theta = courant_theta(cc)
    chi1, x1, theta1 = cc.var("chi1"), cc.var("x1"), cc.var("theta1")
    # [d_1, x1 dx1] = L_{d_1}(x1 dx1) = dx1
    assert derived_bracket(cc, theta, chi1, x1 * theta1) == theta1
    # [X, X] = 0 for a plain vector field
    assert derived_bracket(cc, theta, chi1, chi1).is_zero()


def test_section_codec_roundtrip(rng):
    cc = courant_chart(2)
    xnames = ["x1", "x2"]
    for _ in range(10):
        X = [_random_base(cc.chart, xnames, rng) for _ in range(2)]
        xi = [_random_base(cc.chart, xnames, rng) for _ in range(2)]
        e = section_encode(cc, X, xi)
        X2, xi2 = section_decode(cc, e)
        assert X2 == X and xi2 == xi


def test_courant_pairing_is_standard(rng):
    cc = courant_chart(2)
    xnames = ["x1", "x2"]
    for _ in range(20):
        X = [_random_base(cc.chart, xnames, rng) for _ in range(2)]
        xi = [_random_base(cc.chart, xnames, rng) for _ in range(2)]
        Y = [_random_base(cc.chart, xnames, rng) for _ in range(2)]
        zeta = [_random_base(cc.chart, xnames, rng) for _ in range(2)]
        e1, e2 = section_encode(cc, X, xi), section_encode(cc, Y, zeta)
        want = cc.zero()
        for a in range(2):
            want = want + X[a] * zeta[a] + Y[a] * xi[a]
        assert poisson_bracket(cc, e1, e2) == want


def test_dorfman_leibniz_identity(rng):
    """[e,[f,g]] = [[e,f],g] + [f,[e,g]] whenever the master equation holds."""
    cc = courant_chart(2)
    theta = courant_theta(cc)
    xnames = ["x1", "x2"]

    def rand_sec():
        X = [_random_base(cc.chart, xnames, rng, 1) for _ in range(2)]
        xi = [_random_base(cc.chart, xnames, rng, 1) for _ in range(2)]
        return section_encode(cc, X, xi)

    def br(a, b):
        return derived_bracket(cc, theta, a, b)

    for _ in range(15):
        e, f, g = rand_sec(), rand_sec(), rand_sec()
        assert br(e, br(f, g)) == br(br(e, f), g) + br(f, br(e, g))


def test_twisted_master_iff_closed(rng):
    # 3-forms on a 4-dim base: both closed and non-closed twists occur
    cc = courant_chart(4)
    de_rham = Derivation(cc.chart, 1, {f"x{a}": cc.var(f"theta{a}") for a in (1, 2, 3, 4)})
    xnames = [f"x{a}" for a in (1, 2, 3, 4)]
    seen = {True: 0, False: 0}
    import itertools

    for _ in range(30):
        eta = cc.zero()
        for _ in range(rng.randint(1, 2)):
            coeff = _random_base(cc.chart, xnames, rng, 1)
            a, b, c = rng.choice(list(itertools.combinations((1, 2, 3, 4), 3)))
            eta = eta + coeff * cc.var(f"theta{a}") * cc.var(f"theta{b}") * cc.var(f"theta{c}")
        theta = courant_theta(cc, eta)
        flat = master_equation(cc, theta).is_zero()
        closed = de_rham(eta).is_zero()
        assert flat == closed
        seen[flat] += 1
    assert seen[True] > 0 and seen[False] > 0


# -- algebroid bridge ----------------------------------------------------------


def test_algebroid_to_q_examples():
    # tangent algebroid: de Rham
    A = AlgebroidData(2, 2, {(1, 1): 1, (2, 2): 1}, {})
    Q = algebroid_to_q(A)
    assert Q.component("x1") == A.chart.var("xi1")
    assert q_square(Q).is_zero()
    # abelian with arbitrary constant anchor
    B = AlgebroidData(2, 2, {(1, 1): 2, (2, 1): 3}, {})
    assert q_square(algebroid_to_q(B)).is_zero()


def test_algebroid_roundtrip_random(rng):
    for _ in range(20):
        m, r = rng.randint(1, 2), rng.randint(1, 3)
        chart = algebroid_chart(m, r)
        rho = {}
        for a in range(1, m + 1):
            for i in range(1, r + 1):
                rho[(a, i)] = _random_base(chart, [f"x{b}" for b in range(1, m + 1)], rng, 1)
        c = {}
        for k in range(1, r + 1):
            for i in range(1, r + 1):
                for j in range(i + 1, r + 1):
                    c[(k, i, j)] = _random_base(chart, [f"x{b}" for b in range(1, m + 1)], rng, 1)
        A = AlgebroidData(m, r, rho, c)
        assert q_to_algebroid(algebroid_to_q(A)) == A


# one bad antisymmetric table on (i, j), n = 2, for every entry point
_BAD_SKEW = {
    "index-zero": {(0, 1): 1},
    "index-above": {(1, 3): 1},
    "diagonal": {(2, 2): 1},
    "conflict": {(1, 2): 1, (2, 1): 1},
    "zero-then-nonzero": {(1, 2): 0, (2, 1): 5},
    "nonzero-then-zero": {(2, 1): 5, (1, 2): 0},
}
_SKEW_ENTRY_POINTS = {
    "poisson_theta": lambda t: poisson_theta(poisson_chart(2), t),
    "AlgebroidData": lambda t: AlgebroidData(0, 2, {}, {(1, *k): v for k, v in t.items()}),
    "QuadraticLieAlgebra": lambda t: QuadraticLieAlgebra(
        2, {(1, *k): v for k, v in t.items()}, [[1, 0], [0, 1]]),
}


@pytest.mark.parametrize("table", _BAD_SKEW.values(), ids=_BAD_SKEW.keys())
@pytest.mark.parametrize("build", _SKEW_ENTRY_POINTS.values(), ids=_SKEW_ENTRY_POINTS.keys())
def test_antisymmetric_tables_share_one_rule(build, table):
    with pytest.raises(ValueError):
        build(table)


def test_antisymmetric_tables_accept_agreeing_orders_and_zero_diagonal():
    dc = poisson_chart(2)
    assert poisson_theta(dc, {(1, 2): 3, (2, 1): -3, (1, 1): 0}) == poisson_theta(dc, {(1, 2): 3})
    A = AlgebroidData(0, 2, {}, {(1, 2, 1): -1, (1, 1, 2): 1, (2, 2, 2): 0, (2, 1, 2): 0})
    assert A.c == {(1, 1, 2): A.chart.const(1)}


def _so3_tables(st):
    """so3 constants scaled by lam, each written in one order, the other or
    both, plus up to two arbitrary entries (indices 0..4, values -1..1)."""
    cyclic = [(3, 1, 2), (1, 2, 3), (2, 3, 1)]

    def build(lam, orders, extra):
        c = {}
        for (k, i, j), order in zip(cyclic, orders):
            if order != "ji":
                c[(k, i, j)] = lam
            if order != "ij":
                c[(k, j, i)] = -lam
        return {**c, **extra}

    index = st.integers(0, 4)
    return st.builds(build, st.integers(-2, 2),
                     st.lists(st.sampled_from(["ij", "ji", "both"]), min_size=3, max_size=3),
                     st.dictionaries(st.tuples(index, index, index), st.integers(-1, 1),
                                     max_size=2))


@given(_so3_tables)
def test_algebroid_and_lie_algebra_tables_agree(c):
    """AlgebroidData and QuadraticLieAlgebra accept and reject the same
    tables, and a bound algebra's Chevalley-Eilenberg Q is the zero-anchor
    algebroid's."""
    try:
        A = AlgebroidData(0, 3, {}, c)
    except ValueError:
        A = None
    try:
        g = QuadraticLieAlgebra(3, c, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    except ValueError:
        assert A is None
        return
    except StructureError:                 # a valid table that is not a quadratic Lie algebra
        g = None
    assert A is not None
    if g is not None:
        assert chevalley_eilenberg_q(g) == algebroid_to_q(A)


def test_q_to_algebroid_rejects_higher_degree():
    cc = courant_chart(1)
    with pytest.raises(GradingError):
        q_to_algebroid(hamiltonian_to_q(cc, courant_theta(cc)))


# -- Lagrangian Q-invariant loci ------------------------------------------------


def test_lambda_conormal():
    dc = poisson_chart(2)
    Q0 = Derivation(dc.chart, 1, {})
    assert lambda_check(dc, Q0, ["x2", "p1"])
    assert not lambda_check(dc, Q0, ["x1", "p1"])        # pair hit twice
    assert not lambda_check(dc, Q0, ["x1"])              # second pair untouched


def test_lambda_dirac_structures():
    cc = courant_chart(2)
    Q = hamiltonian_to_q(cc, courant_theta(cc))
    # graph of the zero 2-form: tangent Dirac structure
    assert lambda_check(cc, Q, ["chi1", "chi2", "p1", "p2"])
    # cotangent Dirac structure
    assert lambda_check(cc, Q, ["theta1", "theta2", "p1", "p2"])


def test_lambda_q_invariance_fails_with_twist():
    cc = courant_chart(3)
    eta = cc.var("theta1") * cc.var("theta2") * cc.var("theta3")
    Q = hamiltonian_to_q(cc, courant_theta(cc, eta))
    names = ["chi1", "chi2", "chi3", "p1", "p2", "p3"]
    # Q(chi_a) picks up d eta-terms in (x, theta) that survive on the locus
    assert not lambda_check(cc, Q, names)


def test_lambda_rejects_non_coordinates():
    dc = poisson_chart(1)
    Q0 = Derivation(dc.chart, 1, {})
    with pytest.raises(UnsupportedInputError):
        lambda_check(dc, Q0, ["nope"])


# -- cross-module consistency ---------------------------------------------------


def test_master_iff_q_square_for_algebroid_structures(rng):
    """Lie-Poisson master equation vanishes exactly when the CE differential
    of the same structure constants squares to zero."""
    dc = poisson_chart(3)
    for _ in range(15):
        coeffs = {k: Fraction(rng.randint(-2, 2)) for k in ((1, 2), (2, 3), (3, 1))}
        extra = Fraction(rng.randint(-1, 1))
        # c^3_12, c^1_23, c^2_31 diagonal plus an off-diagonal defect c^1_31
        c = {(3, 1, 2): coeffs[(1, 2)], (1, 2, 3): coeffs[(2, 3)],
             (2, 3, 1): coeffs[(3, 1)], (1, 3, 1): extra}
        Q = algebroid_to_q(AlgebroidData(0, 3, {}, c))
        x = {a: dc.var(f"x{a}") for a in (1, 2, 3)}
        # linear bivector with the same structure constants
        pi = {}
        for (a, b) in ((1, 2), (1, 3), (2, 3)):
            acc = dc.zero()
            for k in (1, 2, 3):
                cv = c.get((k, a, b), Fraction(0))
                if (k, a, b) == (1, 3, 1):
                    pass
                acc = acc + x[k] * _structure(c, k, a, b)
            pi[(a, b)] = acc
        theta = poisson_theta(dc, pi)
        assert master_equation(dc, theta).is_zero() == q_square(Q).is_zero()


def _structure(c, k, i, j):
    if i == j:
        return Fraction(0)
    if (k, i, j) in c:
        return c[(k, i, j)]
    if (k, j, i) in c:
        return -c[(k, j, i)]
    return Fraction(0)
