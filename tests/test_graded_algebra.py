"""The exact supercommutative polynomial kernel."""

import ast
import itertools
import math
import time
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest

import gq
from gq import (
    Chart, ChartMismatchError, DarbouxChart, GPoly, GradingError, GVar, UnsupportedInputError,
    left_derivative, nmap_space, poisson_bracket, rescale, scaling_check, substitute,
)
from gq.graded_algebra import MAX_EXPONENT, _derivative
from conftest import given, homogeneous_pieces, random_poly


@pytest.fixture
def chart():
    return Chart.build(("x", 0), ("y", 0), ("xi1", 1), ("xi2", 1), ("xi3", 1))


def test_odd_anticommutation(chart):
    xi1, xi2 = chart.var("xi1"), chart.var("xi2")
    assert str(xi1 * xi2) == "xi1*xi2"
    assert xi2 * xi1 == -(xi1 * xi2)


def test_odd_square_vanishes(chart):
    xi1 = chart.var("xi1")
    assert (xi1 * xi1).is_zero()


def test_mixed_product_cancels_repeated_odd(chart):
    x, xi1, xi2 = chart.var("x"), chart.var("xi1"), chart.var("xi2")
    # (x + xi1 xi2) xi1 = x xi1 since xi1 xi2 xi1 = 0
    assert (x + xi1 * xi2) * xi1 == x * xi1


def test_even_derivative(chart):
    x = chart.var("x")
    assert left_derivative(x * x, "x") == 2 * x
    assert left_derivative(chart.one(), "x").is_zero()


def test_odd_derivative_signs(chart):
    xi1, xi2 = chart.var("xi1"), chart.var("xi2")
    assert left_derivative(xi1 * xi2, "xi1") == xi2
    assert left_derivative(xi1 * xi2, "xi2") == -xi1


def test_weight_of(chart):
    x, xi1, xi2 = chart.var("x"), chart.var("xi1"), chart.var("xi2")
    assert (xi1 * xi2).weight() == 2
    assert x.weight() == 0
    assert (x + xi1 * xi2).weight() is None
    assert chart.zero().weight() == 0


def test_scaling_check(chart):
    x, xi1, xi2 = chart.var("x"), chart.var("xi1"), chart.var("xi2")
    assert scaling_check(xi1 * xi2, 3)
    assert scaling_check(chart.const(7), Fraction(5, 2))
    assert scaling_check(x * xi1, 2)
    with pytest.raises(GradingError):
        scaling_check(x + xi1 * xi2, 2)
    assert rescale(xi1 * xi2, 3) == 9 * (xi1 * xi2)


def test_chart_mismatch(chart):
    other = Chart.build(("x", 0))
    with pytest.raises(ChartMismatchError):
        chart.var("x") * other.var("x")


def test_negative_weight_rejected():
    with pytest.raises(GradingError):
        GVar("bad", -1)


def test_canonical_form_idempotent(chart, rng):
    for _ in range(50):
        p = random_poly(chart, rng)
        again = GPoly(chart, dict(p.terms))
        assert again == p and str(again) == str(p)


def test_supercommutativity(chart, rng):
    for _ in range(200):
        p0, q0 = random_poly(chart, rng), random_poly(chart, rng)
        for p in homogeneous_pieces(p0):
            for q in homogeneous_pieces(q0):
                sign = -1 if (p.weight() % 2) * (q.weight() % 2) else 1
                assert p * q == sign * (q * p)


def test_associativity(chart, rng):
    for _ in range(200):
        p, q, r = (random_poly(chart, rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)


def test_left_leibniz_rule(chart, rng):
    for _ in range(200):
        p0, q0 = random_poly(chart, rng), random_poly(chart, rng)
        for v in chart.gvars:
            for p in homogeneous_pieces(p0):
                sign = -1 if v.parity * (p.weight() % 2) else 1
                lhs = left_derivative(p * q0, v.name)
                rhs = left_derivative(p, v.name) * q0 + sign * p * left_derivative(q0, v.name)
                assert lhs == rhs


def test_derivatives_graded_commute(chart, rng):
    for _ in range(100):
        p = random_poly(chart, rng)
        for u in chart.gvars:
            for v in chart.gvars:
                sign = -1 if u.parity * v.parity else 1
                lhs = left_derivative(left_derivative(p, v.name), u.name)
                rhs = left_derivative(left_derivative(p, u.name), v.name)
                assert lhs == sign * rhs


def test_derivative_drops_weight(chart, rng):
    for _ in range(50):
        p0 = random_poly(chart, rng)
        for p in homogeneous_pieces(p0):
            for v in chart.gvars:
                d = left_derivative(p, v.name)
                if not d.is_zero():
                    assert d.weight() == p.weight() - v.weight


def test_substitute_same_weight(chart):
    x, y, xi1, xi2, xi3 = (chart.var(n) for n in ("x", "y", "xi1", "xi2", "xi3"))
    # even substitution
    p = x * x * xi1
    assert substitute(p, "x", x + y) == (x + y) * (x + y) * xi1
    # odd substitution keeps the Koszul bookkeeping: xi2 -> xi2 + x*xi3
    q = xi1 * xi2 * xi3
    got = substitute(q, "xi2", xi2 + x * xi3)
    assert got == xi1 * (xi2 + x * xi3) * xi3
    with pytest.raises(GradingError):
        substitute(p, "x", xi1)  # weight mismatch


def test_chart_sum(chart, rng):
    for _ in range(50):
        polys = [random_poly(chart, rng) for _ in range(rng.randint(0, 4))]
        want = chart.zero()
        for q in polys:
            want = want + q
        assert chart.sum(polys) == want
    x, xi1 = chart.var("x"), chart.var("xi1")
    assert chart.sum([x, -x]).terms == {}
    assert rescale(xi1 + x, 0).terms == x.terms
    with pytest.raises(ChartMismatchError):
        chart.sum([x, Chart.build(("x", 0)).var("x")])


def test_integral_coefficients_are_int(chart):
    x, xi1, xi2 = chart.var("x"), chart.var("xi1"), chart.var("xi2")
    for p in (chart.const(Fraction(4, 2)), chart.const("6/3"), x, 3 * x * xi1 * xi2,
              left_derivative(x * x * xi2, "x")):
        assert all(type(c) is int for c in p.terms.values()), p
    assert chart.const(Fraction(4, 2)).terms == {(0,) * 5: 2}
    half = chart.const(Fraction(1, 2))
    assert type(next(iter(half.terms.values()))) is Fraction
    assert (half * 2).terms[(0,) * 5] == 1
    assert half * 2 == chart.one() and half + half == chart.one()


def test_int_and_fraction_coefficients_agree(chart, rng):
    for _ in range(30):
        p = random_poly(chart, rng) * chart.var("x")
        as_int = GPoly(chart, {k: int(c) for k, c in p.terms.items()})
        as_fraction = GPoly(chart, {k: Fraction(c) for k, c in p.terms.items()})
        assert as_int == as_fraction and hash(as_int) == hash(as_fraction)
        assert str(as_int) == str(as_fraction)
        assert str(as_int * Fraction(1, 2)) == str(as_fraction * Fraction(1, 2))


# -- properties of the Koszul kernel on generated charts ---------------------
#
# Each property runs under hypothesis when it is installed and skips without
# it. The references below work on exponent tuples, as the kernel did before
# it packed each monomial into one int: odd words and their merge sign for
# products, a sign walk along the tuple for derivatives, two sweeps for the
# Darboux bracket, and the scalar formula for substitution.


def _odd_word(chart, key):
    """Indices of the odd factors of an exponent tuple, in canonical order."""
    return tuple(i for i, e in enumerate(key) if e and chart.parities[i])


def _merge_sign(odd_a, odd_b):
    """Koszul sign for concatenating two sorted odd-index words; None if a square appears."""
    if not odd_a or not odd_b:
        return 1
    inversions = 0
    for i in odd_a:
        for j in odd_b:
            if i == j:
                return None
            if i > j:
                inversions += 1
    return -1 if inversions % 2 else 1


def _products_reference(chart, left_terms, right_terms):
    """The (exponent tuple, coefficient) pairs of the Koszul product of two
    term lists, signed by `_merge_sign` of their odd words."""
    for ka, ca in left_terms:
        for kb, cb in right_terms:
            sign = _merge_sign(_odd_word(chart, ka), _odd_word(chart, kb))
            if sign is not None:
                yield tuple(map(add, ka, kb)), sign * ca * cb


def _partials_reference(chart, key, right, wanted):
    """The derivatives of an exponent tuple by its variables in `wanted`, as
    (index, key, factor) triples: the exponent for an even variable, -1 per
    odd factor on the requested side for an odd one."""
    flip = 1
    for i in (range(len(key) - 1, -1, -1) if right else range(len(key))):
        e = key[i]
        if not e:
            continue
        if chart.parities[i]:
            if i in wanted:
                yield i, key[:i] + (0,) + key[i + 1:], flip
            flip = -flip
        elif i in wanted:
            yield i, key[:i] + (e - 1,) + key[i + 1:], e


def _summed(pairs):
    out = {}
    for key, c in pairs:
        out[key] = out.get(key, 0) + c
    return out


def _past_bound(pairs):
    """Whether an exponent of a product key among the (exponent tuple,
    coefficient) pairs passes the bound; a product another one cancels
    counts too."""
    return any(e > MAX_EXPONENT for key, _ in pairs for e in key)


def _derivative_reference(p, v, right):
    chart = p.chart
    i = chart.index(v)
    return GPoly(chart, _summed((k, c * f) for key, c in p.terms.items()
                                for _, k, f in _partials_reference(chart, key, right, (i,))))


def _bracket_reference(dchart, f, g):
    """The Darboux bracket as two sweeps over exponent tuples: left[i] holds
    dL_conj(i) g, each right derivative dR_i f is scaled by s_i and
    multiplied by left[i]; as the list of (exponent tuple, coefficient)
    products, before they are summed."""
    chart, layout = dchart.chart, dchart.layout
    left = {}
    for key, c in g.terms.items():
        for j, k, e in _partials_reference(chart, key, False, range(len(chart))):
            left.setdefault(layout[j][0], []).append((k, c * e))
    pairs = []
    for key, c in f.terms.items():
        for i, k, e in _partials_reference(chart, key, True, left):
            pairs += _products_reference(chart, [(k, c * e * layout[i][1])], left[i])
    return pairs


def _substitute_reference(p, v, q):
    """Substitution term by term, multiplying q in one factor at a time."""
    chart = p.chart
    i = chart.index(v)
    result = chart.zero()
    for key, c in p.terms.items():
        e = key[i]
        if e and chart.parities[i]:
            after = sum(1 for j in range(i + 1, len(key)) if key[j] and chart.parities[j])
            if after % 2:
                c = -c
        term = chart.monomial(c, key[:i] + (0,) + key[i + 1:])
        for _ in range(e):
            term = term * q
        result = result + term
    return result


def _nmap_pairing_reference(dchart, n):
    """Size and entries of the N-map pairing: disjoint subsets S, T pair with
    the pair coefficient times (-1)^#{(s, t): s > t}."""
    offsets, total = {}, 0
    for pr in dchart.pairs:
        for name, w in ((pr.q_name, pr.q_weight), (pr.p_name, pr.p_weight)):
            offsets[name] = total
            total += math.comb(n, w)
    entries = {}
    for pr in dchart.pairs:
        if pr.q_weight + pr.p_weight != n:
            continue
        for iq, S in enumerate(itertools.combinations(range(1, n + 1), pr.q_weight)):
            for ip, T in enumerate(itertools.combinations(range(1, n + 1), pr.p_weight)):
                if set(S) & set(T):
                    continue
                val = pr.sign * (-1) ** sum(1 for s in S for t in T if s > t)
                entries[(offsets[pr.q_name] + iq, offsets[pr.p_name] + ip)] = val
                entries[(offsets[pr.p_name] + ip, offsets[pr.q_name] + iq)] = -val
    return total, entries


# even exponents close to the bound, whose products pass it
_NEAR_BOUND = (0, 1, MAX_EXPONENT // 2, MAX_EXPONENT // 2 + 1, MAX_EXPONENT)


def _term_dicts(st, weights, even_exponents):
    """Term dicts of up to four terms on a chart of the given weights."""
    keys = st.tuples(*(st.integers(0, 1) if w % 2 else even_exponents for w in weights))
    return st.dictionaries(keys, st.fractions(-3, 3, max_denominator=2), max_size=4)


def _polys(count, kinds=False):
    """A chart of 1-5 variables of weights 0-3, one of its variable names and
    `count` polynomials of up to four terms on it. With `kinds`, the chart
    may also be all even or all odd, and even exponents may lie near the
    bound."""
    def build(st):
        @st.composite
        def case(draw):
            pool = draw(st.sampled_from([(0, 1, 2, 3), (0, 2), (1, 3)] if kinds else [(0, 1, 2, 3)]))
            weights = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=5))
            exponents = st.integers(0, 2)
            if kinds:
                exponents = draw(st.sampled_from([exponents, st.sampled_from(_NEAR_BOUND)]))
            chart = Chart.build(*((f"v{i}", w) for i, w in enumerate(weights)))
            terms = _term_dicts(st, weights, exponents)
            polys = [GPoly(chart, draw(terms)) for _ in range(count)]
            return chart, f"v{draw(st.integers(0, len(weights) - 1))}", polys
        return case()
    return build


def _darboux(st):
    """A Darboux chart of degree 0-3 with up to three pairs, and a source dimension."""
    @st.composite
    def case(draw):
        n = draw(st.integers(0, 3))
        pairs = []
        for a in range(draw(st.integers(0, 3))):
            w = draw(st.integers(0, n))
            pairs.append((f"q{a}", w, f"p{a}", n - w, draw(st.sampled_from([-2, -1, 1, 3]))))
        return DarbouxChart(n, pairs), draw(st.integers(0, 4))
    return case()


@given(_polys(3))
def test_associativity_property(case):
    _, _, (p, q, r) = case
    assert (p * q) * r == p * (q * r)


@given(_polys(2))
def test_supercommutativity_property(case):
    _, _, (p0, q0) = case
    for p in homogeneous_pieces(p0):
        for q in homogeneous_pieces(q0):
            sign = -1 if p.weight() * q.weight() % 2 else 1
            assert p * q == sign * (q * p)


@given(_polys(2))
def test_left_leibniz_property(case):
    chart, v, (p0, q) = case
    parity_v = chart.gvar(v).parity
    for p in homogeneous_pieces(p0):
        sign = -1 if parity_v * p.weight() % 2 else 1
        lhs = left_derivative(p * q, v)
        assert lhs == left_derivative(p, v) * q + sign * p * left_derivative(q, v)


@given(_polys(1))
def test_right_derivative_property(case):
    chart, v, (p,) = case
    parity_v = chart.gvar(v).parity
    for key, c in p.terms.items():
        m = GPoly(chart, {key: c})
        left = left_derivative(m, v)
        sign = -1 if parity_v * left.parity() else 1
        assert _derivative(m, v, right=True) == sign * left


@given(_polys(2))
def test_substitute_property(case):
    chart, v, (p, r) = case
    q = r.weight_component(chart.gvar(v).weight)
    assert substitute(p, v, q) == _substitute_reference(p, v, q)


@given(_darboux)
def test_nmap_pairing_property(case):
    dchart, n = case
    N = nmap_space(dchart, n)
    total, entries = _nmap_pairing_reference(dchart, n)
    assert N.total_dim == total and N.pairing.shape == (total, total)
    assert {(r, c): x for r, row in enumerate(N.pairing.rows) for c, x in row.items()} == entries


def _pow_reference(p, n):
    """p^n by n successive multiplications."""
    out = p.chart.one()
    for _ in range(n):
        out = out * p
    return out


def test_pow_matches_repeated_multiplication(chart, rng):
    for _ in range(8):
        p = random_poly(chart, rng)
        for n in range(13):
            assert p ** n == _pow_reference(p, n)


@given(_polys(1), lambda st: st.integers(0, 12))
def test_pow_property(case, n):
    _, _, (p,) = case
    assert p ** n == _pow_reference(p, n)


def test_pow_huge_exponent_returns_at_once(chart):
    x, xi1, xi2 = chart.var("x"), chart.var("xi1"), chart.var("xi2")
    n = 10 ** 6
    t0 = time.perf_counter()
    assert str(x ** n) == "x^1000000"
    assert (x + xi1) ** n == x ** n + n * x ** (n - 1) * xi1
    assert ((xi1 + xi2) ** (10 ** 9)).is_zero()
    assert time.perf_counter() - t0 < 5.0
    with pytest.raises(ValueError):
        x ** -1


def test_at_zero(chart):
    x, y, xi1, xi2 = (chart.var(n) for n in ("x", "y", "xi1", "xi2"))
    p = 3 + x * xi1 + y * y + xi2 * xi1 - x * y
    assert p.at_zero(["x"]) == 3 + y * y + xi2 * xi1
    assert p.at_zero(["x", "xi2"]) == 3 + y * y
    assert p.at_zero([]) == p
    assert p.at_zero(v.name for v in chart.gvars) == chart.const(3)
    with pytest.raises(KeyError):
        p.at_zero(["z"])


@given(_polys(1))
def test_at_zero_is_substituting_zero(case):
    chart, v, (p,) = case
    assert p.at_zero([v]) == substitute(p, v, chart.zero())


def test_monomial_keys_stay_in_the_kernel():
    """Outside graded_algebra no module reads GPoly.terms or the packed
    storage behind it, or touches the kernel's key-level routines."""
    private = {"terms", "_terms", "_partials", "_sum_products", "_collect"}
    readers = []
    for path in sorted(Path(gq.__file__).parent.glob("*.py")):
        if path.name == "graded_algebra.py":
            continue
        for n in ast.walk(ast.parse(path.read_text())):
            names = ([a.name for a in n.names] if isinstance(n, ast.ImportFrom)
                     else [n.attr] if isinstance(n, ast.Attribute) else [])
            readers += [f"{path.name}:{n.lineno}: {name}" for name in names if name in private]
    assert readers == []


def test_no_private_name_crosses_modules():
    """No module imports a private name from another gq module, neither by a
    relative `from .mod import _name` nor as an attribute `mod._name` of a gq
    module it imported."""
    crossings = []
    for path in sorted(Path(gq.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        imports = [n for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.level]
        modules = {a.asname or a.name for n in imports if n.module is None for a in n.names}
        names = [(n.lineno, a.name) for n in imports for a in n.names]
        names += [(n.lineno, n.attr) for n in ast.walk(tree)
                  if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
                  and n.value.id in modules]
        crossings += [f"{path.name}:{line}: {name}" for line, name in names
                      if name.startswith("_")]
    assert crossings == []


def test_no_module_imports_scipy():
    """numpy is the one runtime dependency: no gq module imports scipy, at
    module level or inside a function."""
    found = []
    for path in sorted(Path(gq.__file__).parent.glob("*.py")):
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Import):
                modules = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom) and not n.level:
                modules = [n.module]
            else:
                continue
            found += [f"{path.name}:{n.lineno}: {m}" for m in modules
                      if m.split(".")[0] == "scipy"]
    assert found == []


def test_signs_are_int_parities():
    """No `(-1) ** e` in the package: it is a float for e < 0, and a float
    sign makes exact elimination inexact."""
    powers = [f"{path.name}:{n.lineno}"
              for path in sorted(Path(gq.__file__).parent.glob("*.py"))
              for n in ast.walk(ast.parse(path.read_text()))
              if isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
              and ast.unparse(n.left) == "-1"]
    assert powers == []


# -- the packed kernel against its tuple-key oracles -------------------------


@given(_polys(2, kinds=True))
def test_product_matches_tuple_oracle(case):
    chart, _, (p, q) = case
    products = list(_products_reference(chart, p.terms.items(), q.terms.items()))
    if _past_bound(products):
        with pytest.raises(UnsupportedInputError):
            p * q
    else:
        assert p * q == GPoly(chart, _summed(products))


@given(_polys(1, kinds=True))
def test_derivatives_match_tuple_oracle(case):
    chart, v, (p,) = case
    for right in (False, True):
        assert _derivative(p, v, right) == _derivative_reference(p, v, right)


@given(_polys(1, kinds=True))
def test_terms_round_trip(case):
    chart, _, (p,) = case
    assert GPoly(chart, p.terms) == p and str(GPoly(chart, p.terms)) == str(p)
    assert all(len(key) == len(chart) for key in p.terms)


def _darboux_pair(st):
    """A Darboux chart (see `_darboux`) and two polynomials on it, with even
    exponents small or near the bound."""
    @st.composite
    def case(draw):
        dchart, _ = draw(_darboux(st))
        exponents = draw(st.sampled_from([st.integers(0, 2), st.sampled_from(_NEAR_BOUND)]))
        terms = _term_dicts(st, dchart.chart.weights, exponents)
        return dchart, GPoly(dchart.chart, draw(terms)), GPoly(dchart.chart, draw(terms))
    return case()


@given(_darboux_pair)
def test_bracket_matches_tuple_oracle(case):
    dchart, f, g = case
    products = _bracket_reference(dchart, f, g)
    if _past_bound(products):
        with pytest.raises(UnsupportedInputError):
            poisson_bracket(dchart, f, g)
    else:
        assert poisson_bracket(dchart, f, g) == GPoly(dchart.chart, _summed(products))


@given(_polys(3, kinds=True),
       lambda st: st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.booleans()),
                           max_size=6))
def test_sum_of_products_matches_summed_products(case, picks):
    """Chart.sum_of_products(pairs) == Chart.sum(f * g for f, g in pairs),
    or both raise: empty pairs, zero factors (index 3) and a product
    followed by its negative included."""
    chart, _, polys = case
    factors = polys + [chart.zero()]
    pairs = [(-factors[i] if neg else factors[i], factors[j]) for i, j, neg in picks]
    pairs += [(-f, g) for f, g in pairs[:1]]
    try:
        want = chart.sum(f * g for f, g in pairs)
    except UnsupportedInputError:
        with pytest.raises(UnsupportedInputError):
            chart.sum_of_products(iter(pairs))
    else:
        assert chart.sum_of_products(iter(pairs)) == want


def test_sum_of_products_edge_cases(chart):
    x, xi1, xi2 = chart.var("x"), chart.var("xi1"), chart.var("xi2")
    assert chart.sum_of_products([]) == chart.zero()
    assert chart.sum_of_products([(x, chart.zero()), (chart.zero(), xi1)]).is_zero()
    assert chart.sum_of_products([(xi1, xi2), (xi2, xi1)]).terms == {}
    assert chart.sum_of_products([(x, xi1), (xi1, xi2), (x + xi2, x)]) == \
        x * xi1 + xi1 * xi2 + x * x + xi2 * x
    other = Chart.build(("x", 0)).var("x")
    for pairs in ([(x, other)], [(other, x)], [(x, x), (other, other)]):
        with pytest.raises(ChartMismatchError):
            chart.sum_of_products(pairs)


def test_cancelled_products_past_the_bound_raise(chart):
    """Every product key is checked against the bound, also one that another
    product cancels: as `Chart.sum(f * g for …)` checks each product."""
    x, y, xi1, xi2 = (chart.var(n) for n in ("x", "y", "xi1", "xi2"))
    big = x ** MAX_EXPONENT
    past = "exponent of 'x' exceeds"
    for pairs in ([(big, x), (-big, x)], [(big * y, x), (x, -big * y)]):
        with pytest.raises(UnsupportedInputError, match=past):
            chart.sum(f * g for f, g in pairs)
        with pytest.raises(UnsupportedInputError, match=past):
            chart.sum_of_products(pairs)
    assert chart.sum_of_products([(big, y), (-big, y)]).is_zero()
    # within one product: (xi1 + xi2)^2 = 0, but x^M xi1 * x xi2 passes the bound
    with pytest.raises(UnsupportedInputError, match=past):
        (big * (xi1 + xi2)) * (x * (xi1 + xi2))
    assert ((x * x) * (xi1 + xi2)) * (x * (xi1 + xi2)) == chart.zero()
    # the bracket of (q + p) with itself cancels between its two products
    dchart = DarbouxChart(0, [("q", 0, "p", 0, 1), ("z", 0, "w", 0, 1)])
    q, pp, z = (dchart.chart.var(n) for n in ("q", "p", "z"))
    assert poisson_bracket(dchart, z * z * (q + pp), z * (q + pp)).is_zero()
    with pytest.raises(UnsupportedInputError, match="exponent of 'z' exceeds"):
        poisson_bracket(dchart, z ** MAX_EXPONENT * (q + pp), z * (q + pp))


def test_exponent_bound(chart):
    x, y = chart.var("x"), chart.var("y")
    assert str(x ** MAX_EXPONENT * y) == f"x^{MAX_EXPONENT}*y"
    assert chart.monomial(2, (MAX_EXPONENT, 0, 1, 0, 0)) == 2 * x ** MAX_EXPONENT * chart.var("xi1")
    for past in (lambda: x ** 2 ** 31, lambda: y * x ** MAX_EXPONENT * x,
                 lambda: chart.monomial(1, (0, 2 ** 31, 0, 0, 0)),
                 lambda: GPoly(chart, {(2 ** 40, 0, 0, 0, 0): 1})):
        with pytest.raises(UnsupportedInputError, match="exponent of '[xy]' exceeds"):
            past()
