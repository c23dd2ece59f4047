"""Derivations, commutators, Q-structures."""

from fractions import Fraction

import pytest

from gq import (
    AlgebroidData, Chart, Derivation, GradingError, TangentChart, algebroid_to_q,
    apply_derivation, commutator, euler_field, q_square,
)
from conftest import homogeneous_pieces, random_poly


@pytest.fixture
def t1r3():
    return TangentChart(3)


def test_de_rham_on_coordinates(t1r3):
    Q = t1r3.de_rham()
    assert Q(t1r3.x(1)) == t1r3.xi(1)
    assert Q(t1r3.xi(1)).is_zero()
    assert Q(t1r3.x(1) * t1r3.x(2)) == t1r3.xi(1) * t1r3.x(2) + t1r3.x(1) * t1r3.xi(2)


def test_de_rham_squares_to_zero(t1r3):
    assert q_square(t1r3.de_rham()).is_zero()


def test_classical_commutator():
    ch = Chart.build(("x", 0))
    ddx = Derivation(ch, 0, {"x": ch.one()})
    xddx = Derivation(ch, 0, {"x": ch.var("x")})
    assert commutator(ddx, xddx) == ddx


def test_self_commutator_of_q_is_twice_square(t1r3):
    Q = t1r3.de_rham()
    assert commutator(Q, Q).is_zero()


def test_chevalley_eilenberg_so3():
    c = {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1}
    Q = algebroid_to_q(AlgebroidData(0, 3, {}, c))
    assert q_square(Q).is_zero()


def test_jacobi_violator_detected():
    # off-diagonal defect: [e3, e1] = e2 + e1 breaks Jacobi
    c = {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 1): 1}
    Q = algebroid_to_q(AlgebroidData(0, 3, {}, c))
    sq = q_square(Q)
    assert not sq.is_zero()


def test_manifold_degree():
    assert TangentChart(3).chart.degree() == 1
    assert Chart.build(("x", 0), ("th", 1), ("ch", 1), ("p", 2)).degree() == 2
    assert Chart.build(("x", 0), ("y", 0)).degree() == 0
    assert Chart([]).degree() == 0


def test_euler_field(t1r3):
    E = euler_field(t1r3.chart)
    assert E(t1r3.xi(1)) == t1r3.xi(1)
    assert E(t1r3.x(1)).is_zero()
    assert E(t1r3.xi(1) * t1r3.xi(2)) == 2 * (t1r3.xi(1) * t1r3.xi(2))
    assert commutator(E, t1r3.de_rham()) == t1r3.de_rham()


def test_euler_eigenvalue_property(t1r3, rng):
    E = euler_field(t1r3.chart)
    for _ in range(30):
        for p in homogeneous_pieces(random_poly(t1r3.chart, rng)):
            assert E(p) == p * Fraction(p.weight())


def _random_derivation(chart, degree, rng):
    comps = {}
    for v in chart.gvars:
        w = v.weight + degree
        if w < 0:
            comps[v.name] = chart.zero()
            continue
        p = chart.zero()
        for _ in range(rng.randint(0, 2)):
            cand = random_poly(chart, rng, max_terms=1)
            piece = cand.weight_component(w)
            p = p + piece
        comps[v.name] = p
    return Derivation(chart, degree, comps)


def test_graded_jacobi_for_commutator(t1r3, rng):
    chart = t1r3.chart
    for _ in range(25):
        d1 = _random_derivation(chart, rng.choice([-1, 0, 1]), rng)
        d2 = _random_derivation(chart, rng.choice([-1, 0, 1]), rng)
        d3 = _random_derivation(chart, rng.choice([-1, 0, 1]), rng)
        s12 = -1 if (d1.degree * d2.degree) % 2 else 1
        lhs = commutator(d1, commutator(d2, d3))
        rhs = commutator(commutator(d1, d2), d3) + s12 * commutator(d2, commutator(d1, d3))
        assert lhs == rhs


def test_commutator_degree_additivity(t1r3, rng):
    chart = t1r3.chart
    for _ in range(20):
        d1 = _random_derivation(chart, rng.choice([-1, 0, 1]), rng)
        d2 = _random_derivation(chart, rng.choice([-1, 0, 1]), rng)
        br = commutator(d1, d2)
        assert br.degree == d1.degree + d2.degree


def test_euler_grades_derivations(t1r3, rng):
    chart = t1r3.chart
    E = euler_field(chart)
    for _ in range(20):
        deg = rng.choice([-1, 0, 1])
        D = _random_derivation(chart, deg, rng)
        assert commutator(E, D) == D * Fraction(deg)


def test_nq_kills_twice(t1r3, rng):
    Q = t1r3.de_rham()
    for _ in range(30):
        p = random_poly(t1r3.chart, rng)
        assert Q(Q(p)).is_zero()


def test_q_square_requires_degree_one(t1r3):
    E = euler_field(t1r3.chart)
    with pytest.raises(GradingError):
        q_square(E)


def test_leibniz_of_apply(t1r3, rng):
    chart = t1r3.chart
    for _ in range(25):
        deg = rng.choice([-1, 0, 1])
        D = _random_derivation(chart, deg, rng)
        p0, q0 = random_poly(chart, rng), random_poly(chart, rng)
        for p in homogeneous_pieces(p0):
            sign = -1 if (deg % 2) * (p.weight() % 2) else 1
            assert D(p * q0) == D(p) * q0 + sign * p * D(q0)


def test_component_weight_validation(t1r3):
    chart = t1r3.chart
    with pytest.raises(GradingError):
        Derivation(chart, 1, {"x1": chart.var("x1")})  # weight 0, needs 1
