"""Twists, quadratic Lie algebras, grids, cocycles, symmetry pairs."""

from fractions import Fraction

import numpy as np
import pytest

from gq import (
    GradingError, GridMap, QuadraticLieAlgebra, StructureError, SymmetryPair,
    TwistData, affine_cocycle_check, broken_cocycle, cartan_3form,
    central_extension, chevalley_eilenberg_q, commutator, gauge_change,
    gauge_shift_consistent, iota_encode, iota_self_bracket, load_gridmap,
    pair_decode, q_square, save_gridmap, sl2, so3, symmetry_bracket,
    twisted_q, wzw_cross_term, wzw_product,
)
from gq.grids import quat_conj, quat_exp, quat_log, quat_mul, quat_normalize, su2_inner
from conftest import given


# -- twists --------------------------------------------------------------------


def test_twist_constant_form_closed():
    T = TwistData(3, 2)
    eta = T.tangent.xi(1) * T.tangent.xi(2) * T.tangent.xi(3)
    assert q_square(twisted_q(TwistData(3, 2, eta))).is_zero()


def test_twist_nonclosed_detected():
    T0 = TwistData(4, 2)
    tc = T0.tangent
    eta = tc.x(1) * tc.xi(2) * tc.xi(3) * tc.xi(4)
    sq = q_square(twisted_q(TwistData(4, 2, eta)))
    assert sq.component("t") == tc.xi(1) * tc.xi(2) * tc.xi(3) * tc.xi(4)


def test_twist_exact_form_closed():
    T0 = TwistData(2, 1)
    alpha = T0.tangent.x(1) * T0.tangent.xi(2)
    eta = T0.tangent.d(alpha)
    assert q_square(twisted_q(TwistData(2, 1, eta))).is_zero()


def _random_base_coeff(tc, rng):
    return tc.chart.monomial(
        Fraction(rng.randint(-2, 2)),
        tuple(rng.randint(0, 2) if v.weight == 0 else 0 for v in tc.chart.gvars))


def test_twist_q2_iff_closed_randomized(rng):
    import itertools

    seen = {True: 0, False: 0}
    T0 = TwistData(3, 1)
    tc = T0.tangent
    for _ in range(40):
        eta = tc.zero()
        for _ in range(rng.randint(1, 2)):
            a, b = rng.choice(list(itertools.combinations((1, 2, 3), 2)))
            eta = eta + _random_base_coeff(tc, rng) * tc.xi(a) * tc.xi(b)
        T = TwistData(3, 1, eta)
        flat = q_square(twisted_q(T)).is_zero()
        assert flat == tc.d(eta).is_zero()
        seen[flat] += 1
    assert seen[True] and seen[False]


def test_gauge_change_examples():
    T = TwistData(2, 1)
    tc = T.tangent
    assert gauge_change(T, tc.zero()).eta == T.eta
    alpha = tc.x(1) * tc.xi(2)
    assert gauge_change(T, alpha).eta == tc.xi(1) * tc.xi(2)
    # closedness preserved: d(eta + d alpha) = d eta
    T2 = TwistData(2, 1, tc.xi(1) * tc.xi(2))
    assert tc.d(gauge_change(T2, alpha).eta) == tc.d(T2.eta)


def test_gauge_shift_conjugates_q(rng):
    # n = 2: the shift is a base 2-form
    T = TwistData(2, 2)
    tc = T.tangent
    for _ in range(10):
        alpha = _random_base_coeff(tc, rng) * tc.xi(1) * tc.xi(2)
        assert gauge_shift_consistent(T, alpha)
    # n = 1: the shift is a base 1-form
    T1 = TwistData(2, 1)
    tc1 = T1.tangent
    for _ in range(10):
        alpha = tc1.zero()
        for a in (1, 2):
            alpha = alpha + _random_base_coeff(tc1, rng) * tc1.xi(a)
        assert gauge_shift_consistent(T1, alpha)


def test_twist_validation():
    T0 = TwistData(2, 2)
    with pytest.raises(GradingError):
        TwistData(2, 2, T0.tangent.xi(1))        # wrong weight
    with pytest.raises(GradingError):
        TwistData(2, 2, T0.chart.var("t") * T0.tangent.xi(1))  # fiber-dependent


# -- dense reference oracle --------------------------------------------------------
# The dense formulas of a quadratic Lie algebra, kept as an independent
# reference: 1-based constants (k, i, j) -> c^k_ij, the form as nested lists,
# vectors as dense lists of Fractions. Built from the literal data below, never
# from the class under test.

SO3_C = {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1}
SO3_IP = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
SL2_C = {(2, 1, 2): 2, (3, 1, 3): -2, (1, 2, 3): 1}
SL2_IP = [[2, 0, 0], [0, 0, 1], [0, 1, 0]]
# so3 + R: a central e1 with form -1, so3 on e2..e4 (constants offset by one)
SO3R_C = {(k + 1, i + 1, j + 1): c for (k, i, j), c in SO3_C.items()}
SO3R_IP = [[-1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]


class DenseOracle:
    def __init__(self, c, ip):
        self.dim = len(ip)
        self.c = {}
        for (k, i, j), val in c.items():
            key, val = ((k, i, j), val) if i < j else ((k, j, i), -val)
            self.c[key] = Fraction(val)
        self.ip = [[Fraction(x) for x in row] for row in ip]

    def structure(self, k, i, j):
        if i == j:
            return Fraction(0)
        if i < j:
            return self.c.get((k, i, j), Fraction(0))
        return -self.c.get((k, j, i), Fraction(0))

    def inner(self, u, v):
        return sum(self.ip[i][j] * u[i] * v[j]
                   for i in range(self.dim) for j in range(self.dim))

    def bracket(self, u, v):
        out = [Fraction(0)] * self.dim
        for i in range(self.dim):
            for j in range(self.dim):
                for k in range(self.dim):
                    out[k] += u[i] * v[j] * self.structure(k + 1, i + 1, j + 1)
        return out


ORACLES = {"so3": DenseOracle(SO3_C, SO3_IP), "sl2": DenseOracle(SL2_C, SL2_IP),
           "so3r": DenseOracle(SO3R_C, SO3R_IP)}
ALGEBRAS = {"so3": so3, "sl2": sl2, "so3r": lambda: QuadraticLieAlgebra(4, SO3R_C, SO3R_IP)}


def _dense(u, dim):
    return [Fraction(u.get(i, 0)) for i in range(dim)]


def _sparse(vec):
    return {i: x for i, x in enumerate(vec) if x}


# -- quadratic Lie algebras ------------------------------------------------------


def test_so3_sl2_constructible():
    assert so3().dim == 3
    assert sl2().dim == 3


def test_invalid_algebras_rejected():
    with pytest.raises(StructureError):
        # Jacobi fails with an off-diagonal defect
        QuadraticLieAlgebra(3, {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1, (1, 3, 1): 1},
                            [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(StructureError):
        # degenerate inner product
        QuadraticLieAlgebra(2, {}, [[1, 0], [0, 0]])
    with pytest.raises(StructureError):
        # non-invariant inner product on so(3)
        QuadraticLieAlgebra(3, {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1},
                            [[2, 0, 0], [0, 1, 0], [0, 0, 1]])


_EYE2 = [[1, 0], [0, 1]]


@pytest.mark.parametrize("c,ip,error,message", [
    ({(3, 1, 2): 1}, _EYE2, ValueError, "index out of range"),
    ({(1, 0, 2): 1}, _EYE2, ValueError, "index out of range"),
    ({(1, 1, 1): 1}, _EYE2, ValueError, "vanish for i == j"),
    ({(1, 1, 2): 1, (1, 2, 1): 1}, _EYE2, ValueError, "conflicting structure constants"),
    ({}, [[1, 1], [0, 1]], StructureError, "symmetric"),
    ({}, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], ValueError, "must be 2x2"),
], ids=["index-above", "index-zero", "diagonal", "conflict", "non-symmetric", "form-shape"])
def test_constructor_rejects_bad_data(c, ip, error, message):
    with pytest.raises(error, match=message):
        QuadraticLieAlgebra(2, c, ip)


def test_constructor_accepts_consistent_mirrored_constants():
    g = QuadraticLieAlgebra(3, {**SO3_C, (3, 2, 1): -1, (1, 1, 1): 0}, SO3_IP)
    assert g.brackets == so3().brackets
    assert all(type(x) is int for vec in g.brackets.values() for x in vec.values())


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_basis_brackets_and_form_match_dense_oracle(name):
    g, o = ALGEBRAS[name](), ORACLES[name]
    for i in range(g.dim):
        for j in range(g.dim):
            ei, ej = {i: 1}, {j: 1}
            assert g.bracket(ei, ej) == _sparse(o.bracket(_dense(ei, o.dim), _dense(ej, o.dim)))
            assert g.brackets.get((i, j), {}) == g.bracket(ei, ej)
            assert g.inner(ei, ej) == o.ip[i][j]
    assert g.ip == o.ip


def _vector(st):
    return st.dictionaries(st.integers(0, 3), st.integers(-3, 3), max_size=4)


@given(lambda st: st.sampled_from(sorted(ORACLES)), _vector, _vector)
def test_bracket_and_inner_match_dense_oracle_property(name, u, v):
    g, o = ALGEBRAS[name](), ORACLES[name]
    u = {i: x for i, x in u.items() if i < g.dim and x}
    v = {i: x for i, x in v.items() if i < g.dim and x}
    du, dv = _dense(u, g.dim), _dense(v, g.dim)
    assert g.bracket(u, v) == _sparse(o.bracket(du, dv))
    assert g.inner(u, v) == o.inner(du, dv)


def test_cartan_3form_so3():
    g = so3()
    eta = cartan_3form(g)
    chart = eta.chart
    assert eta == chart.var("xi1") * chart.var("xi2") * chart.var("xi3")
    assert chevalley_eilenberg_q(g)(eta).is_zero()


def test_cartan_3form_abelian_is_zero():
    g = QuadraticLieAlgebra(2, {}, [[1, 0], [0, 1]])
    assert cartan_3form(g).is_zero()


def test_cartan_3form_sl2_closed():
    g = sl2()
    assert chevalley_eilenberg_q(g)(cartan_3form(g)).is_zero()


# -- central extension -------------------------------------------------------------


@pytest.mark.parametrize("g", [so3(), sl2()])
def test_central_extension_graded_jacobi(g):
    ce = central_extension(g)
    assert ce.jacobi_violation() is None
    assert ce.q_derivation_violation() is None
    assert ce.q_square_is_zero()


@pytest.mark.parametrize("algebra,form", [(so3, SO3_IP), (sl2, SL2_IP)], ids=["so3", "sl2"])
def test_central_extension_bracket_is_inner_product(algebra, form):
    g = algebra()
    ce = central_extension(g)
    d = g.dim
    for i in range(d):
        for j in range(d):
            vec = ce.bracket_vec({d + i: 1}, {d + j: 1})
            expected = {2 * d: form[i][j]} if form[i][j] else {}
            assert vec == expected


def test_central_extension_q_derivation_example():
    # Q[u, v[1]] = [u, v] since Qu = 0 and Q(v[1]) = v
    g = so3()
    ce = central_extension(g)
    d = g.dim
    for i in range(d):
        for j in range(d):
            lhs = ce.q_vec(ce.bracket_vec({i: Fraction(1)}, {d + j: Fraction(1)}))
            rhs = ce.bracket_vec({i: Fraction(1)}, {j: Fraction(1)})
            assert lhs == rhs


# -- loop cocycle -------------------------------------------------------------------


def test_cocycle_so3():
    assert affine_cocycle_check(so3(), 2)


def test_cocycle_abelian_trivially():
    g = QuadraticLieAlgebra(2, {}, [[1, 0], [0, 1]])
    assert affine_cocycle_check(g, 2)


def test_broken_cocycle_fails():
    g = so3()
    assert not affine_cocycle_check(g, 2, broken_cocycle(g))


def _full_triple_cocycle_check(o, mode_cutoff, power):
    """Reference: c(u z^m, v z^n) = m^power delta_{m+n,0} <u, v> on the dense
    oracle `o`, with the cocycle identity checked on every mode triple."""
    def cocycle(u, m, v, n):
        return Fraction(m ** power) * o.inner(u, v) if m + n == 0 else Fraction(0)

    basis = [[Fraction(int(a == b)) for b in range(o.dim)] for a in range(o.dim)]
    modes = range(-mode_cutoff, mode_cutoff + 1)
    for i in range(o.dim):
        for j in range(o.dim):
            bij = o.bracket(basis[i], basis[j])
            for k in range(o.dim):
                bjk = o.bracket(basis[j], basis[k])
                bki = o.bracket(basis[k], basis[i])
                for m in modes:
                    for n in modes:
                        for l in modes:
                            if (cocycle(bij, m + n, basis[k], l)
                                    + cocycle(bjk, n + l, basis[i], m)
                                    + cocycle(bki, l + m, basis[j], n)) != 0:
                                return False
    return True


@pytest.mark.parametrize("cutoff", [1, 2, 3, 4])
@pytest.mark.parametrize("algebra", [so3, sl2])
def test_cocycle_check_matches_full_triple_loop(algebra, cutoff):
    g, o = algebra(), ORACLES[algebra.__name__]
    assert affine_cocycle_check(g, cutoff) == _full_triple_cocycle_check(o, cutoff, 1)
    assert (affine_cocycle_check(g, cutoff, broken_cocycle(g))
            == _full_triple_cocycle_check(o, cutoff, 2))
    assert affine_cocycle_check(g, cutoff)
    assert not affine_cocycle_check(g, cutoff, broken_cocycle(g))


# -- symmetry pairs ---------------------------------------------------------------


def _pair(m, n, v_exprs, alpha):
    return SymmetryPair(m, n, v_exprs, alpha)


def _tangent(m, n):
    return TwistData(m, n).tangent


def test_iota_contraction_criterion():
    tc = _tangent(2, 2)
    s_ok = _pair(2, 2, [tc.one(), tc.zero()], tc.xi(2))
    assert iota_self_bracket(s_ok).is_zero()
    s_bad = _pair(2, 2, [tc.one(), tc.zero()], tc.xi(1))
    assert not iota_self_bracket(s_bad).is_zero()
    s_zero = _pair(2, 2, [tc.one(), tc.zero()], tc.zero())
    assert iota_self_bracket(s_zero).is_zero()


def _random_pair(tc, m, n, rng):
    def rand0():
        p = tc.chart.zero()
        for _ in range(rng.randint(1, 2)):
            key = [0] * len(tc.chart.gvars)
            for a in range(m):
                key[tc.chart.index(tc.x_names[a])] = rng.randint(0, 2)
            p = p + tc.chart.monomial(Fraction(rng.randint(-2, 2)), tuple(key))
        return p

    v = [rand0() for _ in range(m)]
    alpha = tc.chart.zero()
    for a in range(m):
        alpha = alpha + rand0() * tc.xi(a + 1)
    return SymmetryPair(m, n, v, alpha)


def test_iota_iff_contraction_random(rng):
    tc = _tangent(3, 2)
    seen = {True: 0, False: 0}
    for trial in range(60):
        s = _random_pair(tc, 3, 2, rng)
        if trial % 3 == 0:
            # force some transverse cases so both outcomes occur:
            # v along d_1, alpha missing xi^1
            alpha = _random_base_coeff(tc, rng) * tc.xi(2) \
                + _random_base_coeff(tc, rng) * tc.xi(3)
            s = SymmetryPair(3, 2, [s.v[0], tc.zero(), tc.zero()], alpha)
        zero_bracket = iota_self_bracket(s).is_zero()
        assert zero_bracket == tc.iota(s.v, s.alpha).is_zero()
        seen[zero_bracket] += 1
    assert seen[True] and seen[False]


def test_symmetry_bracket_matches_commutator(rng):
    tc = _tangent(2, 2)
    Q = twisted_q(TwistData(2, 2))
    for _ in range(15):
        s1 = _random_pair(tc, 2, 2, rng)
        s2 = _random_pair(tc, 2, 2, rng)
        br = symmetry_bracket(s1, s2)
        dec = pair_decode(s1, commutator(commutator(Q, iota_encode(s1)), iota_encode(s2)))
        assert dec == br


def test_polarized_half_identity(rng):
    """bracket(s1,s2) + bracket(s2,s1) decodes [Q, [iota1, iota2]]."""
    tc = _tangent(2, 2)
    Q = twisted_q(TwistData(2, 2))
    for _ in range(15):
        s1 = _random_pair(tc, 2, 2, rng)
        s2 = _random_pair(tc, 2, 2, rng)
        b12, b21 = symmetry_bracket(s1, s2), symmetry_bracket(s2, s1)
        pol = pair_decode(s1, commutator(Q, commutator(iota_encode(s1), iota_encode(s2))))
        assert pol.v == [a + b for a, b in zip(b12.v, b21.v)]
        assert pol.alpha == b12.alpha + b21.alpha


def test_leibniz_identity_random(rng):
    tc = _tangent(2, 2)
    for _ in range(25):
        s1, s2, s3 = (_random_pair(tc, 2, 2, rng) for _ in range(3))
        lhs = symmetry_bracket(s1, symmetry_bracket(s2, s3))
        r1 = symmetry_bracket(symmetry_bracket(s1, s2), s3)
        r2 = symmetry_bracket(s2, symmetry_bracket(s1, s3))
        assert lhs.v == [a + b for a, b in zip(r1.v, r2.v)]
        assert lhs.alpha == r1.alpha + r2.alpha


def test_non_skew_witness_exists():
    tc = _tangent(2, 2)
    w1 = _pair(2, 2, [tc.one(), tc.zero()], tc.zero())
    w2 = _pair(2, 2, [tc.zero(), tc.zero()], tc.x(2) * tc.xi(1))
    b12 = symmetry_bracket(w1, w2)
    b21 = symmetry_bracket(w2, w1)
    assert not (b12.v == [-c for c in b21.v] and b12.alpha == -b21.alpha)
    # the defect is exact: d(iota_1 alpha_2 + iota_2 alpha_1)
    defect = b12.alpha + b21.alpha
    assert defect == tc.d(tc.iota(w1.v, w2.alpha) + tc.iota(w2.v, w1.alpha))


def test_trivial_self_bracket():
    tc = _tangent(2, 2)
    s = _pair(2, 2, [tc.one(), tc.zero()], tc.zero())
    br = symmetry_bracket(s, s)
    assert all(c.is_zero() for c in br.v) and br.alpha.is_zero()


# -- grids -------------------------------------------------------------------------


def _smooth(freq):
    def f(s, t):
        return quat_exp(0.4 * freq * np.array([np.sin(2 * s + t), np.cos(s - 2 * t), s * t + 0.3]))

    return f


def test_gridmap_validation():
    bad = np.zeros((3, 3, 4))
    bad[..., 0] = 1.01
    with pytest.raises(StructureError):
        GridMap(bad)
    with pytest.raises(ValueError):
        GridMap(np.zeros((1, 3, 4)))


def test_wzw_identity_is_unit():
    a = GridMap.from_function(_smooth(1.0), 6, 6, omega_fn=lambda s, t: np.sin(s + t))
    e = GridMap.identity(6, 6)
    prod = wzw_product(a, e)
    assert np.array_equal(prod.values, a.values)
    assert np.array_equal(prod.omega, a.omega)
    prod_l = wzw_product(e, a)
    assert np.allclose(prod_l.values, a.values, atol=1e-15)
    assert np.allclose(prod_l.omega, a.omega, atol=1e-15)


def test_wzw_inverse_cancels():
    b = GridMap.from_function(_smooth(0.7), 6, 6, omega_fn=lambda s, t: 0.2 * s * t)
    inv = b.inverse()
    a = GridMap(inv.values, -b.omega - wzw_cross_term(inv, b))
    prod = wzw_product(a, b)
    assert np.max(np.abs(prod.values - GridMap.identity(6, 6).values)) < 1e-12
    assert np.max(np.abs(prod.omega)) < 1e-15


def test_wzw_grid_mismatch():
    a = GridMap.identity(4, 4)
    b = GridMap.identity(5, 4)
    with pytest.raises(ValueError):
        wzw_product(a, b)


def test_wzw_associativity_converges():
    f1, f2, f3 = _smooth(1.0), _smooth(0.6), _smooth(0.8)
    defects = []
    for n in (8, 16, 32):
        A = GridMap.from_function(f1, n, n)
        B = GridMap.from_function(f2, n, n)
        C = GridMap.from_function(f3, n, n)
        lhs = wzw_product(wzw_product(A, B), C)
        rhs = wzw_product(A, wzw_product(B, C))
        assert np.max(np.abs(lhs.values - rhs.values)) < 1e-12  # f-part exact
        defects.append(float(np.max(np.abs(lhs.omega - rhs.omega))))
    # cross-term defect shrinks at (better than) second order
    assert defects[1] < defects[0] / 3
    assert defects[2] < defects[1] / 3


def test_wzw_cross_term_ad_invariance_pointwise(nprng):
    # <Ad_q u, Ad_q w> = <u, w> for the implementation's log/inner pair
    for _ in range(50):
        q = quat_normalize(nprng.normal(size=4))
        u = nprng.normal(size=3)
        w = nprng.normal(size=3)

        def ad(q, v):
            vq = np.concatenate([[0.0], v])
            return quat_mul(quat_mul(q, vq), quat_conj(q))[1:]

        assert abs(su2_inner(ad(q, u), ad(q, w)) - su2_inner(u, w)) < 1e-12


# -- oracle for the product correction ------------------------------------------


def su2_bracket(x, y):
    """[x, y] = 2 x cross y in the quaternion model."""
    return 2.0 * np.cross(x, y)


def wzw_descent_residual(f1, f2, center, h):
    """Finite-difference residual of the product correction's 3-form identity.

    With theta_l, theta_r discretized as edge logarithms and
    eta(u, v, w) = <u, [v, w]>, the exact smooth identity in these
    conventions reads d<f1*theta_l wedge f2*theta_r> =
    f1*eta + f2*eta - (f1 f2)*eta, so the corrected 2-form of wzw_product
    propagates the descent equation d omega = -f*eta. Returns the absolute
    defect of the identity on an h-cube around `center`; O(h^4) ~ h * volume.

    f1, f2: callables R^3 -> unit quaternion.
    """
    center = np.asarray(center, dtype=float)

    def cross_face(f, g, origin, d1, d2):
        # 2x2 node patch spanning the face origin + s*d1 + t*d2, s,t in [0,h]
        corners = [origin, origin + d1, origin + d1 + d2, origin + d2]
        fa = GridMap(np.array([[f(corners[0]), f(corners[3])],
                               [f(corners[1]), f(corners[2])]]))
        fb = GridMap(np.array([[g(corners[0]), g(corners[3])],
                               [g(corners[1]), g(corners[2])]]))
        return wzw_cross_term(fa, fb)[0, 0]

    ex = np.array([h, 0.0, 0.0])
    ey = np.array([0.0, h, 0.0])
    ez = np.array([0.0, 0.0, h])
    o = center - 0.5 * (ex + ey + ez)

    def d_of_cross(f, g):
        total = 0.0
        for d1, d2, d3 in ((ey, ez, ex), (ez, ex, ey), (ex, ey, ez)):
            total += cross_face(f, g, o + d3, d1, d2) - cross_face(f, g, o, d1, d2)
        return total

    def pullback_eta(f):
        # left MC frame by central differences at the cube center
        q0 = np.asarray(f(center))
        logs = []
        for d in (ex, ey, ez):
            plus = np.asarray(f(center + 0.5 * d))
            minus = np.asarray(f(center - 0.5 * d))
            logs.append(quat_log(quat_mul(quat_conj(minus), plus)))
        u, v, w = logs
        return float(su2_inner(u, su2_bracket(v, w)))

    def f12(p):
        return quat_mul(np.asarray(f1(p)), np.asarray(f2(p)))

    lhs = d_of_cross(f1, f2)
    rhs = pullback_eta(f1) + pullback_eta(f2) - pullback_eta(f12)
    return abs(lhs - rhs)


def test_wzw_descent_first_order():
    def g1(p):
        return quat_exp(0.5 * np.array([p[0], p[1] * 2, p[2] - p[0]]))

    def g2(p):
        return quat_exp(0.4 * np.array([np.sin(p[0] + p[2]), p[1], np.cos(p[1])]))

    center = np.array([0.3, 0.4, 0.2])
    res = [wzw_descent_residual(g1, g2, center, h) / h ** 3 for h in (0.2, 0.1, 0.05)]
    assert res[1] < res[0] / 1.8
    assert res[2] < res[1] / 1.8


def test_gridmap_file_roundtrip(tmp_path):
    a = GridMap.from_function(_smooth(0.9), 4, 5, omega_fn=lambda s, t: s - t)
    path = tmp_path / "m.grid"
    save_gridmap(a, path)
    b = load_gridmap(path)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(a.omega, b.omega)
