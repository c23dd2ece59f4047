"""Exact cochain complexes, lattice surface models, and the boundary lemmas."""

import hashlib
import itertools
from fractions import Fraction

import pytest

from gq import (
    CohomologyPairing, GradedComplex, LemmaThreeReport, RelativeComplex,
    SimplicialComplex, StructureError, SymplecticComplex, ball_relative_complex,
    boundary_lagrangian, closed_relative, cohomology_pairing, courant_chart,
    lattice_model, lemma3_orthogonality, load_complex, nmap_space, save_complex,
    sl2, so3, suspension_check, tensor_complex, tensor_symplectic, torus_complex,
    two_term_fiber,
)
from gq import complexes as cx
from gq.linalg import (
    Matrix, column_space_basis, dot, extend_to_basis, mat_vec, nullspace, rank,
    span_contains, span_dim,
)
from gq.sigma_structures import ConjugatePair, DarbouxChart

from conftest import given
from models import circle_complex, double_complex, poisson_chart

F = Fraction


def test_two_term_isomorphism_acyclic():
    C = GradedComplex({0: 1, 1: 1}, {0: [[F(1)]]})
    assert all(d == 0 for d in C.betti().values())


def test_d_squared_enforced():
    with pytest.raises(StructureError):
        GradedComplex({0: 1, 1: 1, 2: 1}, {0: [[F(1)]], 1: [[F(1)]]})


def test_circle_cochains():
    assert circle_complex(5).betti() == {0: 1, 1: 1}
    assert circle_complex(3).betti() == {0: 1, 1: 1}


def test_torus_betti():
    for m in (3, 4):
        assert torus_complex(m, m).graded_complex().betti() == {0: 1, 1: 2, 2: 1}


def test_torus_so3_moduli():
    R = lattice_model(("torus", 3, 3), so3())
    cp = cohomology_pairing(R.total)
    assert cp.dims == {0: 3, 1: 6, 2: 3}
    assert cp.nondegenerate
    assert R.total.complex.euler_characteristic() == 0


def test_torus_pairing_degree_bookkeeping():
    # n = 2 fiber pairing over a 2-dim surface: total pairing degree 2 + 0
    R = lattice_model(("torus", 3, 3), so3())
    assert R.total.pairing_degree == 2
    # omega_M has degree n - dim M = 0 relative to the section grading


def test_cohomology_pairing_rejects_incompatible():
    # a pairing violating <du, v> + (-1)^k <u, dv> = 0
    C = GradedComplex({0: 1, 1: 1}, {0: [[F(1)]]})
    S = SymplecticComplex(C, 1, {0: [[F(1)]], 1: [[F(1)]]})
    with pytest.raises(StructureError):
        cohomology_pairing(S)


def test_acyclic_pairing_trivial():
    C = GradedComplex({0: 1, 1: 1}, {0: [[F(1)]]})
    S = SymplecticComplex(C, 1, {0: [[F(0)]], 1: [[F(0)]]})
    cp = cohomology_pairing(S)
    assert all(d == 0 for d in cp.dims.values())
    assert cp.nondegenerate  # vacuously


def test_doubles_strict_equality(rng):
    for _ in range(8):
        d0, d1 = rng.randint(1, 3), rng.randint(1, 3)
        M = [[F(rng.randint(-2, 2)) for _ in range(d0)] for _ in range(d1)]
        C = GradedComplex({0: d0, 1: d1}, {0: M})
        for n in (1, 2, 3):
            S = double_complex(C, n)
            assert S.compatibility_violation() is None
            assert S.chain_nondegenerate()
            rep = lemma3_orthogonality(closed_relative(S))
            assert rep.mode == "strict"
            assert rep.equality
            assert rep.quotient_nondegenerate


def test_interval_model_exact_equality():
    R = lattice_model(("interval", 4), two_term_fiber(2))
    rep = lemma3_orthogonality(R)
    assert rep.inclusion and rep.equality
    assert rep.quotient_nondegenerate
    assert sum(rep.quotient_dims.values()) == 4


def test_torus_lemma3_degraded_mode():
    R = lattice_model(("torus", 3, 3), so3())
    rep = lemma3_orthogonality(R)
    assert rep.mode == "degraded"
    assert rep.inclusion
    assert rep.quotient_dims == {0: 3, 1: 6, 2: 3}
    assert rep.quotient_nondegenerate


def test_stokes_exact_on_all_models():
    models = [
        lattice_model(("interval", 3), two_term_fiber(1)),
        lattice_model(("interval", 4), two_term_fiber(2)),
        lattice_model(("cylinder", 3, 2), so3()),
        lattice_model(("disk", 2), so3()),
        lattice_model(("torus", 3, 3), sl2()),
    ]
    for R in models:
        assert R.stokes_violation() is None


def test_cylinder_boundary_lagrangian():
    R = lattice_model(("cylinder", 3, 2), so3())
    rep = boundary_lagrangian(R)
    assert rep.isotropic
    assert rep.boundary_pairing_nondegenerate
    assert rep.boundary_h_dim == 12
    assert rep.image_dim == 6
    assert rep.lagrangian


def test_disk_boundary_lagrangian_abelian():
    ab = SymplecticComplex(GradedComplex({0: 2}, {}), 0, {0: [[F(0), F(1)], [F(1), F(0)]]})
    rep = boundary_lagrangian(lattice_model(("disk", 3), ab))
    assert rep.isotropic and rep.lagrangian
    assert 2 * rep.image_dim == rep.boundary_h_dim


def test_lattice_fiber_with_differential_rejected():
    F1 = SymplecticComplex(GradedComplex({0: 1, 1: 1}, {0: [[1]]}), 1, {0: [[1]], 1: [[1]]})
    with pytest.raises(ValueError, match="no differential"):
        lattice_model(("interval", 2), F1)


# save_complex bytes of lattice models: a change of block layout, order or
# sign in the assembly shows here
@pytest.mark.parametrize("surface, fiber, part, sha256", [
    (("torus", 3, 3), so3, "total",
     "cf3d8f47f995b5ef45f66d14d28d843c1088b1b476ef6565b329a4714c0eacaf"),
    (("cylinder", 3, 2), so3, "total",
     "d7f034829caa43b81864fe3908d469c806c836dc7de948c51ce5a474d1bba16c"),
    (("cylinder", 3, 2), so3, "boundary",
     "79de29a8221d5f2ead2041244333500730bb4848b6fb92412b87f267b5feae43"),
    (("interval", 4), lambda: two_term_fiber(2), "total",
     "0bccb8f9d10a9dffc148174e31160363c5e519976493027dad23058d220991ee"),
], ids=["torus-so3", "cylinder-so3", "cylinder-so3-boundary", "interval-fiber2"])
def test_lattice_save_bytes_pinned(tmp_path, surface, fiber, part, sha256):
    path = tmp_path / "c.cplx"
    save_complex(getattr(lattice_model(surface, fiber()), part), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256


def test_simplicial_from_tops_orientation():
    K = SimplicialComplex.from_tops([(2, 1), (1, 0)])     # the path 2 -> 1 -> 0
    assert K.fundamental == {(1, 2): -1, (0, 1): -1}
    assert K.boundary_chain() == {(0,): 1, (2,): -1}
    assert SimplicialComplex(K.boundary_chain()).simplices == {0: [(0,), (2,)]}
    with pytest.raises(ValueError, match="degenerate"):
        SimplicialComplex.from_tops([(0, 1, 1)])


def test_empty_boundary_vacuous():
    R = lattice_model(("torus", 3, 3), so3())
    rep = boundary_lagrangian(R)
    assert rep.image_dim == 0 and rep.boundary_h_dim == 0
    assert rep.lagrangian  # zero space in zero space


def test_ball_models():
    assert ball_relative_complex(1, 4).betti() == {0: 0, 1: 1}
    b2 = ball_relative_complex(2, 3).betti()
    assert b2.get(2) == 1 and all(v == 0 for k, v in b2.items() if k != 2)
    b3 = ball_relative_complex(3).betti()
    assert b3.get(3) == 1 and all(v == 0 for k, v in b3.items() if k != 3)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_suspension_shift_three_bases(n):
    bases = [
        GradedComplex({0: 1}, {}),                        # a point
        circle_complex(4),                                # H = (1, 1)
        GradedComplex({0: 2, 1: 2},
                      {0: [[F(1), F(0)], [F(0), F(0)]]}),  # mixed kernel/cokernel
    ]
    for C0 in bases:
        rep = suspension_check(C0, n)
        assert rep.shifted_matches
        assert rep.tensor_betti == {k + n: d for k, d in rep.base_betti.items() if d}


def test_suspension_acyclic_base():
    C0 = GradedComplex({0: 1, 1: 1}, {0: [[F(1)]]})
    for n in (1, 2):
        rep = suspension_check(C0, n)
        assert rep.shifted_matches
        assert rep.tensor_betti == {}


def test_lemma2_shadow_vanishing():
    # bounded below by -d with d = 1: the n-shift empties degree 0 for n > 1
    C = GradedComplex({-1: 2, 0: 2}, {-1: [[F(1), F(0)], [F(0), F(1)]]})
    for n in (2, 3):
        rep = suspension_check(C, n)
        assert rep.shifted_matches
        assert rep.tensor_betti.get(0, 0) == 0


def test_tensor_complex_kunneth_euler():
    A = circle_complex(3)
    B = circle_complex(4)
    T = tensor_complex(A, B)
    assert T.euler_characteristic() == A.euler_characteristic() * B.euler_characteristic()
    assert T.betti() == {0: 1, 1: 2, 2: 1}  # torus via Kunneth


def _small_complex(st):
    """A two-term complex C^lo -> C^{lo+1} with a random integer differential."""
    def build(shape):
        lo, d0, d1 = shape
        rows = st.lists(st.integers(-2, 2), min_size=d0, max_size=d0)
        return st.lists(rows, min_size=d1, max_size=d1).map(
            lambda M: GradedComplex({lo: d0, lo + 1: d1}, {lo: M}))
    return st.tuples(st.integers(-1, 1), st.integers(1, 3), st.integers(1, 3)).flatmap(build)


def _degree(st):
    return st.integers(0, 3)


@given(_small_complex, _small_complex, _degree, _degree)
def test_tensor_symplectic_of_doubles(C1, C2, n1, n2):
    A, B = double_complex(C1, n1), double_complex(C2, n2)
    T = tensor_symplectic(A, B)
    assert T.pairing_degree == n1 + n2
    assert T.compatibility_violation() is None
    assert T.chain_nondegenerate()
    kunneth = {}
    for i, x in A.complex.betti().items():
        for j, y in B.complex.betti().items():
            kunneth[i + j] = kunneth.get(i + j, 0) + x * y
    nonzero = lambda b: {k: d for k, d in b.items() if d}
    assert nonzero(T.complex.betti()) == nonzero(kunneth)


@pytest.mark.parametrize("lo", [-2, -1, 0, 1])
@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_doubles_keep_exact_signs(lo, n):
    # (-1) ** e is a float for e < 0; a float sign next to a pivot such as 3
    # made the elimination inexact and failed the lemma on a double
    for M in ([[-3], [2]], [[3, 1]], [[2, 0], [0, 3]], [[0, 0]]):
        S = double_complex(GradedComplex({lo: len(M[0]), lo + 1: len(M)}, {lo: M}), n)
        mats = [*S.complex.differentials.values(), *S.pairings.values()]
        assert {type(x) for A in mats for row in A.rows for x in row.values()} <= {int, F}
        assert lemma3_orthogonality(closed_relative(S)).verdict == "pass"
        assert type(S.complex.euler_characteristic()) is int


# -- cohomology and lemma 3 against the formulas they replaced -----------------------
# The oracles below reduce im d_{k-1} on its own, pair vector by vector and take
# the rank of the assembled quotient pairing; the library asks each question once.


def _oracle_cohomology(C):
    out = {}
    for k in sorted(set(C.degrees()) | {k + 1 for k in C.degrees()}):
        Z, B = C.cocycles(k), column_space_basis(C.d(k - 1))
        if len(Z) - len(B) or C.dim(k):
            out[k] = (len(Z) - len(B), extend_to_basis(B, Z))
    return out


def _oracle_pair_matrix(S, k, us, vs):
    pvs = [mat_vec(S.pairing(k), v) for v in vs]
    return Matrix([{j: x for j, pv in enumerate(pvs) if (x := dot(u, pv))} for u in us],
                  len(vs))


def _oracle_cohomology_pairing(S):
    D = S.pairing_degree
    coh = _oracle_cohomology(S.complex)
    dims = {k: d for k, (d, _) in coh.items()}
    reps = {k: r for k, (_, r) in coh.items()}
    blocks = {k: _oracle_pair_matrix(S, k, r, reps.get(D - k, [])) for k, r in reps.items() if r}
    nondeg = all(rank(b) == dims.get(k, 0) == dims.get(D - k, 0) for k, b in blocks.items())
    nondeg = nondeg and all(k in blocks for k, d in dims.items() if d)
    return CohomologyPairing(dims, blocks, nondeg, reps)


def _oracle_lemma3(R):
    S, C = R.total, R.total.complex
    D = S.pairing_degree
    degs = sorted(set(C.degrees()) | {k + 1 for k in C.degrees()})
    z = {k: C.cocycles(k) for k in degs}
    b0 = {k: [w for v in R.sub_kernel(k - 1) if (w := mat_vec(C.d(k - 1), v))] for k in degs}
    perp = {}
    for k in degs:
        P, PT = S.pairing(k), S.pairing(D - k).T
        rows = [r for b in b0.get(D - k, []) for r in (mat_vec(P, b), mat_vec(PT, b))]
        perp[k] = nullspace(Matrix(rows, C.dim(k)))
    inclusion = all(span_contains(perp[k], z[k]) for k in degs)
    reps = {k: extend_to_basis(b0[k], z[k]) for k in degs}
    qdims = {k: len(r) for k, r in reps.items() if r}
    total, pos, entries = sum(qdims.values()), {}, []
    for k in sorted(qdims):
        pos[k] = sum(qdims[j] for j in pos)
    for k in qdims:
        if D - k in qdims:
            block = _oracle_pair_matrix(S, k, reps[k], reps[D - k])
            entries += [(pos[k] + i, pos[D - k] + j, x)
                        for i, row in enumerate(block.rows) for j, x in row.items()]
    return LemmaThreeReport(
        mode="strict" if S.chain_nondegenerate() else "degraded",
        equality=inclusion and all(len(perp[k]) == len(z[k]) for k in degs),
        inclusion=inclusion,
        z_dims={k: len(z[k]) for k in degs if z[k]},
        b0_dims={k: span_dim(v) for k, v in b0.items() if v},
        perp_dims={k: len(perp[k]) for k in degs if perp[k]},
        quotient_dims=qdims,
        quotient_nondegenerate=rank(Matrix.from_entries(total, total, entries)) == total,
    )


def _assert_matches_oracle(R):
    """Every field, representatives and pairing blocks included."""
    for S in (R.total, R.boundary):
        assert S.complex.cohomology() == _oracle_cohomology(S.complex)
        if S.compatibility_violation() is None:
            assert cohomology_pairing(S) == _oracle_cohomology_pairing(S)
    rep = lemma3_orthogonality(R)
    assert rep == _oracle_lemma3(R)
    return rep


def _direct_sum(S1, S2, scale):
    """S1 + S2 with the pairing P1 + scale * P2 in every degree; scale 0 zeroes
    the blocks of S2 and keeps compatibility."""
    C1, C2, D = S1.complex, S2.complex, S1.pairing_degree
    degs = set(C1.components) | set(C2.components)

    def diagonal(A1, A2, r0, c0, s=1):
        entries = [(i, j, x) for i, row in enumerate(A1.rows) for j, x in row.items()]
        entries += [(r0 + i, c0 + j, s * x) for i, row in enumerate(A2.rows) for j, x in row.items()]
        return Matrix.from_entries(len(A1.rows) + len(A2.rows), A1.ncols + A2.ncols, entries)

    C = GradedComplex({k: C1.dim(k) + C2.dim(k) for k in degs},
                      {k: diagonal(C1.d(k), C2.d(k), C1.dim(k + 1), C1.dim(k)) for k in degs})
    pairings = {k: diagonal(S1.pairing(k), S2.pairing(k), C1.dim(k), C1.dim(D - k), scale)
                for k in degs}
    return SymplecticComplex(C, D, pairings)


_FIBERS = {"so3": so3, "sl2": sl2, "fiber2-1": lambda: two_term_fiber(1),
           "fiber2-2": lambda: two_term_fiber(2)}


@pytest.mark.parametrize("fiber", sorted(_FIBERS))
@pytest.mark.parametrize("surface", [("torus", 3, 3), ("cylinder", 3, 2), ("interval", 3),
                                     ("disk", 2)], ids=lambda s: s[0])
def test_lattice_reports_match_oracle(surface, fiber):
    _assert_matches_oracle(lattice_model(surface, _FIBERS[fiber]()))


def _scale(st):
    return st.sampled_from([None, 0, 1, -2])


@given(_small_complex, _small_complex, _degree, _degree, _scale)
def test_double_reports_match_oracle(C1, C2, n1, n2, scale):
    """Doubles and tensor products of doubles, and their sums with a double
    whose pairing is scaled by 0 (chain-degenerate) or a unit."""
    for S in (double_complex(C1, n1), tensor_symplectic(double_complex(C1, n1),
                                                         double_complex(C2, n2))):
        if scale is not None:
            S = _direct_sum(S, double_complex(C2, S.pairing_degree), scale)
        _assert_matches_oracle(closed_relative(S))


def test_degenerate_sums_reach_both_degraded_branches():
    base = double_complex(GradedComplex({0: 1, 1: 2}, {0: [[-3], [2]]}), 1)
    acyclic = GradedComplex({0: 1, 1: 1}, {0: [[2]]})
    cyclic = GradedComplex({0: 2, 1: 1}, {0: [[1, 3]]})
    reports = [_assert_matches_oracle(closed_relative(_direct_sum(base, double_complex(C, 1), z)))
               for C in (acyclic, cyclic) for z in (1, 0)]
    assert [(r.mode, r.quotient_nondegenerate, r.verdict) for r in reports] == [
        ("strict", True, "pass"), ("degraded", True, "degraded-mode"),
        ("strict", True, "pass"), ("degraded", False, "degraded-mode")]


def test_pairing_and_lemma3_use_matrix_products(monkeypatch):
    """No vector-at-a-time products and no separate reduction of im d."""
    R = lattice_model(("torus", 4, 4), so3())
    calls = []
    for name in ("mat_vec", "column_space_basis"):
        fn = getattr(cx, name)
        monkeypatch.setattr(cx, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    lemma3_orthogonality(R)
    cohomology_pairing(R.total)
    assert calls == []


# -- Kunneth over a fiber without differential -------------------------------------
# A tensor complex whose second factor has no differential takes its cocycles and
# cohomology from the first factor; an unfactored copy eliminates the whole complex.


def _unfactored(C):
    return GradedComplex(C.components, C.differentials)


def _fiber(st):
    """A complex without differential in degrees 0 and n >= 1; for n = 1 its
    d_0 may be given as an explicit zero matrix."""
    def build(shape):
        p, q, n, zero_d = shape
        diffs = {0: [[0] * p for _ in range(q)]} if zero_d and n == 1 else {}
        return GradedComplex({0: p, n: q}, diffs)
    return st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 3),
                     st.booleans()).map(build)


@given(_small_complex, _small_complex, lambda st: st.booleans(), _fiber)
def test_fiber_kunneth_matches_whole_elimination(C1, C2, nested, B):
    A = tensor_complex(C1, C2) if nested else C1
    T = tensor_complex(A, B)
    W = _unfactored(T)
    assert T.cohomology() == W.cohomology()
    for k in range(min(T.degrees()) - 1, max(T.degrees()) + 2):
        assert T.cocycles(k) == W.cocycles(k)


@pytest.mark.parametrize("fiber", sorted(_FIBERS))
@pytest.mark.parametrize("surface", [("torus", 4, 3), ("cylinder", 3, 2), ("interval", 3),
                                     ("disk", 2)], ids=lambda s: s[0])
def test_lattice_reports_match_whole_elimination(surface, fiber):
    """Pairing blocks and representatives, lemma 3 and the boundary
    Lagrangian against the same model with unfactored complexes."""
    R = lattice_model(surface, _FIBERS[fiber]())
    whole = [SymplecticComplex(_unfactored(S.complex), S.pairing_degree, S.pairings)
             for S in (R.total, R.boundary)]
    W = RelativeComplex(*whole, R.restriction)
    for S, S_whole in zip((R.total, R.boundary), whole):
        if S.compatibility_violation() is None:
            assert cohomology_pairing(S) == cohomology_pairing(S_whole)
    assert lemma3_orthogonality(R) == lemma3_orthogonality(W)
    assert boundary_lagrangian(R) == boundary_lagrangian(W)


@pytest.mark.parametrize("n", [1, 2])
def test_fiber_with_differential_eliminates_whole_complex(n):
    """Ball models have a differential: A (x) B is not A's cohomology tensored
    with B's basis, and the cohomology comes from the whole complex."""
    T = tensor_complex(circle_complex(3), ball_relative_complex(n))
    W = _unfactored(T)
    assert {k: d for k, d in T.betti().items() if d} == {n: 1, n + 1: 1}
    assert T.cohomology() == W.cohomology()
    assert all(T.cocycles(k) == W.cocycles(k) for k in range(-1, n + 3))


def test_lattice_cohomology_eliminates_only_the_surface(monkeypatch):
    """No kernel wider than a surface cochain space is computed for the
    cohomology of a lattice model."""
    R = lattice_model(("torus", 4, 4), so3())
    widths = []
    monkeypatch.setattr(cx, "nullspace", lambda A, fn=cx.nullspace: widths.append(A.ncols) or fn(A))
    R.total.complex.cohomology()
    K = torus_complex(4, 4)
    assert widths and max(widths) <= max(K.dim(k) for k in K.simplices)


# -- N-map spaces -----------------------------------------------------------------


def test_nmap_tstar_line():
    N = nmap_space(poisson_chart(1), 1)
    assert [(w, d) for _, w, d in N.components] == [(0, 1), (1, 1)]
    assert N.total_dim == 2 and N.nondegenerate
    assert N.pairing == [[F(0), F(1)], [F(-1), F(0)]]   # canonical T*P block


def test_nmap_tstar_dims():
    for m in (1, 2, 3):
        N = nmap_space(poisson_chart(m), 1)
        assert N.total_dim == 2 * m
        assert N.nondegenerate


def test_nmap_sigma2_dims():
    N = nmap_space(courant_chart(1), 2)
    dims = {name: d for name, _, d in N.components}
    assert dims == {"x1": 1, "p1": 1, "theta1": 2, "chi1": 2}
    assert N.total_dim == 6 and N.nondegenerate


def test_nmap_empty_chart():
    N = nmap_space(DarbouxChart(1, []), 1)
    assert N.total_dim == 0 and N.nondegenerate


def test_two_term_fiber_needs_positive_degree():
    assert two_term_fiber(1).complex.components == {0: 1, 1: 1}
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            two_term_fiber(n)


def test_nmap_negative_source_dimension_rejected():
    with pytest.raises(ValueError, match="negative"):
        nmap_space(poisson_chart(1), -1)


def test_perm_sign_of_a_concatenation_counts_cross_inversions():
    """nmap_space signs a wedge of the sorted, disjoint index sets S and T by
    `_perm_sign(S + T)`, which is (-1)^#{(s, t): s > t}."""
    subsets = [c for k in range(7) for c in itertools.combinations(range(1, 7), k)]
    for S in subsets:
        for T in subsets:
            if set(S).isdisjoint(T):
                assert cx._perm_sign(S + T) == (-1) ** sum(s > t for s in S for t in T)


def test_nmap_total_dims_binomial():
    from math import comb

    ch = DarbouxChart(3, [ConjugatePair("a", 1, "b", 2), ConjugatePair("c", 0, "d", 3)])
    N = nmap_space(ch, 3)
    assert N.total_dim == sum(comb(3, w) for _, w, _ in N.components)
    assert N.nondegenerate


# -- interchange format -------------------------------------------------------------


def test_interchange_roundtrip(tmp_path):
    C = GradedComplex({0: 2, 1: 1}, {0: [[F(1), F("2/3")]]})
    S = double_complex(C, 2)
    f = tmp_path / "c.cplx"
    save_complex(S, f)
    S2 = load_complex(f)
    assert isinstance(S2, SymplecticComplex)
    assert S2.complex.components == S.complex.components
    assert S2.complex.differentials == S.complex.differentials
    assert S2.pairings == S.pairings
    assert S2.pairing_degree == S.pairing_degree
    # plain complex
    f2 = tmp_path / "c2.cplx"
    save_complex(C, f2)
    C2 = load_complex(f2)
    assert isinstance(C2, GradedComplex)
    assert C2.components == C.components and C2.differentials == C.differentials
