"""Exact cochain complexes, lattice surface models, and the boundary lemmas."""

import hashlib
from fractions import Fraction

import pytest

from gq import (
    GradedComplex, SimplicialComplex, StructureError, SymplecticComplex,
    ball_relative_complex, boundary_lagrangian, circle_complex,
    closed_relative, cohomology_pairing, courant_chart, double_complex,
    lattice_model, lemma3_orthogonality, load_complex, nmap_space,
    poisson_chart, save_complex, sl2, so3, suspension_check, tensor_complex,
    tensor_symplectic, torus_complex, two_term_fiber,
)
from gq.sigma_structures import ConjugatePair, DarbouxChart

from conftest import given

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


def test_nmap_negative_source_dimension_rejected():
    with pytest.raises(ValueError, match="negative"):
        nmap_space(poisson_chart(1), -1)


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
