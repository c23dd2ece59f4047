"""Finite graded cochain complexes with degree-paired bilinear forms.

Everything here is exact: differentials and pairings are rational matrices,
cohomology is computed by row reduction, and the boundary/Stokes identities
are matrix identities checked at construction. Lattice surface models use
ordered simplicial cochains with the front/back-face cup product, whose
Leibniz rule makes the Stokes identity exact; the induced orientation of the
boundary is read off the boundary of the fundamental chain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import StructureError
from .linalg import (
    Matrix, as_matrix, collect, column_space_basis, dot, extend_to_basis, mat_mul,
    mat_vec, nullspace, rank, solve, span_contains, span_dim,
)

# ---------------------------------------------------------------------------
# Graded complexes
# ---------------------------------------------------------------------------


def _matrices(matrices, shape_of, what):
    """Convert each matrix once and check its shape; keep those with entries
    in both dimensions."""
    out = {}
    for k, M in matrices.items():
        M = as_matrix(M)
        if M.shape != shape_of(k):
            rows, cols = M.shape
            want_rows, want_cols = shape_of(k)
            raise ValueError(f"{what} at degree {k} has shape {rows}x{cols}, "
                             f"expected {want_rows}x{want_cols}")
        if all(M.shape):
            out[k] = M
    return out


class GradedComplex:
    """components: degree -> dimension; differentials: degree -> matrix d_k
    of shape (dim_{k+1}, dim_k). d^2 = 0 is verified exactly."""

    def __init__(self, components, differentials):
        self.components = {k: d for k, d in components.items() if d > 0}
        self.differentials = _matrices(differentials, lambda k: (self.dim(k + 1), self.dim(k)),
                                       "differential")
        for k, M in self.differentials.items():
            up = self.differentials.get(k + 1)
            if up is not None and any(mat_mul(up, M).rows):
                raise StructureError(f"d^2 != 0 between degrees {k} and {k + 2}")
        # (A, B) when this is tensor_complex(A, B) and B has no differential:
        # then cocycles and cohomology are A's, tensored with B's basis
        self._factors = None

    def dim(self, k: int) -> int:
        return self.components.get(k, 0)

    def degrees(self):
        return sorted(self.components)

    def d(self, k: int) -> Matrix:
        M = self.differentials.get(k)
        return Matrix.zero(self.dim(k + 1), self.dim(k)) if M is None else M

    def cocycles(self, k: int):
        """Basis of ker d_k, as vectors."""
        if self._factors is not None:
            return self._tensor_fiber_basis(k, self._factors[0].cocycles)
        return nullspace(self.d(k))

    def coboundaries(self, k: int):
        """Basis of im d_{k-1} inside degree k."""
        return column_space_basis(self.d(k - 1))

    def cohomology(self):
        """degree -> (dimension, representative cocycles completing im d).

        The representatives are the cocycles, in `nullspace` order, that extend
        the column span of d_{k-1}, which lies in ker d_k since d^2 = 0; so
        dim H^k is their count."""
        if self._factors is not None:
            coh = self._factors[0].cohomology()
            reps = {t: self._tensor_fiber_basis(t, lambda i: coh[i][1]) for t in self.degrees()}
            return {t: (len(r), r) for t, r in reps.items()}
        out = {}
        degs = set(self.degrees())
        degs |= {k + 1 for k in self.degrees()}
        for k in sorted(degs):
            reps = extend_to_basis(self.d(k - 1).T.rows, self.cocycles(k))
            if reps or self.dim(k):
                out[k] = (len(reps), reps)
        return out

    def betti(self):
        return {k: d for k, (d, _) in self.cohomology().items() if d or self.dim(k)}

    def euler_characteristic(self) -> int:
        return sum(-d if k % 2 else d for k, d in self.components.items())

    def _tensor_fiber_basis(self, t, vectors_of):
        """The vectors v (x) e_b of degree t, for v in vectors_of(i) and e_b
        the basis of B^j, over the blocks (i, j) of A (x) B in layout order:
        v-major, fiber index fastest.

        With d_B = 0, d_t is d_A (x) 1 on each block and each fiber index
        apart, so its RREF is RREF(d_A) (x) 1 and its `nullspace` lists
        z (x) e_b in this order; `extend_to_basis` picks within each block and
        fiber index apart too, so the cohomology representatives are A's,
        tensored the same way."""
        A, B = self._factors
        offsets, _ = _block_offsets(A.components, B.components)
        out = []
        for (i, j), off in offsets.get(t, {}).items():
            n = B.dim(j)
            for v in vectors_of(i):
                out += ({off + a * n + b: x for a, x in v.items()} for b in range(n))
        return out


def _block_offsets(dims1, dims2):
    """Direct-sum layout of the blocks V_i (x) W_j by total degree i + j, in
    (i, j) order: degree -> {(i, j): offset of the block}, and degree ->
    total dimension."""
    offsets, comps = {}, {}
    for i, j in sorted(itertools.product(dims1, dims2)):
        t = i + j
        offsets.setdefault(t, {})[(i, j)] = comps.get(t, 0)
        comps[t] = comps.get(t, 0) + dims1[i] * dims2[j]
    return offsets, comps


def _eye(n: int) -> Matrix:
    return Matrix([{i: 1} for i in range(n)], n)


def _kron_entries(A: Matrix, B: Matrix, r0: int, c0: int, scale=1):
    """Entries of scale * (A x B), with B's index varying fastest, placed
    with their top-left corner at (r0, c0)."""
    nr, nc = B.shape
    return ((r0 + i * nr + p, c0 + j * nc + q, scale * x * y)
            for i, row in enumerate(A.rows) for j, x in row.items()
            for p, brow in enumerate(B.rows) for q, y in brow.items())


def tensor_complex(A: GradedComplex, B: GradedComplex) -> GradedComplex:
    """Tensor product with the Koszul-signed differential dA x 1 + (-1)^i 1 x dB."""
    offsets, comps = _block_offsets(A.components, B.components)
    diffs = {}
    for t, blocks in offsets.items():
        up = offsets.get(t + 1)
        if up is None:
            continue
        entries = []
        for (i, j), col0 in blocks.items():
            if (i + 1, j) in up:
                entries += _kron_entries(A.d(i), _eye(B.dim(j)), up[(i + 1, j)], col0)
            if (i, j + 1) in up:
                entries += _kron_entries(_eye(A.dim(i)), B.d(j), up[(i, j + 1)], col0,
                                         -1 if i % 2 else 1)
        diffs[t] = Matrix.from_entries(comps[t + 1], comps[t], entries)
    C = GradedComplex(comps, diffs)
    if not _has_differential(B):
        C._factors = (A, B)
    return C


def _has_differential(C: GradedComplex) -> bool:
    """Some differential of C has a nonzero entry."""
    return any(any(M.rows) for M in C.differentials.values())


def tensor_symplectic(A: SymplecticComplex, B: SymplecticComplex) -> SymplecticComplex:
    """tensor_complex(A, B) with the Koszul-signed pairing of degree D_A + D_B
        <u x a, v x b> = (-1)^{|a||v|} <u, v>_A <a, b>_B,
    which is Q-compatible (resp. chain-nondegenerate) when A and B are."""
    DA, DB = A.pairing_degree, B.pairing_degree
    offsets, comps = _block_offsets(A.complex.components, B.complex.components)
    pairings = {}
    for t, blocks in offsets.items():
        partner = offsets.get(DA + DB - t)
        if partner is None:
            continue
        entries = []
        for (i, j), row0 in blocks.items():
            col0 = partner.get((DA - i, DB - j))
            if col0 is not None:
                entries += _kron_entries(A.pairing(i), B.pairing(j), row0, col0,
                                         -1 if j % 2 and (DA - i) % 2 else 1)
        pairings[t] = Matrix.from_entries(comps[t], comps[DA + DB - t], entries)
    return SymplecticComplex(tensor_complex(A.complex, B.complex), DA + DB, pairings)


# ---------------------------------------------------------------------------
# Symplectic complexes and relative (boundary) data
# ---------------------------------------------------------------------------


class SymplecticComplex:
    """A graded complex with a degree-D bilinear pairing P_k: C^k x C^{D-k} -> Q.

    The pairing need not be antisymmetric or nondegenerate at chain level
    (lattice cup pairings are neither); what later operations rely on is the
    compatibility/Stokes identity, which is checked where required.
    """

    def __init__(self, complex_: GradedComplex, pairing_degree: int, pairings):
        self.complex = complex_
        self.pairing_degree = pairing_degree
        self.pairings = _matrices(
            pairings, lambda k: (complex_.dim(k), complex_.dim(pairing_degree - k)), "pairing")

    def dim(self, k):
        return self.complex.dim(k)

    def pairing(self, k) -> Matrix:
        M = self.pairings.get(k)
        return Matrix.zero(self.dim(k), self.dim(self.pairing_degree - k)) if M is None else M

    def pair_matrix(self, k, us, vs) -> Matrix:
        """The matrix of <u, v> for u in us (in C^k) and v in vs (in C^{D-k})."""
        U = Matrix(list(us), self.dim(k))
        V = Matrix(list(vs), self.dim(self.pairing_degree - k))
        return mat_mul(mat_mul(U, self.pairing(k)), V.T)

    def chain_nondegenerate(self) -> bool:
        """Every P_k square and invertible (on degrees with content)."""
        D = self.pairing_degree
        for k in self.complex.degrees():
            if self.dim(k) != self.dim(D - k):
                return False
            if self.dim(k) and rank(self.pairing(k)) != self.dim(k):
                return False
        return True

    def compatibility_violation(self):
        """First degree where <du, v> + (-1)^k <u, dv> != 0 fails as a matrix identity."""
        D = self.pairing_degree
        degs = set(self.complex.degrees()) | {k - 1 for k in self.complex.degrees()}
        for k in sorted(degs):
            lhs = mat_mul(self.complex.d(k).T, self.pairing(k + 1))
            rhs = mat_mul(self.pairing(k), self.complex.d(D - k - 1))
            if lhs != (rhs if k % 2 else -rhs):
                return k
        return None


@dataclass
class CohomologyPairing:
    dims: dict
    blocks: dict            # degree -> induced matrix on H^k x H^{D-k}
    nondegenerate: bool
    representatives: dict = field(repr=False, default_factory=dict)


def cohomology_pairing(S: SymplecticComplex) -> CohomologyPairing:
    """Induced pairing on cohomology for a closed (compatible) complex."""
    bad = S.compatibility_violation()
    if bad is not None:
        raise StructureError(f"pairing is not Q-compatible at degree {bad}")
    D = S.pairing_degree
    coh = S.complex.cohomology()
    dims = {k: d for k, (d, _) in coh.items()}
    reps = {k: r for k, (_, r) in coh.items()}
    # sanity: cocycle against coboundary vanishes (two-sided), by compatibility
    blocks = {}
    nondeg = True
    for k, rk in reps.items():
        if not rk:
            continue
        blocks[k] = S.pair_matrix(k, rk, reps.get(D - k, []))
        r = rank(blocks[k])
        if r != dims.get(k, 0) or r != dims.get(D - k, 0):
            nondeg = False
    return CohomologyPairing(dims, blocks, nondeg, reps)


class RelativeComplex:
    """Total complex with pairing, boundary complex with pairing, restriction.

    Construction verifies exactly: d^2 = 0 on both sides, the restriction is
    a chain map, and the Stokes identity
        <r u, r v>_boundary = <d u, v> + (-1)^{deg u} <u, d v>
    as a matrix identity in every degree.
    """

    def __init__(self, total: SymplecticComplex, boundary: SymplecticComplex,
                 restriction):
        self.total = total
        self.boundary = boundary
        self.restriction = _matrices(restriction, lambda k: (boundary.dim(k), total.dim(k)),
                                     "restriction")
        if boundary.pairing_degree != total.pairing_degree - 1:
            raise ValueError("boundary pairing degree must drop by one")
        bad = self._chain_map_violation()
        if bad is not None:
            raise StructureError(f"restriction is not a chain map at degree {bad}")
        bad = self.stokes_violation()
        if bad is not None:
            raise StructureError(f"Stokes identity fails at degree {bad}")

    def r(self, k) -> Matrix:
        M = self.restriction.get(k)
        return Matrix.zero(self.boundary.dim(k), self.total.dim(k)) if M is None else M

    def _chain_map_violation(self):
        for k in self.total.complex.degrees():
            if (mat_mul(self.r(k + 1), self.total.complex.d(k))
                    != mat_mul(self.boundary.complex.d(k), self.r(k))):
                return k
        return None

    def stokes_violation(self):
        """Degree where <u', v'>_b != <du, v> + (-1)^k <u, dv>, or None."""
        D = self.total.pairing_degree
        for k in self.total.complex.degrees():
            inner = mat_mul(self.boundary.pairing(k), self.r(D - 1 - k))
            lhs = mat_mul(self.r(k).T, inner)
            t1 = mat_mul(self.total.complex.d(k).T, self.total.pairing(k + 1))
            t2 = mat_mul(self.total.pairing(k), self.total.complex.d(D - 1 - k))
            if lhs != t1 + (-t2 if k % 2 else t2):
                return k
        return None

    def sub_kernel(self, k):
        """Basis of Gamma_0^k: sections restricting to zero on the boundary."""
        return nullspace(self.r(k))


def closed_relative(S: SymplecticComplex) -> RelativeComplex:
    """A RelativeComplex with empty boundary (Gamma_0 = Gamma)."""
    empty = SymplecticComplex(GradedComplex({}, {}), S.pairing_degree - 1, {})
    return RelativeComplex(S, empty, {})


# ---------------------------------------------------------------------------
# The orthogonality lemma and the boundary Lagrangian statement
# ---------------------------------------------------------------------------


@dataclass
class LemmaThreeReport:
    mode: str                      # "strict" | "degraded"
    equality: bool                 # Z == B0-perp (two-sided perp)
    inclusion: bool                # Z inside B0-perp
    z_dims: dict
    b0_dims: dict
    perp_dims: dict
    quotient_dims: dict
    quotient_nondegenerate: bool

    @property
    def verdict(self) -> str:
        if self.mode == "strict":
            return "pass" if self.equality and self.quotient_nondegenerate else "fail"
        return "degraded-mode" if self.inclusion else "fail"


def lemma3_orthogonality(R: RelativeComplex) -> LemmaThreeReport:
    """Compare cocycles of the total complex with the two-sided orthogonal
    complement of d(Gamma_0), and report the symplectic quotient.

    With a chain-nondegenerate pairing, equality Z = B0-perp is asserted;
    lattice cup pairings are chain-degenerate, and then the honest statement
    is the inclusion plus the quotient report (mode = "degraded").
    """
    S = R.total
    C = S.complex
    D = S.pairing_degree
    strict = S.chain_nondegenerate()
    degs = sorted(set(C.degrees()) | {k + 1 for k in C.degrees()})
    z = {k: C.cocycles(k) for k in degs}
    # d(Gamma_0): row i of (Gamma_0 basis) d^T is d of the i-th basis vector
    b0 = {}
    for k in degs:
        gamma0 = Matrix(R.sub_kernel(k - 1), C.dim(k - 1))
        b0[k] = [w for w in mat_mul(gamma0, C.d(k - 1).T).rows if w]
    perp = {}
    for k in degs:
        B = Matrix(b0.get(D - k, []), C.dim(D - k))
        # rows <., b> and <b, .> for each b in d(Gamma_0^{D-k})
        rows = mat_mul(B, S.pairing(k).T).rows + mat_mul(B, S.pairing(D - k)).rows
        perp[k] = nullspace(Matrix(rows, C.dim(k)))
    inclusion = all(span_contains(perp[k], z[k]) for k in degs)
    equality = inclusion and all(len(perp[k]) == len(z[k]) for k in degs)
    # quotient Z / B0 with its induced pairing; d(Gamma_0) lies in Z, so
    # dim span d(Gamma_0^k) = dim Z^k - dim Q^k
    reps = {k: extend_to_basis(b0[k], z[k]) for k in degs}
    qdims = {k: len(r) for k, r in reps.items() if r}
    # block (k, D-k) is alone in its block row and block column, so the
    # quotient pairing has full rank iff the block ranks add up to its size
    block_ranks = sum(rank(S.pair_matrix(k, reps[k], reps.get(D - k, []))) for k in qdims)
    return LemmaThreeReport(
        mode="strict" if strict else "degraded",
        equality=equality, inclusion=inclusion,
        z_dims={k: len(z[k]) for k in degs if z[k]},
        b0_dims={k: n for k in degs if (n := len(z[k]) - len(reps[k]))},
        perp_dims={k: len(perp[k]) for k in degs if perp[k]},
        quotient_dims=qdims,
        quotient_nondegenerate=block_ranks == sum(qdims.values()),
    )


@dataclass
class BoundaryLagrangianReport:
    isotropic: bool
    image_dim: int
    boundary_h_dim: int
    boundary_pairing_nondegenerate: bool

    @property
    def lagrangian(self) -> bool:
        return (self.isotropic and self.boundary_pairing_nondegenerate
                and 2 * self.image_dim == self.boundary_h_dim)

    @property
    def verdict(self) -> str:
        if self.lagrangian:
            return "pass"
        return "degraded-mode" if self.isotropic and not self.boundary_pairing_nondegenerate else "fail"


def boundary_lagrangian(R: RelativeComplex) -> BoundaryLagrangianReport:
    """Image of H(total) -> H(boundary): isotropy is exact (Stokes), maximality
    is a dimension count against the boundary cohomology pairing."""
    bound_pairing = cohomology_pairing(R.boundary)
    coh_total = R.total.complex.cohomology()
    bc = R.boundary.complex
    # coordinates of restricted classes in the boundary cohomology basis
    image_vectors = {}
    for k, (_, reps) in coh_total.items():
        h_reps = bound_pairing.representatives.get(k, [])
        bnd = bc.coboundaries(k)
        vecs = []
        for ztot in reps:
            coords = _class_coordinates(mat_vec(R.r(k), ztot), h_reps, bnd, bc.dim(k))
            if coords:
                vecs.append(coords)
        if vecs:
            image_vectors[k] = vecs
    image_dim = sum(span_dim(v) for v in image_vectors.values())
    h_dim = sum(bound_pairing.dims.values())
    D = R.boundary.pairing_degree
    iso = True
    for k, vecs in image_vectors.items():
        block = bound_pairing.blocks.get(k)
        partners = image_vectors.get(D - k, [])
        if block is None:
            continue
        for v in partners:
            bv = mat_vec(block, v)
            if any(dot(u, bv) for u in vecs):
                iso = False
    return BoundaryLagrangianReport(
        isotropic=iso, image_dim=image_dim, boundary_h_dim=h_dim,
        boundary_pairing_nondegenerate=bound_pairing.nondegenerate)


def _class_coordinates(w, h_reps, coboundaries, n):
    """Express the cocycle w in C^k, n = dim C^k, as sum(c_i * h_reps[i]) +
    coboundary; returns c."""
    cols = list(h_reps) + list(coboundaries)
    if not cols:
        return None if w else {}
    sol = solve(Matrix(cols, n).T, w)
    if sol is None:
        raise StructureError("restriction of a cocycle is not a boundary cocycle")
    return {i: x for i, x in sol.items() if i < len(h_reps)}


# ---------------------------------------------------------------------------
# Suspension (Lemma 1 models)
# ---------------------------------------------------------------------------


@dataclass
class SuspensionReport:
    n: int
    shifted_matches: bool
    base_betti: dict
    relative_betti: dict
    tensor_betti: dict

    @property
    def verdict(self) -> str:
        return "pass" if self.shifted_matches else "fail"


def suspension_check(C0: GradedComplex, n: int) -> SuspensionReport:
    """Tensor C0 with relative cochains of an n-ball lattice model and verify
    H^k(tensor) = H^{k-n}(C0) degree by degree."""
    model = ball_relative_complex(n)
    rel_betti = {k: d for k, d in model.betti().items() if d}
    tensored = tensor_complex(C0, model)
    base_betti = {k: d for k, d in C0.betti().items() if d}
    tens_betti = {k: d for k, d in tensored.betti().items() if d}
    expected = {k + n: d for k, d in base_betti.items()}
    ok = tens_betti == {k: d for k, d in expected.items() if d}
    ok = ok and rel_betti == {n: 1}
    return SuspensionReport(n, ok, base_betti, rel_betti, tens_betti)


# ---------------------------------------------------------------------------
# Simplicial surface machinery
# ---------------------------------------------------------------------------


class SimplicialComplex:
    """The closure of an oriented fundamental chain {sorted vertex tuple:
    coefficient}, with the simplices of each dimension in sorted order."""

    def __init__(self, fundamental):
        self.fundamental = dict(fundamental)
        faces = {}
        for s in _closure_of(self.fundamental):
            faces.setdefault(len(s) - 1, []).append(s)
        self.simplices = {k: sorted(faces[k]) for k in sorted(faces)}
        self.index = {k: {s: i for i, s in enumerate(v)} for k, v in self.simplices.items()}
        self.top_dim = max(self.simplices, default=-1)

    @classmethod
    def from_tops(cls, tops) -> "SimplicialComplex":
        """tops: vertex tuples in geometric orientation order; each enters the
        fundamental chain with the sign of its sorting permutation."""
        pairs = []
        for t in map(tuple, tops):
            if len(set(t)) != len(t):
                raise ValueError(f"degenerate simplex {t}")
            pairs.append((tuple(sorted(t)), _perm_sign(t)))
        return cls(collect(pairs))

    def dim(self, k: int) -> int:
        return len(self.simplices.get(k, []))

    def boundary_chain(self):
        """Coefficients of the boundary of the fundamental chain, by simplex."""
        return collect((s[:i] + s[i + 1:], -sign if i % 2 else sign)
                       for s, sign in self.fundamental.items() for i in range(len(s)))

    def graded_complex(self) -> GradedComplex:
        return self.relative_complex(())

    def cup_complex(self) -> SymplecticComplex:
        """Scalar cochains paired in degree top_dim by integrating the
        front/back cup product over the fundamental chain."""
        n = self.top_dim
        pairings = {
            k: Matrix.from_entries(
                self.dim(k), self.dim(n - k),
                ((self.index[k][s[:k + 1]], self.index[n - k][s[k:]], c)
                 for s, c in self.fundamental.items() if len(s) == n + 1))
            for k in self.simplices if n - k in self.simplices}
        return SymplecticComplex(self.graded_complex(), n, pairings)

    def relative_complex(self, forbidden) -> GradedComplex:
        """Cochains vanishing on the simplices in `forbidden` (a closed set);
        (d alpha)(s) = sum_i (-1)^i alpha(s without vertex i)."""
        forbidden = set(forbidden)
        keep = {k: [s for s in v if s not in forbidden] for k, v in self.simplices.items()}
        idx = {k: {s: i for i, s in enumerate(v)} for k, v in keep.items()}
        comps = {k: len(v) for k, v in keep.items()}
        diffs = {}
        for k in keep:
            if not keep.get(k + 1):
                continue
            faces = ((row, s[:i] + s[i + 1:], -1 if i % 2 else 1)
                     for row, s in enumerate(keep[k + 1]) for i in range(len(s)))
            diffs[k] = Matrix.from_entries(len(keep[k + 1]), len(keep[k]),
                                           ((row, idx[k][f], x) for row, f, x in faces
                                            if f in idx[k]))
        return GradedComplex(comps, diffs)


def _perm_sign(t):
    sign = 1
    t = list(t)
    for i in range(len(t)):
        for j in range(i + 1, len(t)):
            if t[i] > t[j]:
                sign = -sign
    return sign


def _closure_of(chain):
    """Every face of every simplex of the chain."""
    return {sub for s in chain for k in range(len(s)) for sub in itertools.combinations(s, k + 1)}


def _grid_triangles(idx, m1, m2):
    """Counterclockwise triangle pairs per grid square."""
    tops = []
    for i in range(m1):
        for j in range(m2):
            a = idx(i, j)
            b = idx(i + 1, j)
            c = idx(i + 1, j + 1)
            d = idx(i, j + 1)
            tops.append((a, b, c))
            tops.append((a, c, d))
    return tops


def torus_complex(m1: int, m2: int) -> SimplicialComplex:
    if m1 < 3 or m2 < 3:
        raise ValueError("torus lattice needs at least 3 cells per direction")
    idx = lambda i, j: (i % m1) * m2 + (j % m2)
    return SimplicialComplex.from_tops(_grid_triangles(idx, m1, m2))


def cylinder_complex(m1: int, m2: int) -> SimplicialComplex:
    if m1 < 3 or m2 < 1:
        raise ValueError("cylinder lattice needs >= 3 cells around, >= 1 along")
    idx = lambda i, j: (i % m1) * (m2 + 1) + j
    return SimplicialComplex.from_tops(_grid_triangles(idx, m1, m2))


def disk_complex(m: int) -> SimplicialComplex:
    if m < 1:
        raise ValueError("disk lattice needs at least one cell per direction")
    idx = lambda i, j: i * (m + 1) + j
    return SimplicialComplex.from_tops(_grid_triangles(idx, m, m))


def interval_complex(m: int) -> SimplicialComplex:
    if m < 1:
        raise ValueError("interval needs at least one segment")
    return SimplicialComplex.from_tops([(i, i + 1) for i in range(m)])


def ball_relative_complex(n: int, m: int = 2) -> GradedComplex:
    """Relative cochains of a lattice n-ball rel its boundary sphere.

    n = 1: subdivided interval rel endpoints; n = 2: grid disk rel circle;
    n = 3: two tetrahedra glued along a face, rel boundary.
    """
    if n == 1:
        K = interval_complex(m)
    elif n == 2:
        K = disk_complex(m)
    elif n == 3:
        K = SimplicialComplex.from_tops([(0, 1, 2, 3), (1, 2, 3, 4)])
    else:
        raise ValueError("ball models are provided for n in {1, 2, 3}")
    return K.relative_complex(_closure_of(K.boundary_chain()))


# ---------------------------------------------------------------------------
# Fibers and lattice models
# ---------------------------------------------------------------------------


def two_term_fiber(n: int) -> SymplecticComplex:
    """A 2-dimensional symplectic fiber in degrees 0 and n >= 1."""
    if n < 1:
        raise ValueError(f"a two-term fiber needs degree n >= 1, got {n}")
    return SymplecticComplex(GradedComplex({0: 1, n: 1}, {}), n, {0: [[1]], n: [[1]]})


_SURFACES = {"torus": torus_complex, "cylinder": cylinder_complex,
             "interval": interval_complex, "disk": disk_complex}


def lattice_model(surface, fiber) -> RelativeComplex:
    """Fiber-valued cochains C(K) (x) F on a lattice surface K: the total
    complex is tensor_symplectic(K.cup_complex(), F), the boundary is the
    same over the boundary of the fundamental chain, and the restriction is
    (inclusion of simplices) (x) 1.

    surface: ("torus", m1, m2) | ("interval", m) | ("cylinder", m1, m2)
             | ("disk", m)
    fiber: a SymplecticComplex without differential, or a QuadraticLieAlgebra
    (placed in degree 0 with its invariant form).
    """
    if not isinstance(fiber, SymplecticComplex):
        fiber = SymplecticComplex(GradedComplex({0: fiber.dim}, {}), 0, {0: fiber.ip})
    elif _has_differential(fiber.complex):
        raise ValueError("a lattice fiber must have no differential")
    build = _SURFACES.get(surface[0])
    if build is None:
        raise ValueError(f"unknown surface {surface[0]!r}")
    K = build(*surface[1:])
    cup = K.cup_complex()
    total = tensor_symplectic(cup, fiber)
    bchain = K.boundary_chain()
    if not bchain:
        return closed_relative(total)
    Kb = SimplicialComplex(bchain)
    b_cup = Kb.cup_complex()
    bound = tensor_symplectic(b_cup, fiber)
    fdims = fiber.complex.components
    offsets, _ = _block_offsets(cup.complex.components, fdims)
    b_offsets, _ = _block_offsets(b_cup.complex.components, fdims)
    inclusion = {k: Matrix([{K.index[k][s]: 1} for s in ss], K.dim(k))
                 for k, ss in Kb.simplices.items()}
    restriction = {}
    for t in total.complex.degrees():
        entries = []
        for (k, a), col0 in offsets[t].items():
            row0 = b_offsets.get(t, {}).get((k, a))
            if row0 is not None:
                entries += _kron_entries(inclusion[k], _eye(fdims[a]), row0, col0)
        restriction[t] = Matrix.from_entries(bound.dim(t), total.dim(t), entries)
    return RelativeComplex(total, bound, restriction)


# ---------------------------------------------------------------------------
# Finite-dimensional N-map spaces
# ---------------------------------------------------------------------------


@dataclass
class NMapSpace:
    source_dim: int
    components: list           # (coordinate name, weight, dimension)
    pairing: Matrix             # antisymmetric rational matrix
    total_dim: int
    nondegenerate: bool


def nmap_space(dchart, n: int | None = None) -> NMapSpace:
    """Component-space model of N-maps from an odd n-dimensional source into
    a Darboux chart: a coordinate of weight k contributes a binomial(n, k)-
    dimensional component; conjugate components pair by wedge into the top
    exterior power, scaled by the pair coefficient."""
    if n is None:
        n = dchart.n
    if n < 0:
        raise ValueError(f"N-map source dimension {n} is negative")
    comps = []
    offsets = {}
    total = 0
    for pr in dchart.pairs:
        for name, w in ((pr.q_name, pr.q_weight), (pr.p_name, pr.p_weight)):
            dim = math.comb(n, w)
            offsets[name] = total
            comps.append((name, w, dim))
            total += dim
    entries = []
    for pr in dchart.pairs:
        kq = pr.q_weight
        kp = pr.p_weight
        if kq + kp != n:
            continue  # mismatched source dimension: contributes nothing
        subsets_q = list(itertools.combinations(range(1, n + 1), kq))
        subsets_p = list(itertools.combinations(range(1, n + 1), kp))
        for iq, S in enumerate(subsets_q):
            for ip_, T in enumerate(subsets_p):
                if not set(S).isdisjoint(T):
                    continue
                val = pr.sign * _perm_sign(S + T)
                entries.append((offsets[pr.q_name] + iq, offsets[pr.p_name] + ip_, val))
                entries.append((offsets[pr.p_name] + ip_, offsets[pr.q_name] + iq, -val))
    P = Matrix.from_entries(total, total, entries)
    nondeg = total == 0 or rank(P) == total
    return NMapSpace(n, comps, P, total, nondeg)


# ---------------------------------------------------------------------------
# Interchange format
# ---------------------------------------------------------------------------


def save_complex(obj, path):
    """Plain-text interchange: degrees, dimensions, differential and pairing
    matrices row-major with entries 'p/q'."""
    if isinstance(obj, RelativeComplex):
        raise ValueError("save total/boundary complexes separately")
    if isinstance(obj, SymplecticComplex):
        S, C = obj, obj.complex
    else:
        S, C = None, obj
    with open(path, "w") as fh:
        fh.write("gqcomplex 1\n")
        for k in C.degrees():
            fh.write(f"component {k} {C.dim(k)}\n")
        for k in sorted(C.differentials):
            fh.write(f"differential {k}\n")
            _write_dense(fh, C.differentials[k])
        if S is not None:
            fh.write(f"pairingdegree {S.pairing_degree}\n")
            for k in sorted(S.pairings):
                fh.write(f"pairing {k}\n")
                _write_dense(fh, S.pairings[k])
        fh.write("end\n")


def _write_dense(fh, M: Matrix):
    for row in M.rows:
        fh.write(" ".join(str(row.get(j, 0)) for j in range(M.ncols)) + "\n")


_HEADER_FIELDS = {"component": 2, "differential": 1, "pairingdegree": 1, "pairing": 1}


def load_complex(path):
    """Returns a SymplecticComplex if the file carries pairings, else a
    GradedComplex."""
    comps = {}
    diffs = {}
    pairings = {}
    pairing_degree = None
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh]
    i = 0
    if not lines or not lines[0].startswith("gqcomplex"):
        raise ValueError("not a gqcomplex file")
    i = 1

    def read_matrix(i, rows):
        if i + rows > len(lines):
            raise ValueError(f"{lines[i - 1]!r} block needs {rows} rows, "
                             f"the file has {len(lines) - i} left")
        return [ln.split() for ln in lines[i:i + rows]], i + rows

    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        if parts[0] in _HEADER_FIELDS and len(parts) != _HEADER_FIELDS[parts[0]] + 1:
            raise ValueError(f"{parts[0]!r} line needs {_HEADER_FIELDS[parts[0]]} "
                             f"integer(s): {lines[i]!r}")
        if parts[0] == "component":
            k, dim = int(parts[1]), int(parts[2])
            if dim < 0:
                raise ValueError(f"negative dimension in {lines[i]!r}")
            comps[k] = dim
            i += 1
        elif parts[0] == "differential":
            k = int(parts[1])
            rows = comps.get(k + 1, 0)
            M, i = read_matrix(i + 1, rows)
            diffs[k] = M
        elif parts[0] == "pairingdegree":
            pairing_degree = int(parts[1])
            i += 1
        elif parts[0] == "pairing":
            k = int(parts[1])
            rows = comps.get(k, 0)
            M, i = read_matrix(i + 1, rows)
            pairings[k] = M
        elif parts[0] == "end":
            break
        else:
            raise ValueError(f"unrecognized line in complex file: {lines[i]!r}")
    C = GradedComplex(comps, diffs)
    if pairing_degree is None:
        return C
    return SymplecticComplex(C, pairing_degree, pairings)
