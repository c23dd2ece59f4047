"""Twisted fiber bundles over tangent charts, quadratic Lie algebras and their
central extension, the truncated loop-algebra cocycle, and symmetry pairs
(v, alpha). All of it is exact; the grid-sampled maps into SU(2) are in
`grids`.
"""

from __future__ import annotations

import itertools

from .errors import ChartMismatchError, GradingError, StructureError
from .forms import TangentChart, dorfman_bracket
from .graded_algebra import GPoly, divided, substitute
from .linalg import as_matrix, collect, dot, rank, rational
from .nq_core import Derivation, commutator
from .sigma_structures import AlgebroidData, algebroid_chart, algebroid_to_q, skew_table

# ---------------------------------------------------------------------------
# Twisted R[n]-fibers over T[1]R^m
# ---------------------------------------------------------------------------


class TwistData:
    """A trivialized fiber of weight n over T[1]R^m, twisted by a base form eta.

    eta must be a polynomial (n+1)-form in the base variables only; the fiber
    coordinate is named t.
    """

    def __init__(self, m: int, n: int, eta: GPoly | None = None):
        if n < 1:
            raise GradingError("fiber weight must be at least 1")
        self.m = m
        self.n = n
        self.tangent = TangentChart(m, extra=[("t", n)])
        self.chart = self.tangent.chart
        if eta is None:
            eta = self.chart.zero()
        if eta.chart != self.chart:
            raise ChartMismatchError("eta must live on the twist chart")
        if not eta.is_homogeneous(n + 1):
            raise GradingError(f"eta must be homogeneous of weight {n + 1}")
        if not self.tangent.is_base_form(eta):
            raise GradingError("eta may not involve the fiber coordinate")
        self.eta = eta

    def t(self) -> GPoly:
        return self.chart.var("t")


def twisted_q(T: TwistData) -> Derivation:
    """Q = (de Rham on the base) + eta * d/dt; squares to zero iff d eta = 0."""
    comps = {xn: T.chart.var(qn) for xn, qn in zip(T.tangent.x_names, T.tangent.xi_names)}
    comps["t"] = T.eta
    return Derivation(T.chart, 1, comps)


def gauge_change(T: TwistData, alpha: GPoly) -> TwistData:
    """Shift the trivialization by a base n-form: eta -> eta + d alpha."""
    if alpha.chart != T.chart:
        raise ChartMismatchError("alpha must live on the twist chart")
    if not alpha.is_homogeneous(T.n):
        raise GradingError(f"alpha must be homogeneous of weight {T.n}")
    if not T.tangent.is_base_form(alpha):
        raise GradingError("alpha may not involve the fiber coordinate")
    return TwistData(T.m, T.n, T.eta + T.tangent.d(alpha))


def gauge_shift_consistent(T: TwistData, alpha: GPoly) -> bool:
    """The coordinate change t -> t + alpha intertwines the two twisted Q's.

    Checks Phi(Q'(v)) == Q(Phi(v)) on every coordinate, where Q' belongs to
    gauge_change(T, alpha) and Phi substitutes t + alpha for t.
    """
    Q = twisted_q(T)
    Qp = twisted_q(gauge_change(T, alpha))
    shift = T.t() + alpha

    def phi(p):
        return substitute(p, "t", shift)

    for v in T.chart.gvars:
        if phi(Qp.component(v.name)) != Q(phi(T.chart.var(v.name))):
            return False
    return True


# ---------------------------------------------------------------------------
# Quadratic Lie algebras and the central extension
# ---------------------------------------------------------------------------


def _bracket(table, u, v):
    """The bilinear map with basis values table[(i, j)] = {k: c} on dict vectors."""
    return collect((k, ci * cj * ck) for i, ci in u.items() for j, cj in v.items()
                   for k, ck in table.get((i, j), {}).items())


def _jacobi_violation(bracket, degrees):
    """First 0-based basis triple (a, b, c) violating
    [a,[b,c]] = [[a,b],c] + (-1)^|a||b| [b,[a,c]]; degrees are the basis degrees."""
    n = len(degrees)
    for a in range(n):
        ea = {a: 1}
        for b in range(n):
            eb = {b: 1}
            sign = -1 if (degrees[a] * degrees[b]) % 2 else 1
            for c in range(n):
                ec = {c: 1}
                lhs = bracket(ea, bracket(eb, ec))
                rhs = collect(itertools.chain(
                    bracket(bracket(ea, eb), ec).items(),
                    ((k, sign * v) for k, v in bracket(eb, bracket(ea, ec)).items())))
                if lhs != rhs:
                    return (a, b, c)
    return None


class QuadraticLieAlgebra:
    """Structure constants plus an invariant nondegenerate symmetric form.

    c[(k, i, j)]: rational c^k_ij in [e_i, e_j] = c^k_ij e_k, 1-based and
    antisymmetric in (i, j) (`sigma_structures.skew_table`); ip: the
    form as a `linalg.Matrix` or nested list of rows. Stored 0-based as
    brackets[(i, j)] = {k: c} for every nonzero bracket, both orders filled
    in, and ip as a `Matrix`; vectors are dicts {index: entry}. Jacobi and
    invariance are verified exactly at construction.
    """

    def __init__(self, dim: int, c, ip):
        self.dim = dim
        self.brackets = {}
        for (k, i, j), val in skew_table(c, dim, rational, "structure constants").items():
            self.brackets.setdefault((i - 1, j - 1), {})[k - 1] = val
        for (i, j), vec in list(self.brackets.items()):
            self.brackets[(j, i)] = {k: -x for k, x in vec.items()}
        self.ip = as_matrix(ip)
        if self.ip.shape != (dim, dim):
            raise ValueError(f"inner product must be {dim}x{dim}, got {self.ip.shape}")
        if self.ip != self.ip.T:
            raise StructureError("inner product must be symmetric")
        if rank(self.ip) != dim:
            raise StructureError("inner product must be nondegenerate")
        bad = _jacobi_violation(self.bracket, [0] * dim)
        if bad is not None:
            raise StructureError("Jacobi identity fails on basis triple "
                                 f"{tuple(t + 1 for t in bad)}")
        bad = self._invariance_violation()
        if bad is not None:
            raise StructureError(f"inner product is not invariant on triple {bad}")

    def inner(self, u, v):
        rows = self.ip.rows
        return sum(x * dot(rows[i], v) for i, x in u.items())

    def bracket(self, u, v):
        return _bracket(self.brackets, u, v)

    def _invariance_violation(self):
        """First 1-based triple with <[e_i, e_j], e_k> + <e_j, [e_i, e_k]> != 0."""
        rows = self.ip.rows
        for i in range(self.dim):
            for j in range(self.dim):
                bij = self.brackets.get((i, j), {})
                for k in range(self.dim):
                    # ip is symmetric, so row k of ip is its column k
                    if dot(rows[k], bij) + dot(rows[j], self.brackets.get((i, k), {})):
                        return (i + 1, j + 1, k + 1)
        return None


def so3() -> QuadraticLieAlgebra:
    """so(3) with the Euclidean inner product; c^k_ij = epsilon_ijk."""
    c = {(3, 1, 2): 1, (1, 2, 3): 1, (2, 3, 1): 1}
    ip = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return QuadraticLieAlgebra(3, c, ip)


def sl2() -> QuadraticLieAlgebra:
    """sl(2) in the (h, e, f) basis with the fundamental trace form."""
    c = {(2, 1, 2): 2, (3, 1, 3): -2, (1, 2, 3): 1}
    ip = [[2, 0, 0], [0, 0, 1], [0, 1, 0]]
    return QuadraticLieAlgebra(3, c, ip)


class GradedLieAlgebra:
    """Finite-dimensional graded Lie algebra with an optional differential.

    basis: list of (name, degree); brackets: dict (i, j) -> {k: coeff}
    on basis indices (0-based), with graded antisymmetry filled in;
    q: dict i -> {k: coeff}, a degree-+1 map.
    """

    def __init__(self, basis, brackets, q):
        self.basis = list(basis)
        self.degrees = [d for _, d in self.basis]
        self.brackets = {}
        for (i, j), vec in brackets.items():
            vec = {k: rational(v) for k, v in vec.items() if v != 0}
            self.brackets[(i, j)] = vec
            sign = -1 if (self.degrees[i] * self.degrees[j]) % 2 == 0 else 1
            mirrored = {k: sign * v for k, v in vec.items()}
            if (j, i) in self.brackets and self.brackets[(j, i)] != mirrored:
                raise StructureError(f"bracket table breaks graded antisymmetry at {(i, j)}")
            self.brackets.setdefault((j, i), mirrored)
        self.q = {i: {k: rational(v) for k, v in vec.items() if v != 0} for i, vec in q.items()}

    def dim(self) -> int:
        return len(self.basis)

    def parity(self, i: int) -> int:
        return self.degrees[i] % 2

    def bracket_vec(self, u, v):
        return _bracket(self.brackets, u, v)

    def q_vec(self, u):
        return collect((k, ci * ck) for i, ci in u.items() for k, ck in self.q.get(i, {}).items())

    def jacobi_violation(self):
        """First basis triple violating [a,[b,c]] = [[a,b],c] + (-1)^|a||b| [b,[a,c]]."""
        return _jacobi_violation(self.bracket_vec, self.degrees)

    def q_derivation_violation(self):
        """First pair violating Q[a,b] = [Qa,b] + (-1)^|a| [a,Qb]."""
        n = self.dim()
        for a in range(n):
            ea = {a: 1}
            sign = -1 if self.parity(a) else 1
            for b in range(n):
                eb = {b: 1}
                lhs = self.q_vec(self.bracket_vec(ea, eb))
                rhs = collect(itertools.chain(
                    self.bracket_vec(self.q_vec(ea), eb).items(),
                    ((k, sign * v) for k, v in self.bracket_vec(ea, self.q_vec(eb)).items())))
                if lhs != rhs:
                    return (a, b)
        return None

    def q_square_is_zero(self) -> bool:
        return all(not self.q_vec(self.q_vec({i: 1})) for i in range(self.dim()))


def central_extension(g: QuadraticLieAlgebra) -> GradedLieAlgebra:
    """The graded Lie algebra on g + g[1] + R[2] with differential.

    Degrees: g in 0, the shifted copy in -1, the center in -2. The bracket of
    two shifted elements is their inner product times the central generator;
    Q maps the shifted copy identically onto g and kills the rest.
    """
    d = g.dim
    basis = [(f"u{i}", 0) for i in range(1, d + 1)]
    basis += [(f"v{i}", -1) for i in range(1, d + 1)]
    basis += [("z", -2)]
    # u_i is basis index i, v_i is d + i, z is 2d (all 0-based)
    brackets = {}
    for (i, j), vec in g.brackets.items():
        brackets[(i, j)] = vec
        brackets[(i, d + j)] = {d + k: x for k, x in vec.items()}
    for i, row in enumerate(g.ip.rows):
        for j, x in row.items():
            brackets[(d + i, d + j)] = {2 * d: x}
    q = {d + i: {i: 1} for i in range(d)}
    return GradedLieAlgebra(basis, brackets, q)


def affine_cocycle_check(g: QuadraticLieAlgebra, mode_cutoff: int,
                         cocycle=None) -> bool:
    """Exact 2-cocycle identity on the mode-truncated loop algebra.

    Basis elements are e_i z^m with |m| <= mode_cutoff. The default cocycle is
    c(u z^m, v z^n) = m delta_{m+n,0} <u, v>; the identity checked is
    c([x,y],z) + c([y,z],x) + c([z,x],y) = 0 over all basis triples.
    `cocycle(u, m, v, n)` takes dict vectors u, v and must vanish unless
    m + n = 0; then every term of the identity on modes (m, n, l) vanishes
    unless m + n + l = 0, so only the triples with l = -(m + n) are visited.
    """
    if mode_cutoff < 1:
        raise ValueError("mode cutoff must be at least 1")
    if cocycle is None:
        def cocycle(u, m, v, n):
            return m * g.inner(u, v) if m + n == 0 else 0

    d = g.dim
    basis = [{a: 1} for a in range(d)]
    modes = range(-mode_cutoff, mode_cutoff + 1)
    for i in range(d):
        for j in range(d):
            bij = g.bracket(basis[i], basis[j])
            for k in range(d):
                bjk = g.bracket(basis[j], basis[k])
                bki = g.bracket(basis[k], basis[i])
                for m in modes:
                    for n in modes:
                        l = -(m + n)
                        if abs(l) > mode_cutoff:
                            continue
                        total = (cocycle(bij, m + n, basis[k], l)
                                 + cocycle(bjk, n + l, basis[i], m)
                                 + cocycle(bki, l + m, basis[j], n))
                        if total != 0:
                            return False
    return True


def broken_cocycle(g: QuadraticLieAlgebra):
    """c'(u z^m, v z^n) = m^2 delta_{m+n,0} <u, v>: fails the cocycle identity."""
    def cocycle(u, m, v, n):
        return m * m * g.inner(u, v) if m + n == 0 else 0
    return cocycle


def cartan_3form(g: QuadraticLieAlgebra) -> GPoly:
    """eta = 1/6 <e_i, [e_j, e_k]> xi^i xi^j xi^k on the shifted chart of g.

    The chart is the one used by the zero-anchor algebroid of g (coordinates
    xi1..xid of weight 1), so the Chevalley-Eilenberg Q applies directly.
    The 1/6 normalization is this module's recorded choice.
    """
    chart = algebroid_chart(0, g.dim)
    xi = [chart.var(f"xi{i}") for i in range(1, g.dim + 1)]
    pairs = []
    for (j, k), vec in g.brackets.items():
        for i, row in enumerate(g.ip.rows):
            coeff = dot(row, vec)
            if coeff:
                pairs.append((coeff * xi[i], xi[j] * xi[k]))
    return divided(chart.sum_of_products(pairs), 6)


def chevalley_eilenberg_q(g: QuadraticLieAlgebra) -> Derivation:
    """The zero-anchor algebroid differential of g on its shifted chart."""
    c = {(k + 1, i + 1, j + 1): x for (i, j), vec in g.brackets.items() if i < j
         for k, x in vec.items()}
    return algebroid_to_q(AlgebroidData(0, g.dim, {}, c))


# ---------------------------------------------------------------------------
# Symmetry pairs (v, alpha)
# ---------------------------------------------------------------------------


class SymmetryPair:
    """A polynomial vector field v and a base (n-1)-form alpha on T[1]R^m."""

    def __init__(self, m: int, n: int, v, alpha: GPoly):
        self.m = m
        self.n = n
        self.twist = TwistData(m, n)
        self.tangent = self.twist.tangent
        chart = self.twist.chart
        self.v = []
        for comp in v:
            if not isinstance(comp, GPoly):
                comp = chart.const(comp)
            if comp.chart != chart:
                raise ChartMismatchError("vector components must live on the twist chart")
            if not comp.is_homogeneous(0):
                raise GradingError("vector components must be weight-0 polynomials")
            self.v.append(comp)
        if len(self.v) != m:
            raise ValueError("vector field needs m components")
        if alpha.chart != chart:
            raise ChartMismatchError("alpha must live on the twist chart")
        if not alpha.is_homogeneous(n - 1) or not self.tangent.is_base_form(alpha):
            raise GradingError(f"alpha must be a base form of weight {n - 1}")
        self.alpha = alpha

    def __eq__(self, other):
        return (isinstance(other, SymmetryPair) and self.m == other.m
                and self.n == other.n and self.v == other.v and self.alpha == other.alpha)

    def __str__(self):
        vs = ", ".join(str(c) for c in self.v)
        return f"(v = ({vs}), alpha = {self.alpha})"


def iota_encode(s: SymmetryPair) -> Derivation:
    """The degree-(-1) field with iota(xi^a) = v^a and iota(t) = alpha."""
    comps = {xiname: comp for xiname, comp in zip(s.tangent.xi_names, s.v)}
    comps["t"] = s.alpha
    return Derivation(s.twist.chart, -1, comps)


def iota_self_bracket(s: SymmetryPair) -> Derivation:
    """[iota, iota]; vanishes iff the contraction v . alpha is zero."""
    i = iota_encode(s)
    return commutator(i, i)


def pair_decode(s_template: SymmetryPair, D: Derivation) -> SymmetryPair:
    """Read a (v, alpha) pair off a degree-(-1) derivation on the twist chart."""
    if D.degree != -1:
        raise GradingError("pair decoding expects a degree-(-1) derivation")
    v = [D.component(name) for name in s_template.tangent.xi_names]
    alpha = D.component("t")
    return SymmetryPair(s_template.m, s_template.n, v, alpha)


def symmetry_bracket(s1: SymmetryPair, s2: SymmetryPair) -> SymmetryPair:
    """([v1, v2], L_{v1} alpha2 - v2 . d alpha1): a Leibniz bracket, not skew
    for n > 1."""
    if (s1.m, s1.n) != (s2.m, s2.n):
        raise ChartMismatchError("symmetry pairs live on different charts")
    vec, form = dorfman_bracket(s1.tangent, (s1.v, s1.alpha), (s2.v, s2.alpha))
    return SymmetryPair(s1.m, s1.n, vec, form)


# ---------------------------------------------------------------------------
# Grid maps, read through this module
# ---------------------------------------------------------------------------

# The grid maps moved to `grids`, which imports numpy. These names still
# resolve here, as the very objects of `grids`: the benchmark tracer looks up
# `extensions.wzw_product` and wraps it wherever a module holds it.
_GRID_NAMES = frozenset({"GridMap", "load_gridmap", "save_gridmap", "wzw_cross_term",
                         "wzw_product"})


def __getattr__(name):
    if name in _GRID_NAMES:
        from . import grids
        return getattr(grids, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
