"""Twisted fiber bundles over tangent charts, quadratic Lie algebras and their
central extension, grid-sampled group-valued maps with the product 2-form
correction, the truncated loop-algebra cocycle, and symmetry pairs (v, alpha).
"""

from __future__ import annotations

import itertools

import numpy as np

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
    terms = []
    for (j, k), vec in g.brackets.items():
        for i, row in enumerate(g.ip.rows):
            coeff = dot(row, vec)
            if coeff:
                terms.append(coeff * xi[i] * xi[j] * xi[k])
    return divided(chart.sum(terms), 6)


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
# Unit quaternions and grid-sampled maps into SU(2)
# ---------------------------------------------------------------------------


def quat_mul(a, b):
    """Hamilton product, broadcasting over leading axes."""
    aw, ax, ay, az = np.moveaxis(a, -1, 0)
    bw, bx, by, bz = np.moveaxis(b, -1, 0)
    return np.stack([
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by - ax * bz + ay * bw + az * bx,
        aw * bz + ax * by - ay * bx + az * bw,
    ], axis=-1)


def quat_conj(a):
    return a * np.array([1.0, -1.0, -1.0, -1.0])


def quat_normalize(a):
    return a / np.linalg.norm(a, axis=-1, keepdims=True)


def quat_log(a):
    """Principal logarithm of a unit quaternion, as a vector in R^3 = su(2)."""
    a = np.asarray(a, dtype=float)
    w = np.clip(a[..., 0], -1.0, 1.0)
    vec = a[..., 1:]
    vnorm = np.linalg.norm(vec, axis=-1)
    angle = np.arctan2(vnorm, w)
    scale = np.where(vnorm > 1e-300, angle / np.where(vnorm > 1e-300, vnorm, 1.0), 0.0)
    return vec * scale[..., None]


def quat_exp(x):
    """Exponential of a pure-imaginary quaternion given as a vector in R^3."""
    x = np.asarray(x, dtype=float)
    norm = np.linalg.norm(x, axis=-1)
    w = np.cos(norm)
    scale = np.where(norm > 1e-300, np.sin(norm) / np.where(norm > 1e-300, norm, 1.0), 1.0)
    return np.concatenate([w[..., None], x * scale[..., None]], axis=-1)


def su2_inner(x, y):
    """Inner product on su(2) = R^3 used throughout the grid checks."""
    return np.sum(x * y, axis=-1)


def su2_bracket(x, y):
    """[x, y] = 2 x cross y in the quaternion model."""
    return 2.0 * np.cross(x, y)


# largest deviation of a grid node's quaternion norm from 1
_UNIT_TOL = 1e-12


class GridMap:
    """A map sampled on a rectangular grid over [0,1]^2 plus a per-cell 2-form.

    values: unit quaternions, shape (N1+1, N2+1, 4). omega: per-cell
    samples, shape (N1, N2).
    """

    def __init__(self, values, omega=None):
        values = np.asarray(values, dtype=float)
        if values.ndim != 3 or values.shape[-1] != 4:
            raise ValueError("values must be quaternions of shape (N1+1, N2+1, 4)")
        if values.shape[0] < 2 or values.shape[1] < 2:
            raise ValueError("grid must be at least 2x2 nodes")
        if not np.all(np.isfinite(values)):
            raise ValueError("grid values must be finite")
        err = np.max(np.abs(np.linalg.norm(values, axis=-1) - 1.0))
        if err > _UNIT_TOL:
            raise StructureError(f"quaternion norms off unit by {err:.3e}")
        self.values = values
        n1, n2 = values.shape[0] - 1, values.shape[1] - 1
        if omega is None:
            omega = np.zeros((n1, n2))
        omega = np.asarray(omega, dtype=float)
        if omega.shape != (n1, n2):
            raise ValueError(f"omega must have shape {(n1, n2)}")
        if not np.all(np.isfinite(omega)):
            raise ValueError("omega must be finite")
        self.omega = omega

    @property
    def nodes_shape(self):
        return self.values.shape[:2]

    def inverse(self) -> "GridMap":
        return GridMap(quat_conj(self.values), -self.omega)

    @classmethod
    def identity(cls, n1: int, n2: int) -> "GridMap":
        vals = np.zeros((n1 + 1, n2 + 1, 4))
        vals[..., 0] = 1.0
        return cls(vals)

    @classmethod
    def from_function(cls, f, n1: int, n2: int, omega_fn=None) -> "GridMap":
        """Sample a callable f(s, t) -> unit quaternion on an (n1 x n2)-cell grid."""
        vals = np.zeros((n1 + 1, n2 + 1, 4))
        for i in range(n1 + 1):
            for j in range(n2 + 1):
                vals[i, j] = f(i / n1, j / n2)
        vals = quat_normalize(vals)
        omega = None
        if omega_fn is not None:
            omega = np.zeros((n1, n2))
            for i in range(n1):
                for j in range(n2):
                    omega[i, j] = omega_fn((i + 0.5) / n1, (j + 0.5) / n2) / (n1 * n2)
        return cls(vals, omega)


def _edge_logs_left(f: GridMap):
    """Left Maurer-Cartan edge samples: log(f(node)^-1 f(neighbor))."""
    v = f.values
    ex = quat_log(quat_mul(quat_conj(v[:-1, :]), v[1:, :]))
    ey = quat_log(quat_mul(quat_conj(v[:, :-1]), v[:, 1:]))
    return ex, ey


def _edge_logs_right(f: GridMap):
    """Right Maurer-Cartan edge samples: log(f(neighbor) f(node)^-1)."""
    v = f.values
    ex = quat_log(quat_mul(v[1:, :], quat_conj(v[:-1, :])))
    ey = quat_log(quat_mul(v[:, 1:], quat_conj(v[:, :-1])))
    return ex, ey


def wzw_cross_term(a: GridMap, b: GridMap):
    """Per-cell samples of <a*theta_left wedge b*theta_right>.

    Edge one-forms are discretized as principal logarithms; the wedge on a
    cell uses the average of its two opposite edges in each direction.
    """
    if a.nodes_shape != b.nodes_shape:
        raise ValueError("grids do not match")
    lax, lay = _edge_logs_left(a)
    rbx, rby = _edge_logs_right(b)
    lax_c = 0.5 * (lax[:, :-1] + lax[:, 1:])
    lay_c = 0.5 * (lay[:-1, :] + lay[1:, :])
    rbx_c = 0.5 * (rbx[:, :-1] + rbx[:, 1:])
    rby_c = 0.5 * (rby[:-1, :] + rby[1:, :])
    return su2_inner(lax_c, rby_c) - su2_inner(lay_c, rbx_c)


def wzw_product(a: GridMap, b: GridMap) -> GridMap:
    """Pointwise product with the corrected 2-form:
    f = f1 f2, omega = omega1 + omega2 + <f1*theta_l wedge f2*theta_r>."""
    if a.nodes_shape != b.nodes_shape:
        raise ValueError("grids do not match")
    values = quat_mul(a.values, b.values)
    omega = a.omega + b.omega + wzw_cross_term(a, b)
    return GridMap(values, omega)


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


# -- GridMap text format ------------------------------------------------------


def save_gridmap(g: GridMap, path):
    """Plain-text format: 'node i j q0 q1 q2 q3' and 'cell i j omega' lines."""
    n1, n2 = g.nodes_shape
    with open(path, "w") as fh:
        fh.write(f"grid {n1 - 1} {n2 - 1}\n")
        for i in range(n1):
            for j in range(n2):
                q = [repr(float(x)) for x in g.values[i, j]]
                fh.write(f"node {i} {j} {q[0]} {q[1]} {q[2]} {q[3]}\n")
        for i in range(n1 - 1):
            for j in range(n2 - 1):
                fh.write(f"cell {i} {j} {float(g.omega[i, j])!r}\n")


def _grid_index(parts, width, samples):
    """The (i, j) of a node or cell line of `width` fields; it must index `samples`."""
    if samples is None:
        raise ValueError(f"{parts[0]!r} line before the grid header")
    if len(parts) != width:
        raise ValueError(f"{parts[0]!r} line needs {width - 1} fields, got {len(parts) - 1}")
    i, j = int(parts[1]), int(parts[2])
    if not (0 <= i < samples.shape[0] and 0 <= j < samples.shape[1]):
        raise ValueError(f"{parts[0]} index ({i}, {j}) outside the "
                         f"{samples.shape[0]}x{samples.shape[1]} {parts[0]}s of the grid")
    return i, j


def load_gridmap(path) -> GridMap:
    values = None
    omega = None
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "grid":
                if len(parts) != 3:
                    raise ValueError(f"'grid' header needs 2 fields, got {len(parts) - 1}")
                n1, n2 = int(parts[1]), int(parts[2])
                if n1 < 1 or n2 < 1:
                    raise ValueError(f"grid needs at least 1x1 cells, got {n1}x{n2}")
                values = np.zeros((n1 + 1, n2 + 1, 4))
                omega = np.zeros((n1, n2))
            elif parts[0] == "node":
                i, j = _grid_index(parts, 7, values)
                values[i, j] = [float(x) for x in parts[3:]]
            elif parts[0] == "cell":
                i, j = _grid_index(parts, 4, omega)
                omega[i, j] = float(parts[3])
            else:
                raise ValueError(f"unrecognized grid line: {line.strip()!r}")
    if values is None:
        raise ValueError("missing grid header")
    return GridMap(values, omega)
