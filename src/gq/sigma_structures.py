"""Degree-n symplectic Darboux charts and the structures they encode.

A Darboux chart pairs coordinates of weights k and n-k with a constant
coefficient per pair. The induced bracket has degree -n and satisfies the
shifted graded antisymmetry/Leibniz/Jacobi rules; all signs follow from the
conventions recorded in docs/CONVENTIONS.md. Degree-(n+1) Hamiltonians
correspond to degree-1 vector fields; the master equation {Theta, Theta} = 0
is the Hamiltonian face of Q^2 = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ChartMismatchError, GradingError, StructureError, UnsupportedInputError
from .graded_algebra import Chart, GPoly, GVar, darboux_bracket, divided, left_derivative
from .linalg import rational
from .nq_core import Derivation


@dataclass(frozen=True)
class ConjugatePair:
    """One Darboux pair: names, weights, and the pair coefficient in omega."""

    q_name: str
    q_weight: int
    p_name: str
    p_weight: int
    sign: Fraction = Fraction(1)


class DarbouxChart:
    """Degree-n symplectic chart made of conjugate coordinate pairs.

    Weights are forced into [0, n] (a degree-n symplectic chart cannot carry
    higher coordinates), and each pair's weights must sum to n. The pairing
    is nondegenerate by construction.

    `layout[i]` is `(conj(i), s_i)` for chart index i: the index of its
    conjugate and its factor in {f, g} = sum_i s_i dR_i f * dL_conj(i) g.
    """

    def __init__(self, n: int, pairs):
        if n < 0:
            raise GradingError("symplectic degree must be non-negative")
        self.n = n
        norm = []
        gvars = []
        for p in pairs:
            if not isinstance(p, ConjugatePair):
                p = ConjugatePair(*p)
            p = ConjugatePair(p.q_name, p.q_weight, p.p_name, p.p_weight, rational(p.sign))
            if p.sign == 0:
                raise StructureError(f"pair ({p.q_name}, {p.p_name}) has zero coefficient")
            for name, w in ((p.q_name, p.q_weight), (p.p_name, p.p_weight)):
                if w < 0 or w > n:
                    raise GradingError(
                        f"coordinate {name!r} has weight {w} outside [0, {n}]")
            if p.q_weight + p.p_weight != n:
                raise GradingError(
                    f"pair ({p.q_name}, {p.p_name}) weights sum to "
                    f"{p.q_weight + p.p_weight}, expected {n}")
            norm.append(p)
            gvars.append(GVar(p.q_name, p.q_weight))
            gvars.append(GVar(p.p_name, p.p_weight))
        self.pairs = tuple(norm)
        self.chart = Chart(gvars)
        layout = []
        for a, p in enumerate(self.pairs):
            odd_pair = p.q_weight % 2 and p.p_weight % 2
            layout += ((2 * a + 1, p.sign), (2 * a, p.sign if odd_pair else -p.sign))
        self.layout = tuple(layout)

    def var(self, name: str) -> GPoly:
        return self.chart.var(name)

    def zero(self) -> GPoly:
        return self.chart.zero()

    def one(self) -> GPoly:
        return self.chart.one()

    def __repr__(self):
        inner = "; ".join(
            f"({p.q_name}:{p.q_weight}, {p.p_name}:{p.p_weight})" + ("" if p.sign == 1 else f"*{p.sign}")
            for p in self.pairs)
        return f"DarbouxChart(n={self.n}, {inner})"


def courant_chart(m: int) -> DarbouxChart:
    """T*[2]T[1]R^m: pairs (x_a: 0, p_a: 2) with coefficient -1 and
    (theta_a: 1, chi_a: 1) with coefficient +1.

    The even-pair coefficient makes the derived bracket of Theta = theta^a p_a
    reproduce the Dorfman bracket on the nose (see docs/CONVENTIONS.md).
    """
    pairs = [ConjugatePair(f"x{a}", 0, f"p{a}", 2, Fraction(-1)) for a in range(1, m + 1)]
    pairs += [ConjugatePair(f"theta{a}", 1, f"chi{a}", 1) for a in range(1, m + 1)]
    return DarbouxChart(2, pairs)


def poisson_bracket(dchart: DarbouxChart, f: GPoly, g: GPoly) -> GPoly:
    """The degree-(-n) bracket induced by omega.

    {f, g} = sum over pairs of
        sign * [ dR_q f * dL_p g  -  (-1)^(|q||p|) dR_p f * dL_q g ],
    that is sum_i s_i dR_i f * dL_conj(i) g over the chart's conjugate
    layout (`graded_algebra.darboux_bracket`). On coordinates
    {q_i, p_j} = sign_i * delta_ij.
    """
    chart = dchart.chart
    if f.chart != chart or g.chart != chart:
        raise ChartMismatchError("arguments do not live on this Darboux chart")
    return darboux_bracket(chart, dchart.layout, f, g)


class Hamiltonian:
    """A weight-(n+1) function on a Darboux chart."""

    def __init__(self, dchart: DarbouxChart, theta: GPoly):
        if theta.chart != dchart.chart:
            raise ChartMismatchError("Hamiltonian lives on a different chart")
        if not theta.is_homogeneous(dchart.n + 1):
            raise GradingError(
                f"Hamiltonian must be homogeneous of weight {dchart.n + 1}, got {theta}")
        self.dchart = dchart
        self.theta = theta

    def __str__(self):
        return str(self.theta)


def hamiltonian_vector_field(dchart: DarbouxChart, h: GPoly) -> Derivation:
    """The derivation {h, .}; degree = weight(h) - n.

    For the zero function every degree is valid; it gets 1, the
    Q-structure case.
    """
    w = h.weight()
    if w is None:
        raise GradingError("Hamiltonian vector field needs a homogeneous function")
    degree = 1 if h.is_zero() else w - dchart.n
    comps = {v.name: poisson_bracket(dchart, h, dchart.var(v.name))
             for v in dchart.chart.gvars}
    return Derivation(dchart.chart, degree, comps, check=False)


def hamiltonian_to_q(dchart: DarbouxChart, theta) -> Derivation:
    """Q = {Theta, .} for a weight-(n+1) Hamiltonian; a degree-1 field."""
    if isinstance(theta, Hamiltonian):
        theta = theta.theta
    Hamiltonian(dchart, theta)  # validates the weight
    return hamiltonian_vector_field(dchart, theta)


def q_to_hamiltonian(dchart: DarbouxChart, Q: Derivation) -> GPoly:
    """The unique weight-(n+1) Theta with {Theta, .} = Q.

    Reconstructs Theta through the Euler identity and verifies the round
    trip on every coordinate, which is exactly Q-invariance of omega on a
    Darboux chart; a non-symplectic Q fails with StructureError.
    """
    if dchart.n < 1:
        raise GradingError("q_to_hamiltonian needs symplectic degree >= 1")
    if Q.chart != dchart.chart:
        raise ChartMismatchError("Q lives on a different chart")
    if Q.degree != 1:
        raise GradingError("q_to_hamiltonian expects a degree-1 field")
    n = dchart.n
    pairs = []
    for pr in dchart.pairs:
        q, p = dchart.var(pr.q_name), dchart.var(pr.p_name)
        qw, pw = pr.q_weight, pr.p_weight
        # invert Q(p) = sign * dR_q Theta and Q(q) = -sign (-1)^(|q||p|) dR_p Theta
        sq = -1 if (qw % 2) * (n % 2) else 1
        sp = -1 if (pw % 2) * (n % 2) else 1
        spar = -1 if (qw % 2) * (pw % 2) else 1
        inv = rational(Fraction(1) / pr.sign)
        pairs += ((q * (sq * qw * inv), Q.component(pr.p_name)),
                  (p * -(sp * spar * pw * inv), Q.component(pr.q_name)))
    theta = divided(dchart.chart.sum_of_products(pairs), n + 1)
    candidate = theta.weight_component(n + 1)
    if candidate != theta:
        raise StructureError("Q is not symplectic: reconstructed Hamiltonian is inhomogeneous")
    back = hamiltonian_to_q(dchart, candidate)
    for v in dchart.chart.gvars:
        if back.component(v.name) != Q.component(v.name):
            raise StructureError(
                f"Q is not symplectic: L_Q omega != 0 detected at coordinate {v.name!r}")
    return candidate


def master_equation(dchart: DarbouxChart, theta) -> GPoly:
    """{Theta, Theta}; vanishes iff the Hamiltonian field squares to zero."""
    if isinstance(theta, Hamiltonian):
        theta = theta.theta
    return poisson_bracket(dchart, theta, theta)


def derived_bracket(dchart: DarbouxChart, theta, e1: GPoly, e2: GPoly) -> GPoly:
    """{{Theta, e1}, e2}: Poisson bracket of functions at n=1, Dorfman at n=2."""
    if isinstance(theta, Hamiltonian):
        theta = theta.theta
    if not e1.is_homogeneous() or not e2.is_homogeneous():
        raise GradingError("derived_bracket expects weight-homogeneous arguments")
    return poisson_bracket(dchart, poisson_bracket(dchart, theta, e1), e2)


def skew_table(entries, n: int, coerce, what: str) -> dict:
    """Validate a table keyed (..., i, j), antisymmetric in (i, j): every index
    in [1, n], each value coerced once, zero for i == j, and the two orders of
    a pair agreeing, zeros included. Returns the nonzero values keyed with
    i < j, in first-seen order; `what` names the table in errors."""
    table = {}
    for key, value in entries.items():
        if not all(1 <= t <= n for t in key):
            raise ValueError(f"index out of range in {what}: {key}")
        value = coerce(value)
        *head, i, j = key
        if i == j:
            if value != 0:
                raise ValueError(f"{what} must vanish for i == j at {key}")
            continue
        if i > j:
            key, value = (*head, j, i), -value
        if table.setdefault(key, value) != value:
            raise ValueError(f"conflicting {what} at {key}")
    return {key: value for key, value in table.items() if value != 0}


def courant_theta(dchart: DarbouxChart, eta: GPoly | None = None) -> GPoly:
    """Theta = theta^a p_a (+ eta) on the standard degree-2 chart.

    eta, if given, must be a weight-3 polynomial in (x, theta) only: the
    twisting 3-form. The master equation then vanishes iff d eta = 0.
    """
    if dchart.n != 2:
        raise GradingError("courant_theta lives on a degree-2 chart")
    m = len(dchart.pairs) // 2
    theta = dchart.chart.sum_of_products((dchart.var(f"theta{a}"), dchart.var(f"p{a}"))
                                         for a in range(1, m + 1))
    if eta is not None:
        if not eta.is_homogeneous(3):
            raise GradingError("twisting form must be homogeneous of weight 3")
        banned = [f"p{a}" for a in range(1, m + 1)] + [f"chi{a}" for a in range(1, m + 1)]
        if eta.at_zero(banned) != eta:
            raise GradingError("twisting form may only involve x and theta")
        theta = theta + eta
    return theta


def _odd_pairs(dchart: DarbouxChart):
    return [pr for pr in dchart.pairs if pr.q_weight % 2]


def section_encode(dchart: DarbouxChart, X, xi) -> GPoly:
    """Vector + 1-form (X^a, xi_a) as the weight-1 function X^a p_a + xi_a q^a,
    where (q_a, p_a) are the odd pairs of a degree-2 chart in order: on
    courant_chart, X^a chi_a + xi_a theta^a."""
    chart = dchart.chart

    def as_poly(c):
        return c if isinstance(c, GPoly) else chart.const(c)

    pairs = []
    for a, pr in enumerate(_odd_pairs(dchart)):
        pairs += ((as_poly(X[a]), chart.var(pr.p_name)), (as_poly(xi[a]), chart.var(pr.q_name)))
    return chart.sum_of_products(pairs)


# -- Lie algebroids as degree-1 Q-structures --------------------------------


def algebroid_chart(m: int, r: int) -> Chart:
    """The A[1] chart: x1..xm of weight 0 and xi1..xir of weight 1."""
    return Chart([GVar(f"x{a}", 0) for a in range(1, m + 1)]
                 + [GVar(f"xi{i}", 1) for i in range(1, r + 1)])


class AlgebroidData:
    """Anchor and structure functions of a Lie algebroid in coordinates.

    base_dim m, fiber_dim r; rho[(a, i)] and c[(k, i, j)] are weight-0
    polynomials on the A[1] chart (`algebroid_chart`); c is antisymmetric in
    (i, j) (`skew_table`) and stored with i < j.
    """

    def __init__(self, base_dim: int, fiber_dim: int, rho=None, c=None):
        self.base_dim = base_dim
        self.fiber_dim = fiber_dim
        self.chart = algebroid_chart(base_dim, fiber_dim)
        self.rho = {}
        for (a, i), poly in (rho or {}).items():
            if not (1 <= a <= base_dim and 1 <= i <= fiber_dim):
                raise ValueError(f"anchor index out of range: {(a, i)}")
            poly = self._coerce(poly)
            if not poly.is_zero():
                self.rho[(a, i)] = poly
        self.c = skew_table(c or {}, fiber_dim, self._coerce, "structure functions")

    def _coerce(self, poly) -> GPoly:
        if not isinstance(poly, GPoly):
            poly = self.chart.const(poly)
        if not poly.is_homogeneous(0):
            raise GradingError("algebroid data must be weight-0 polynomials")
        return poly

    def anchor(self, a: int, i: int) -> GPoly:
        return self.rho.get((a, i), self.chart.zero())

    def __eq__(self, other):
        return (isinstance(other, AlgebroidData)
                and self.base_dim == other.base_dim
                and self.fiber_dim == other.fiber_dim
                and self.rho == other.rho and self.c == other.c)


def algebroid_to_q(A: AlgebroidData) -> Derivation:
    """Q(x^a) = xi^i rho^a_i, Q(xi^k) = -1/2 c^k_ij xi^i xi^j on the A[1] chart."""
    chart = A.chart
    comps = {}
    for a in range(1, A.base_dim + 1):
        comps[f"x{a}"] = chart.sum_of_products((chart.var(f"xi{i}"), A.anchor(a, i))
                                               for i in range(1, A.fiber_dim + 1))
    for k in range(1, A.fiber_dim + 1):
        # sum over ordered pairs i < j absorbs the 1/2
        comps[f"xi{k}"] = chart.sum_of_products((-coeff * chart.var(f"xi{i}"), chart.var(f"xi{j}"))
                                                for (kk, i, j), coeff in A.c.items() if kk == k)
    return Derivation(chart, 1, comps)


def q_to_algebroid(Q: Derivation) -> AlgebroidData:
    """Read anchor and structure functions off a degree-1 Q on a degree-1 chart."""
    chart = Q.chart
    if chart.degree() > 1:
        raise GradingError("q_to_algebroid needs a chart of degree at most 1")
    if Q.degree != 1:
        raise GradingError("q_to_algebroid expects a degree-1 field")
    base = [v.name for v in chart.gvars if v.weight == 0]
    fiber = [v.name for v in chart.gvars if v.weight == 1]
    m, r = len(base), len(fiber)
    rho = {}
    for a, xname in enumerate(base, start=1):
        qx = Q.component(xname)
        for i, finame in enumerate(fiber, start=1):
            rho[(a, i)] = left_derivative(qx, finame)
    c = {}
    for k, kname in enumerate(fiber, start=1):
        qxi = Q.component(kname)
        for i in range(1, r + 1):
            for j in range(i + 1, r + 1):
                coeff = left_derivative(left_derivative(qxi, fiber[i - 1]), fiber[j - 1])
                c[(k, i, j)] = -coeff
    return AlgebroidData(m, r, rho, c)


# -- Lagrangian Q-invariant coordinate submanifolds --------------------------


def lambda_check(dchart: DarbouxChart, Q: Derivation, constraints) -> bool:
    """True iff setting the given coordinates to zero cuts out a Lagrangian
    Q-invariant locus: exactly one member of each conjugate pair is
    constrained and Q of each constraint lies in the constraint ideal.
    """
    names = list(constraints)
    coord_names = {v.name for v in dchart.chart.gvars}
    for name in names:
        if name not in coord_names:
            raise UnsupportedInputError(
                f"constraint {name!r} is not a Darboux coordinate")
    if Q.chart != dchart.chart:
        raise ChartMismatchError("Q lives on a different chart")
    cset = set(names)
    if len(cset) != len(names):
        return False
    for pr in dchart.pairs:
        if (pr.q_name in cset) == (pr.p_name in cset):
            return False  # neither or both members constrained
    # Q of each constraint must vanish on the locus
    return all(Q.component(name).at_zero(cset).is_zero() for name in cset)
