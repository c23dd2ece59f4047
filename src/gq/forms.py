"""Polynomial Cartan calculus on shifted-tangent charts.

A tangent chart carries base coordinates x^a (weight 0) and their odd
partners xi^a (weight 1); functions on it are polynomial differential
forms. Extra coordinates (e.g. a twist fiber) may be present; the calculus
below only touches the (x, xi) pairs.
"""

from __future__ import annotations

from functools import cached_property

from .errors import GradingError
from .graded_algebra import Chart, GPoly, GVar, left_derivative
from .nq_core import Derivation


class TangentChart:
    """Chart modelling T[1]R^m, optionally with extra fiber coordinates.

    extra: iterable of (name, weight) appended after the (x, xi) block.
    """

    def __init__(self, m: int, extra=()):
        self.m = m
        self.x_names = tuple(f"x{a}" for a in range(1, m + 1))
        self.xi_names = tuple(f"xi{a}" for a in range(1, m + 1))
        gvars = [GVar(n, 0) for n in self.x_names] + [GVar(n, 1) for n in self.xi_names]
        gvars += [GVar(n, w) for n, w in extra]
        self.chart = Chart(gvars)

    @classmethod
    def over(cls, chart: Chart, x_names, xi_names) -> "TangentChart":
        """The Cartan calculus of the named (x, xi) pairs on an existing chart:
        d sends x_names[a] to xi_names[a], every other coordinate is a fiber."""
        tc = cls.__new__(cls)
        tc.x_names, tc.xi_names = tuple(x_names), tuple(xi_names)
        if len(tc.x_names) != len(tc.xi_names):
            raise ValueError("every base coordinate needs one odd partner")
        for names, w in ((tc.x_names, 0), (tc.xi_names, 1)):
            for n in names:
                if chart.gvar(n).weight != w:
                    raise GradingError(f"coordinate {n!r} must have weight {w}")
        tc.m = len(tc.x_names)
        tc.chart = chart
        return tc

    def x(self, a: int) -> GPoly:
        return self.chart.var(self.x_names[a - 1])

    def xi(self, a: int) -> GPoly:
        return self.chart.var(self.xi_names[a - 1])

    def zero(self):
        return self.chart.zero()

    def one(self):
        return self.chart.one()

    def is_base_form(self, p: GPoly) -> bool:
        """True if p only involves the (x, xi) block."""
        fixed = set(self.x_names) | set(self.xi_names)
        return p.at_zero(v.name for v in self.chart.gvars if v.name not in fixed) == p

    # -- Cartan operations -------------------------------------------------

    def de_rham(self) -> Derivation:
        """The Q sending x^a to xi^a (and every other coordinate to 0)."""
        comps = {xn: self.chart.var(qn) for xn, qn in zip(self.x_names, self.xi_names)}
        return Derivation(self.chart, 1, comps)

    @cached_property
    def _de_rham(self) -> Derivation:
        return self.de_rham()

    def d(self, p: GPoly) -> GPoly:
        return self._de_rham(p)

    def contraction(self, v) -> Derivation:
        """Interior product with the polynomial vector field v = (v^1, ..., v^m);
        a component of nonzero weight is a GradingError."""
        v = list(v)
        if len(v) != self.m:
            raise ValueError("vector field needs one component per base coordinate")
        return Derivation(self.chart, -1, dict(zip(self.xi_names, v)))

    def iota(self, v, p: GPoly) -> GPoly:
        return self.contraction(v)(p)

    def lie(self, v, p: GPoly) -> GPoly:
        """Lie derivative along v via the Cartan formula d iota + iota d."""
        iota = self.contraction(v)
        return self.d(iota(p)) + iota(self.d(p))

    def vector_bracket(self, v, w):
        """Commutator of polynomial vector fields, componentwise."""
        minus_w = [-c for c in w]
        out = []
        for a in range(self.m):
            pairs = []
            for b, xb in enumerate(self.x_names):
                pairs += ((v[b], left_derivative(w[a], xb)),
                          (minus_w[b], left_derivative(v[a], xb)))
            out.append(self.chart.sum_of_products(pairs))
        return out


def dorfman_bracket(tc: TangentChart, sec1, sec2):
    """Dorfman bracket on polynomial sections of TM + T*M.

    Sections are pairs (X, xi): X a list of m weight-0 polynomials, xi a
    weight-1 base form (a base form of any weight gives the bracket of
    symmetry pairs). Returns ([X,Y], L_X zeta - iota_Y d xi).
    """
    X, xi = sec1
    Y, zeta = sec2
    vec = tc.vector_bracket(X, Y)
    form = tc.lie(X, zeta) - tc.iota(Y, tc.d(xi))
    return vec, form
