"""Graded vector fields on a chart, graded commutators, and the Q^2 = 0 test.

A derivation is stored by its action on coordinates only; its action on an
arbitrary polynomial follows from the graded Leibniz rule. Degrees may be
negative (contractions), coordinate weights may not.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ChartMismatchError, GradingError
from .graded_algebra import Chart, GPoly, GVar, left_derivative

__all__ = [
    "Chart", "GVar", "Derivation",
    "apply_derivation", "commutator", "q_square", "euler_field",
]


class Derivation:
    """A graded vector field: an integer degree plus one coefficient per coordinate.

    The coefficient of v must be homogeneous of weight weight(v) + degree;
    parities follow (parity = degree mod 2), so the Koszul bookkeeping in
    `apply` is consistent.
    """

    def __init__(self, chart: Chart, degree: int, components, check=True):
        self.chart = chart
        self.degree = degree
        comps = {}
        for name, p in components.items():
            i = chart.index(name)
            comps[chart.gvars[i].name] = p
        self.components = comps
        if check:
            self._validate()

    def _validate(self):
        if self.degree < -self.chart.degree():
            raise GradingError(
                f"degree {self.degree} below -max weight {-self.chart.degree()}")
        for name, p in self.components.items():
            if p.chart != self.chart:
                raise ChartMismatchError(f"component for {name!r} lives on a different chart")
            w = self.chart.gvar(name).weight + self.degree
            if not p.is_homogeneous(w):
                raise GradingError(
                    f"component for {name!r} must be homogeneous of weight {w}, got {p}")

    @property
    def parity(self) -> int:
        return self.degree % 2

    def component(self, name: str) -> GPoly:
        return self.components.get(name, self.chart.zero())

    def is_zero(self) -> bool:
        return all(p.is_zero() for p in self.components.values())

    def __call__(self, p: GPoly) -> GPoly:
        return apply_derivation(self, p)

    def __add__(self, other):
        if self.chart != other.chart:
            raise ChartMismatchError("derivations on different charts")
        if self.degree != other.degree:
            raise GradingError("can only add derivations of equal degree")
        comps = {v.name: self.component(v.name) + other.component(v.name)
                 for v in self.chart.gvars}
        return Derivation(self.chart, self.degree, comps, check=False)

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, scalar):
        comps = {name: p * scalar for name, p in self.components.items()}
        return Derivation(self.chart, self.degree, comps, check=False)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Derivation) or self.chart != other.chart:
            return False
        if self.degree != other.degree and not (self.is_zero() and other.is_zero()):
            return False
        return all(self.component(v.name) == other.component(v.name)
                   for v in self.chart.gvars)

    def __str__(self):
        parts = [f"{v.name} -> {self.component(v.name)}"
                 for v in self.chart.gvars if not self.component(v.name).is_zero()]
        body = "; ".join(parts) if parts else "0"
        return f"Derivation(deg {self.degree}: {body})"

    __repr__ = __str__


def apply_derivation(D: Derivation, p: GPoly) -> GPoly:
    """Evaluate D on p: sum_v D(v) * d_v p.

    With the left-derivative convention, putting the coefficient on the left
    makes this a graded derivation of parity deg(D) mod 2.
    """
    if p.chart != D.chart:
        raise ChartMismatchError("polynomial lives on a different chart")
    return D.chart.sum_of_products((coeff, left_derivative(p, name))
                                   for name, coeff in D.components.items() if not coeff.is_zero())


def commutator(D1: Derivation, D2: Derivation) -> Derivation:
    """Graded commutator [D1, D2] = D1 D2 - (-1)^(deg D1 * deg D2) D2 D1."""
    if D1.chart != D2.chart:
        raise ChartMismatchError("derivations on different charts")
    chart = D1.chart
    sign = -1 if (D1.degree * D2.degree) % 2 else 1
    comps = {}
    for v in chart.gvars:
        x = chart.var(v.name)
        comps[v.name] = D1(D2(x)) - sign * D2(D1(x))
    return Derivation(chart, D1.degree + D2.degree, comps, check=False)


def q_square(Q: Derivation) -> Derivation:
    """Half the self-commutator of a degree-1 field; zero iff Q is a Q-structure."""
    if Q.degree != 1:
        raise GradingError(f"q_square requires degree 1, got {Q.degree}")
    chart = Q.chart
    comps = {v.name: Q(Q(chart.var(v.name))) for v in chart.gvars}
    return Derivation(chart, 2, comps, check=False)


def euler_field(chart: Chart) -> Derivation:
    """The degree-0 field generating the scaling action: E(v) = weight(v) * v."""
    comps = {v.name: chart.var(v.name) * Fraction(v.weight) for v in chart.gvars}
    return Derivation(chart, 0, comps, check=False)
