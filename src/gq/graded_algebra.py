"""Exact supercommutative polynomial arithmetic over weighted variables.

Variables carry a non-negative integer weight; parity is weight mod 2.
Odd variables anticommute and square to zero, even variables commute.
Coefficients are exact rationals, kept as Python `int` until a non-integral
rational appears; equality of polynomials is structural equality of
canonical forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import add

from .errors import ChartMismatchError, GradingError

Rat = Fraction


def _rat(x):
    """An exact rational: an `int` when integral, a `Fraction` otherwise."""
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


@dataclass(frozen=True)
class GVar:
    """A graded coordinate: a name and a non-negative weight."""

    name: str
    weight: int

    def __post_init__(self):
        if self.weight < 0:
            raise GradingError(f"variable {self.name!r} has negative weight {self.weight}")

    @property
    def parity(self) -> int:
        return self.weight % 2


class Chart:
    """An ordered list of distinct graded variables; fixes the canonical order."""

    def __init__(self, gvars):
        gvars = tuple(gvars)
        names = [v.name for v in gvars]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in chart")
        self.gvars = gvars
        self._index = {v.name: i for i, v in enumerate(gvars)}
        self.weights = tuple(v.weight for v in gvars)
        self.parities = tuple(v.parity for v in gvars)

    @classmethod
    def build(cls, *pairs) -> "Chart":
        """Chart from (name, weight) pairs, e.g. Chart.build(("x", 0), ("xi", 1))."""
        return cls(GVar(n, w) for n, w in pairs)

    def __len__(self):
        return len(self.gvars)

    def __eq__(self, other):
        return self is other or (isinstance(other, Chart) and self.gvars == other.gvars)

    def __hash__(self):
        return hash(self.gvars)

    def __repr__(self):
        inner = ", ".join(f"{v.name}:{v.weight}" for v in self.gvars)
        return f"Chart({inner})"

    def index(self, var) -> int:
        name = var.name if isinstance(var, GVar) else var
        if name not in self._index:
            raise KeyError(f"no variable {name!r} in chart")
        return self._index[name]

    def gvar(self, name: str) -> GVar:
        return self.gvars[self.index(name)]

    def degree(self) -> int:
        """Highest coordinate weight; 0 for the point chart."""
        return max(self.weights, default=0)

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "GPoly":
        return GPoly(self, {})

    def const(self, c) -> "GPoly":
        c = _rat(c)
        if c == 0:
            return self.zero()
        return GPoly(self, {(0,) * len(self.gvars): c})

    def one(self) -> "GPoly":
        return self.const(1)

    def var(self, name: str) -> "GPoly":
        i = self.index(name)
        key = tuple(1 if j == i else 0 for j in range(len(self.gvars)))
        return GPoly(self, {key: 1})

    def monomial(self, c, exponents) -> "GPoly":
        """Monomial with explicit exponent tuple (odd exponents clipped to {0,1} rules)."""
        c = _rat(c)
        key = tuple(exponents)
        if len(key) != len(self.gvars):
            raise ValueError("exponent tuple has wrong length")
        for i, e in enumerate(key):
            if e < 0:
                raise ValueError("negative exponent")
            if self.parities[i] == 1 and e > 1:
                return self.zero()  # odd square vanishes
        if c == 0:
            return self.zero()
        return GPoly(self, {key: c})

    def sum(self, polys) -> "GPoly":
        """The sum of polynomials on this chart, collected in one pass."""
        def pairs():
            for p in polys:
                if p.chart != self:
                    raise ChartMismatchError("operands live on different charts")
                yield from p.terms.items()
        return _collect(self, pairs())


def _key_weight(chart: Chart, key) -> int:
    return sum(e * w for e, w in zip(key, chart.weights))


def _key_parity(chart: Chart, key) -> int:
    return sum(e for e, p in zip(key, chart.parities) if p) % 2


def _odd_word(chart: Chart, key):
    """Indices of the odd factors of a monomial, in canonical order."""
    return tuple(i for i, e in enumerate(key) if e and chart.parities[i])


def _merge_sign(odd_a, odd_b):
    """Koszul sign for concatenating two sorted odd-index words; None if a square appears."""
    if not odd_a or not odd_b:
        return 1
    inversions = 0
    for i in odd_a:
        for j in odd_b:
            if i == j:
                return None
            if i > j:
                inversions += 1
    return -1 if inversions % 2 else 1


def _products(chart: Chart, left_terms, right_terms):
    """The (key, coefficient) pairs of the Koszul product of two term lists:
    every left term times every right term, with the merge sign of their
    odd words; pairs sharing an odd factor vanish."""
    right = [(kb, cb, _odd_word(chart, kb)) for kb, cb in right_terms]
    for ka, ca in left_terms:
        odd_a = _odd_word(chart, ka)
        for kb, cb, odd_b in right:
            sign = _merge_sign(odd_a, odd_b)
            if sign is not None:
                c = ca * cb
                yield tuple(map(add, ka, kb)), (c if sign > 0 else -c)


def _partials(chart: Chart, key, right: bool, wanted):
    """The derivatives of a monomial with coefficient 1 by its variables in
    `wanted`, as (index, key, factor) triples.

    The factor is the exponent for an even variable. For an odd one it is
    -1 per odd factor standing on the requested side of it: before it for
    the left derivative, after it for the right one.
    """
    parities = chart.parities
    flip = 1
    for i in (range(len(key) - 1, -1, -1) if right else range(len(key))):
        e = key[i]
        if not e:
            continue
        if parities[i]:
            if i in wanted:
                yield i, key[:i] + (0,) + key[i + 1:], flip
            flip = -flip
        elif i in wanted:
            yield i, key[:i] + (e - 1,) + key[i + 1:], e


def _sum_pairs(pairs) -> dict:
    """Sum (key, coefficient) pairs into a dict without zero coefficients.

    Every operation that builds terms goes through here: it is the one place
    where coefficients of equal keys are added and zero results dropped.
    """
    out = {}
    for key, c in pairs:
        if key in out:
            c += out[key]
        out[key] = c
    return {k: c for k, c in out.items() if c}


def _collect(chart: Chart, pairs) -> "GPoly":
    """The canonical polynomial with the summed (exponent key, coefficient) pairs."""
    p = object.__new__(GPoly)
    p.chart = chart
    p.terms = _sum_pairs(pairs)
    return p


def _divided(p: "GPoly", d: int) -> "GPoly":
    """p with every coefficient divided by the integer d, an `int` where integral."""
    return _collect(p.chart, ((k, _rat(Fraction(c, d))) for k, c in p.terms.items()))


class GPoly:
    """A supercommutative polynomial in canonical form.

    Stored as a mapping from exponent tuples (one entry per chart variable,
    odd entries 0 or 1) to nonzero rational coefficients. Instances are
    immutable by convention; all operations return fresh objects.
    """

    __slots__ = ("chart", "terms")

    def __init__(self, chart: Chart, terms):
        self.chart = chart
        self.terms = {k: v for k, v in terms.items() if v != 0}

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def weight(self):
        """Common weight of all terms, 0 for the zero polynomial, None if mixed."""
        ws = {_key_weight(self.chart, k) for k in self.terms}
        if not ws:
            return 0
        if len(ws) > 1:
            return None
        return ws.pop()

    def is_homogeneous(self, weight=None) -> bool:
        """Weight-homogeneous; the zero polynomial is homogeneous of every weight."""
        if not self.terms:
            return True
        w = self.weight()
        if w is None:
            return False
        return weight is None or w == weight

    def parity(self):
        """Parity of all terms, 0 for zero, None if mixed."""
        ps = {_key_parity(self.chart, k) for k in self.terms}
        if not ps:
            return 0
        if len(ps) > 1:
            return None
        return ps.pop()

    def weight_component(self, w: int) -> "GPoly":
        return GPoly(self.chart, {k: c for k, c in self.terms.items()
                                  if _key_weight(self.chart, k) == w})

    def weight_decomposition(self):
        """Mapping weight -> homogeneous component, covering every term."""
        out = {}
        for k, c in self.terms.items():
            w = _key_weight(self.chart, k)
            out.setdefault(w, {})[k] = c
        return {w: GPoly(self.chart, t) for w, t in sorted(out.items())}

    def at_zero(self, names) -> "GPoly":
        """The terms involving none of the named coordinates: the polynomial
        on the locus where those coordinates vanish."""
        idx = [self.chart.index(n) for n in names]
        return GPoly(self.chart, {k: c for k, c in self.terms.items()
                                  if not any(k[i] for i in idx)})

    def constant_term(self):
        zero_key = (0,) * len(self.chart)
        return self.terms.get(zero_key, 0)

    def _check_chart(self, other):
        if self.chart != other.chart:
            raise ChartMismatchError("operands live on different charts")

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GPoly):
            other = self.chart.const(other)
        return self.chart.sum((self, other))

    __radd__ = __add__

    def __neg__(self):
        return _collect(self.chart, ((k, -c) for k, c in self.terms.items()))

    def __sub__(self, other):
        if not isinstance(other, GPoly):
            other = self.chart.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.chart.const(other) - self

    def __mul__(self, other):
        chart = self.chart
        if not isinstance(other, GPoly):
            c = _rat(other)
            return _collect(chart, ((k, v * c) for k, v in self.terms.items()))
        self._check_chart(other)
        return _collect(chart, _products(chart, self.terms.items(), other.terms.items()))

    def __rmul__(self, other):
        # scalars commute with everything
        return self * other

    def __pow__(self, n: int):
        """Repeated squaring; stops as soon as the result vanishes."""
        if n < 0:
            raise ValueError("negative power")
        result, square = self.chart.one(), self
        while n:
            if n & 1:
                result = result * square
            n >>= 1
            if not n or not result.terms:
                break
            square = square * square
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.chart.const(other)
        return isinstance(other, GPoly) and self.chart == other.chart and self.terms == other.terms

    def __hash__(self):
        return hash((self.chart, frozenset(self.terms.items())))

    # -- printing ---------------------------------------------------------

    def _key_sort(self, key):
        return (_key_weight(self.chart, key), key)

    def __str__(self):
        if not self.terms:
            return "0"
        pieces = []
        for key in sorted(self.terms, key=self._key_sort):
            c = self.terms[key]
            factors = []
            for i, e in enumerate(key):
                if e == 0:
                    continue
                name = self.chart.gvars[i].name
                factors.append(name if e == 1 else f"{name}^{e}")
            body = "*".join(factors)
            if not body:
                pieces.append(str(c))
            elif c == 1:
                pieces.append(body)
            elif c == -1:
                pieces.append(f"-{body}")
            else:
                pieces.append(f"{c}*{body}")
        out = " + ".join(pieces)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"GPoly({self})"


def multiply(p: GPoly, q: GPoly) -> GPoly:
    """Supercommutative product with Koszul signs; canonical output."""
    return p * q


def left_derivative(p: GPoly, v) -> GPoly:
    """Left graded derivative by a chart variable.

    Convention: d_v(ab) = (d_v a) b + (-1)^(parity(v) * parity(a)) a (d_v b).
    """
    return _derivative(p, v, right=False)


def _derivative(p: GPoly, v, right: bool) -> GPoly:
    """Graded derivative by a chart variable, from the left or the right.

    On a canonical monomial this strips v, picking up one sign flip per odd
    factor standing on the requested side of it: before v for the left
    derivative, after it for the right one. Term by term the two differ by
    dR_v m = (-1)^(|v| |dL_v m|) dL_v m. The right derivative is internal;
    the public convention is the left one.
    """
    chart = p.chart
    i = chart.index(v)
    wanted = (i,)
    return _collect(chart, ((k, c * f) for key, c in p.terms.items() if key[i]
                            for _, k, f in _partials(chart, key, right, wanted)))


def weight_of(p: GPoly):
    """Weight of a homogeneous polynomial, or None for an inhomogeneous one."""
    return p.weight()


def rescale(p: GPoly, lam) -> GPoly:
    """Substitute lam^weight(v) * v for every variable v."""
    lam = _rat(lam)
    chart = p.chart
    return _collect(chart, ((key, c * lam ** _key_weight(chart, key))
                            for key, c in p.terms.items()))


def scaling_check(p: GPoly, lam) -> bool:
    """Confirm p(lam . x) == lam^deg(p) * p(x) for homogeneous p."""
    w = p.weight()
    if w is None:
        raise GradingError("scaling_check requires a weight-homogeneous polynomial")
    return rescale(p, lam) == p * (_rat(lam) ** w)


def substitute(p: GPoly, v, q: GPoly) -> GPoly:
    """Substitute the polynomial q for the variable v.

    q must be homogeneous of the same weight as v (so parity matches and
    the exchange with the remaining factors is sign-neutral).
    """
    chart = p.chart
    if q.chart != chart:
        raise ChartMismatchError("substitution value lives on a different chart")
    i = chart.index(v)
    if not q.is_homogeneous(chart.weights[i]):
        raise GradingError("substitution value must match the variable's weight")
    terms = []
    for key, c in p.terms.items():
        e = key[i]
        if e and chart.parities[i]:
            # q replaces v at the right end of the word; moving the odd v
            # there passes the odd factors that follow it
            after = sum(1 for j in range(i + 1, len(key)) if key[j] and chart.parities[j])
            if after % 2:
                c = -c
        terms.append(chart.monomial(c, key[:i] + (0,) + key[i + 1:]) * q ** e)
    return chart.sum(terms)
