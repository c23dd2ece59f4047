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
from functools import reduce
from itertools import chain, compress, repeat
from operator import and_, or_, rshift

from .errors import ChartMismatchError, GradingError, UnsupportedInputError
from .linalg import collect, rational


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


_FIELD = 32                                 # bits per even exponent, guard included
_FIELD_MASK = (1 << _FIELD) - 1
MAX_EXPONENT = (1 << (_FIELD - 1)) - 1      # largest exponent of an even variable


class Chart:
    """An ordered list of distinct graded variables; fixes the canonical order.

    It also fixes the layout of the packed monomial keys of its polynomials:
    one `int` holding one field per variable, the first variable in the most
    significant field, so that integers order like exponent tuples. An odd
    variable has a 1-bit field. An even variable has a `_FIELD`-bit field
    whose top bit is a guard: the sum of two exponents up to `MAX_EXPONENT`
    fits in the field, and sets the guard exactly when it passes the bound.
    """

    def __init__(self, gvars):
        gvars = tuple(gvars)
        names = [v.name for v in gvars]
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names in chart")
        self.gvars = gvars
        self._index = {v.name: i for i, v in enumerate(gvars)}
        self.weights = tuple(v.weight for v in gvars)
        self.parities = tuple(v.parity for v in gvars)
        shifts, top = [], 0
        for parity in reversed(self.parities):
            shifts.append(top)
            top += 1 if parity else _FIELD
        self._shifts = tuple(reversed(shifts))
        self._units = tuple(1 << s for s in self._shifts)
        self._masks = tuple(1 if p else _FIELD_MASK for p in self.parities)
        self._fields = tuple(m << s for m, s in zip(self._masks, self._shifts))
        self._odd = sum(u for u, p in zip(self._units, self.parities) if p)
        self._guard = sum(u << (_FIELD - 1) for u, p in zip(self._units, self.parities) if not p)
        # weight of a key: odd fields by popcount per weight, even fields one by one
        odd_weights = {}
        for u, v in zip(self._units, gvars):
            if v.parity:
                odd_weights[v.weight] = odd_weights.get(v.weight, 0) | u
        self._odd_weights = tuple((m, w) for w, m in odd_weights.items())
        self._even_weights = tuple((s, v.weight) for s, v in zip(self._shifts, gvars)
                                   if v.weight and not v.parity)

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

    # -- packed monomial keys ---------------------------------------------

    def _pack(self, exponents):
        """The key of an exponent tuple; None when an odd exponent exceeds 1
        (the monomial vanishes). Zero exponents add nothing and are skipped."""
        exponents = tuple(exponents)
        if len(exponents) != len(self.gvars):
            raise ValueError("exponent tuple has wrong length")
        key = 0
        for i in compress(range(len(exponents)), exponents):
            e = exponents[i]
            if e < 0:
                raise ValueError("negative exponent")
            if self.parities[i]:
                if e > 1:
                    return None
            elif e > MAX_EXPONENT:
                _exponent_error(self.gvars[i])
            key |= e << self._shifts[i]
        return key

    def _unpack(self, key) -> tuple:
        """The exponent tuple of a key."""
        return tuple(map(and_, map(rshift, repeat(key, len(self._shifts)), self._shifts),
                         self._masks))

    # -- polynomial constructors ------------------------------------------

    def zero(self) -> "GPoly":
        return _make(self, {})

    def const(self, c) -> "GPoly":
        c = rational(c)
        return _make(self, {0: c} if c else {})

    def one(self) -> "GPoly":
        return _make(self, {0: 1})

    def var(self, name: str) -> "GPoly":
        return _make(self, {self._units[self.index(name)]: 1})

    def monomial(self, c, exponents) -> "GPoly":
        """Monomial with explicit exponent tuple; an odd exponent above 1 gives zero."""
        c = rational(c)
        key = self._pack(exponents)
        return _make(self, {key: c} if c and key is not None else {})

    def sum(self, polys) -> "GPoly":
        """The sum of polynomials on this chart, collected in one pass."""
        def term_lists():
            for p in polys:
                if p.chart != self:
                    raise ChartMismatchError("operands live on different charts")
                yield p._terms.items()
        return _collect(self, chain.from_iterable(term_lists()))

    def sum_of_products(self, pairs) -> "GPoly":
        """The sum of f * g over (f, g) pairs on this chart, collected in one
        pass with no polynomial per product. Raises `UnsupportedInputError`
        when any product passes the exponent bound, even one that another
        product cancels."""
        def term_pairs():
            for f, g in pairs:
                if f.chart != self or g.chart != self:
                    raise ChartMismatchError("operands live on different charts")
                yield f._terms.items(), g._terms.items()
        return _sum_products(self, term_pairs())


def _exponent_error(v: GVar):
    raise UnsupportedInputError(
        f"exponent of {v.name!r} exceeds the largest supported exponent {MAX_EXPONENT}")


def _key_weight(chart: Chart, key) -> int:
    w = 0
    for m, wt in chart._odd_weights:
        w += wt * (key & m).bit_count()
    for s, wt in chart._even_weights:
        w += wt * ((key >> s) & _FIELD_MASK)
    return w


def _key_parity(chart: Chart, key) -> int:
    return (key & chart._odd).bit_count() & 1


def _flips(odd, oa):
    """The odd positions with an odd number of bits of `oa` below them.

    Sorting the word `a b` moves each odd factor of b in front of the odd
    factors of a that come later in the chart, which sit in lower positions;
    so the product's Koszul sign is the parity of b's odd bits in here."""
    flips = 0
    while oa:
        low = oa & -oa
        flips ^= odd & -(low << 1)
        oa ^= low
    return flips


def _sum_products(chart: Chart, factor_pairs) -> "GPoly":
    """The canonical sum of the Koszul products of (left, right) term lists,
    collected in one pass: every left term times every right term, signed by
    the parity of the right term's odd bits among the left term's `_flips`;
    pairs sharing an odd factor vanish. Every product key is checked against
    the guard, including keys whose coefficients cancel."""
    odd = chart._odd
    out = {}
    for left, right in factor_pairs:
        for ka, ca in left:
            oa = ka & odd
            flips = _flips(odd, oa)
            for kb, cb in right:
                if not oa & kb:
                    key = ka + kb
                    c = -ca * cb if (flips & kb).bit_count() & 1 else ca * cb
                    if key in out:
                        c += out[key]
                    out[key] = c
    guard = chart._guard
    if guard and reduce(or_, out, 0) & guard:
        key = next(k for k in out if k & guard)
        for v, e in zip(chart.gvars, chart._unpack(key)):
            if not v.parity and e > MAX_EXPONENT:
                _exponent_error(v)
    return _make(chart, {k: c for k, c in out.items() if c})


def _partials(chart: Chart, terms, i: int, right: bool):
    """The derivative by variable i of a term list, as a (key, coefficient)
    list; distinct terms give distinct keys.

    An even variable picks up its exponent. An odd one picks up -1 per odd
    factor standing on the requested side of it: before it (higher bits)
    for the left derivative, after it (lower bits) for the right one.
    """
    unit = chart._units[i]
    if chart.parities[i]:
        side = chart._odd & ((unit - 1) if right else -(unit << 1))
        return [(k ^ unit, -c if (k & side).bit_count() & 1 else c)
                for k, c in terms if k & unit]
    s = chart._shifts[i]
    return [(k - unit, c * e) for k, c in terms if (e := (k >> s) & _FIELD_MASK)]


def _make(chart: Chart, terms: dict) -> "GPoly":
    """The polynomial with the packed terms `terms`, stored as given."""
    p = object.__new__(GPoly)
    p.chart = chart
    p._terms = terms
    return p


def _collect(chart: Chart, pairs) -> "GPoly":
    """The canonical polynomial with the summed (key, coefficient) pairs."""
    return _make(chart, collect(pairs))


def divided(p: "GPoly", d: int) -> "GPoly":
    """p with every coefficient divided by the integer d, an `int` where integral."""
    return _make(p.chart, {k: rational(Fraction(c, d)) for k, c in p._terms.items()})


class GPoly:
    """A supercommutative polynomial in canonical form.

    Stored as a mapping from packed monomial keys (see `Chart`) to nonzero
    rational coefficients; `terms` shows it with exponent tuples. Instances
    are immutable by convention; all operations return fresh objects.
    """

    __slots__ = ("chart", "_terms")

    def __init__(self, chart: Chart, terms):
        """The polynomial {exponent tuple: coefficient}; terms with an odd
        exponent above 1 vanish."""
        self.chart = chart
        packed = {}
        for exponents, c in terms.items():
            if c != 0 and (key := chart._pack(exponents)) is not None:
                packed[key] = c
        self._terms = packed

    @property
    def terms(self) -> dict:
        """A fresh {exponent tuple: coefficient} dict of the terms."""
        unpack = self.chart._unpack
        return {unpack(k): c for k, c in self._terms.items()}

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def weight(self):
        """Common weight of all terms, 0 for the zero polynomial, None if mixed."""
        ws = {_key_weight(self.chart, k) for k in self._terms}
        if not ws:
            return 0
        if len(ws) > 1:
            return None
        return ws.pop()

    def is_homogeneous(self, weight=None) -> bool:
        """Weight-homogeneous; the zero polynomial is homogeneous of every weight."""
        if not self._terms:
            return True
        w = self.weight()
        if w is None:
            return False
        return weight is None or w == weight

    def parity(self):
        """Parity of all terms, 0 for zero, None if mixed."""
        ps = {_key_parity(self.chart, k) for k in self._terms}
        if not ps:
            return 0
        if len(ps) > 1:
            return None
        return ps.pop()

    def weight_component(self, w: int) -> "GPoly":
        return _make(self.chart, {k: c for k, c in self._terms.items()
                                  if _key_weight(self.chart, k) == w})

    def weight_decomposition(self):
        """Mapping weight -> homogeneous component, covering every term."""
        out = {}
        for k, c in self._terms.items():
            out.setdefault(_key_weight(self.chart, k), {})[k] = c
        return {w: _make(self.chart, t) for w, t in sorted(out.items())}

    def at_zero(self, names) -> "GPoly":
        """The terms involving none of the named coordinates: the polynomial
        on the locus where those coordinates vanish."""
        chart = self.chart
        fields = 0
        for n in names:
            fields |= chart._fields[chart.index(n)]
        return _make(chart, {k: c for k, c in self._terms.items() if not k & fields})

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
        return _make(self.chart, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        if not isinstance(other, GPoly):
            other = self.chart.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return self.chart.const(other) - self

    def __mul__(self, other):
        chart = self.chart
        if not isinstance(other, GPoly):
            c = rational(other)
            return _collect(chart, ((k, v * c) for k, v in self._terms.items()))
        self._check_chart(other)
        return _sum_products(chart, ((self._terms.items(), other._terms.items()),))

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
            if not n or not result._terms:
                break
            square = square * square
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.chart.const(other)
        return (isinstance(other, GPoly) and self.chart == other.chart
                and self._terms == other._terms)

    def __hash__(self):
        return hash((self.chart, frozenset(self._terms.items())))

    # -- printing ---------------------------------------------------------

    def __str__(self):
        if not self._terms:
            return "0"
        chart = self.chart
        pieces = []
        # packed keys order like exponent tuples
        for key in sorted(self._terms, key=lambda k: (_key_weight(chart, k), k)):
            c = self._terms[key]
            factors = []
            for v, e in zip(chart.gvars, chart._unpack(key)):
                if e:
                    factors.append(v.name if e == 1 else f"{v.name}^{e}")
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
    return _make(chart, dict(_partials(chart, p._terms.items(), chart.index(v), right)))


def darboux_bracket(chart: Chart, layout, f: GPoly, g: GPoly) -> GPoly:
    """sum_i s_i dR_i f * dL_conj(i) g for the conjugate layout
    `layout[i] = (conj(i), s_i)` of a Darboux chart, over the i that f
    contains whose conjugate g contains."""
    in_f, in_g = reduce(or_, f._terms, 0), reduce(or_, g._terms, 0)
    fields = chart._fields
    products = []
    for i, (j, s) in enumerate(layout):
        if in_f & fields[i] and in_g & fields[j]:
            right = [(k, c * s) for k, c in _partials(chart, f._terms.items(), i, True)]
            products.append((right, _partials(chart, g._terms.items(), j, False)))
    return _sum_products(chart, products)


def rescale(p: GPoly, lam) -> GPoly:
    """Substitute lam^weight(v) * v for every variable v."""
    lam = rational(lam)
    chart = p.chart
    return _collect(chart, ((key, c * lam ** _key_weight(chart, key))
                            for key, c in p._terms.items()))


def scaling_check(p: GPoly, lam) -> bool:
    """Confirm p(lam . x) == lam^deg(p) * p(x) for homogeneous p."""
    w = p.weight()
    if w is None:
        raise GradingError("scaling_check requires a weight-homogeneous polynomial")
    return rescale(p, lam) == p * (rational(lam) ** w)


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
    unit, s, mask = chart._units[i], chart._shifts[i], chart._masks[i]
    # q replaces v at the right end of the word; moving the odd v there
    # passes the odd factors that follow it
    after = chart._odd & (unit - 1) if chart.parities[i] else 0
    products = []
    for key, c in p._terms.items():
        e = (key >> s) & mask
        if e and (key & after).bit_count() & 1:
            c = -c
        products.append((((key - e * unit, c),), (q ** e)._terms.items()))
    return _sum_products(chart, products)
