"""Declarative language for charts, structures, and named checks.

Statement-oriented, semicolon-terminated. Expressions are polynomial
literals over the enclosing statement's declared variables, with exact
rational coefficients, `^` powers, and `d(...)` for the base de Rham
operator where the chart carries one.

The tokenizer is one regular expression; the parser is a plain recursive
descent over its tokens. Every error carries the line/column and the
offending token. `render` pretty-prints a
program so that reparsing gives a structurally identical tree.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .errors import ParseError


class Token(NamedTuple):
    kind: str          # ident | int | string | punct | eof
    text: str
    line: int
    col: int


_TOKEN = re.compile(r"""
    (?P<newline>\n) | (?P<skip>[ \t\r]+ | \#[^\n]*)
  | (?P<string>"[^"\n]*") | (?P<unterminated>")
  | (?P<punct>-> | [{}();:,=+\-*^/])
  | (?P<int>[0-9]+) | (?P<ident>[^\W\d]\w*) | (?P<bad>.)""", re.VERBOSE)


def tokenize(source: str):
    """Tokens with 1-based line and column; numerals are ASCII digits and an
    identifier starts with a letter or `_` and continues alphanumeric."""
    tokens, line, line_start = [], 1, 0
    for m in _TOKEN.finditer(source):
        kind = m.lastgroup
        if kind == "skip":
            continue
        text, col = m.group(), m.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "unterminated":
            raise ParseError("unterminated string", line, col)
        elif kind == "bad" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", line, col, text[0])
        else:
            tokens.append(Token(kind, text[1:-1] if kind == "string" else text, line, col))
    tokens.append(Token("eof", "", line, len(source) - line_start + 1))
    return tokens


# -- expression AST -----------------------------------------------------------


@dataclass(frozen=True)
class Num:
    value: Fraction

    def render(self):
        return str(self.value)


@dataclass(frozen=True)
class Var:
    name: str

    def render(self):
        return self.name


@dataclass(frozen=True)
class Neg:
    arg: object

    def render(self):
        return f"-{_wrap(self.arg)}"


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object

    def render(self):
        if self.op in "+-":
            return f"{self.left.render()} {self.op} {self.right.render()}"
        if self.op == "*":
            return f"{_wrap(self.left)}*{_wrap(self.right)}"
        return f"{_wrap(self.left)}^{self.right.render()}"


@dataclass(frozen=True)
class DOp:
    arg: object

    def render(self):
        return f"d({self.arg.render()})"


def _wrap(node):
    if isinstance(node, (BinOp,)) and node.op in "+-":
        return f"({node.render()})"
    if isinstance(node, Neg):
        return f"({node.render()})"
    return node.render()


# -- statement AST ------------------------------------------------------------


def _pos_field():
    return field(default=(0, 0), compare=False)


@dataclass
class ChartStmt:
    name: str
    coords: list            # (name, weight)
    pos: tuple = _pos_field()

    def render(self):
        inner = " ".join(f"{n}:{w};" for n, w in self.coords)
        return f"chart {self.name} {{ {inner} }}"


@dataclass
class QFieldStmt:
    name: str
    chart: str
    degree: int
    components: list        # (var name, expr)
    pos: tuple = _pos_field()

    def render(self):
        inner = " ".join(f"{v} -> {e.render()};" for v, e in self.components)
        deg = "" if self.degree == 1 else f" deg {self.degree}"
        return f"qfield {self.name} on {self.chart}{deg} {{ {inner} }}"


@dataclass
class SigmaStmt:
    name: str
    degree: int
    pairs: list             # (q, wq, p, wp, sign Fraction)
    pos: tuple = _pos_field()

    def render(self):
        parts = []
        for q, wq, p, wp, s in self.pairs:
            extra = "" if s == 1 else f", sign {s}"
            parts.append(f"({q}:{wq}, {p}:{wp}{extra});")
        return f"sigma {self.name} deg {self.degree} pairs {{ {' '.join(parts)} }}"


@dataclass
class HamStmt:
    name: str
    target: str
    expr: object
    pos: tuple = _pos_field()

    def render(self):
        return f"ham {self.name} on {self.target} = {self.expr.render()};"


@dataclass
class FormStmt:
    name: str
    target: str
    expr: object
    pos: tuple = _pos_field()

    def render(self):
        return f"form {self.name} on {self.target} = {self.expr.render()};"


@dataclass
class AlgebroidStmt:
    name: str
    base: int
    fiber: int
    anchors: list           # (a, i, expr)
    structures: list        # (k, i, j, expr)
    pos: tuple = _pos_field()

    def render(self):
        inner = " ".join(f"rho {a} {i} = {e.render()};" for a, i, e in self.anchors)
        inner += ("" if not inner or not self.structures else " ")
        inner += " ".join(f"c {k} {i} {j} = {e.render()};" for k, i, j, e in self.structures)
        return f"algebroid {self.name} base {self.base} fiber {self.fiber} {{ {inner} }}"


@dataclass
class AlgebraStmt:
    name: str
    builtin: str | None     # "so3" | "sl2" | None
    dim: int | None
    structures: list        # (k, i, j, Fraction)
    inner: list             # (i, j, Fraction)
    pos: tuple = _pos_field()

    def render(self):
        if self.builtin:
            return f"algebra {self.name} {self.builtin};"
        parts = [f"c {k} {i} {j} = {v};" for k, i, j, v in self.structures]
        parts += [f"ip {i} {j} = {v};" for i, j, v in self.inner]
        return f"algebra {self.name} dim {self.dim} {{ {' '.join(parts)} }}"


@dataclass
class TwistStmt:
    name: str
    base: int
    degree: int
    expr: object
    pos: tuple = _pos_field()

    def render(self):
        return f"twist {self.name} base {self.base} deg {self.degree} = {self.expr.render()};"


@dataclass
class PairStmt:
    name: str
    base: int
    degree: int
    vector: list            # (index, expr)
    alpha: object
    pos: tuple = _pos_field()

    def render(self):
        inner = " ".join(f"v {i} = {e.render()};" for i, e in self.vector)
        inner += f" alpha = {self.alpha.render()};"
        return f"pair {self.name} base {self.base} deg {self.degree} {{ {inner} }}"


@dataclass
class LoadStmt:
    kind: str               # path | grid | complex
    name: str
    filename: str
    pos: tuple = _pos_field()

    def render(self):
        return f'load {self.kind} {self.name} "{self.filename}";'


@dataclass
class SaveStmt:
    name: str
    filename: str
    pos: tuple = _pos_field()

    def render(self):
        return f'save {self.name} "{self.filename}";'


@dataclass
class ComplexStmt:
    name: str
    surface: tuple          # ("torus", m1, m2) | ("interval", m) | ...
    fiber: str | None       # algebra binding
    fiber2: int | None      # two-term symplectic fiber of this degree
    pos: tuple = _pos_field()

    def render(self):
        surf = " ".join(str(x) for x in self.surface)
        if self.fiber2 is not None:
            return f"complex {self.name} {surf} fiber2 {self.fiber2};"
        return f"complex {self.name} {surf} fiber {self.fiber};"


@dataclass
class NMapStmt:
    name: str
    target: str
    dim: int | None
    pos: tuple = _pos_field()

    def render(self):
        d = "" if self.dim is None else f" dim {self.dim}"
        return f"nmap {self.name} on {self.target}{d};"


@dataclass
class CheckStmt:
    check: str
    args: list              # token texts (identifiers, ints, strings) in order
    pos: tuple = _pos_field()

    def render(self):
        args = "".join(f" {_render_arg(a)}" for a in self.args)
        return f"check {self.check}{args};"


def _render_arg(text: str) -> str:
    """Bare if `text` tokenizes as one identifier or numeral, else quoted."""
    try:
        (kind, word, *_), _eof = tokenize(text)
    except (ParseError, ValueError):          # not exactly one token
        kind = None
    return text if kind in ("ident", "int") and word == text else f'"{text}"'


@dataclass
class Program:
    statements: list

    def render(self):
        return "\n".join(s.render() for s in self.statements) + "\n"


def render(program: Program) -> str:
    return program.render()


# -- parser -------------------------------------------------------------------


class _Parser:
    def __init__(self, tokens):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        t = self.tokens[self.i]
        self.i += 1
        return t

    def error(self, message, token=None):
        t = token or self.peek()
        raise ParseError(message, t.line, t.col, t.text)

    def at(self, text) -> bool:
        """Is the next token the punctuation or keyword `text`?"""
        t = self.tokens[self.i]
        return t.text == text and t.kind != "string"

    def accept(self, text) -> bool:
        """Consume the punctuation or keyword `text` if it comes next."""
        t = self.tokens[self.i]
        if t.text != text or t.kind == "string":
            return False
        self.i += 1
        return True

    def expect(self, text):
        if not self.accept(text):
            self.error(f"expected {text!r}, found {self.peek().text!r}")

    def take(self, kind) -> str:
        """The text of the next token, which must be of `kind`."""
        t = self.next()
        if t.kind != kind:
            self.error(f"expected {kind!r}, found {t.text!r}", t)
        return t.text

    def ident(self) -> str:
        return self.take("ident")

    def expect_int(self, signed=True) -> int:
        """The one reader of numerals: `-`? digits, as an `int`."""
        neg = signed and self.accept("-")
        t = self.peek()
        try:
            v = int(self.take("int"))
        except ValueError:
            self.error(f"integer literal of {len(t.text)} digits is too long", t)
        return -v if neg else v

    def expect_rational(self, signed=True) -> Fraction:
        num = self.expect_int(signed)
        if not self.accept("/"):
            return Fraction(num)
        t = self.peek()
        den = self.expect_int(signed)
        if den == 0:
            self.error("zero denominator", t)
        return Fraction(num, den)

    def int_after(self, keyword) -> int:
        self.expect(keyword)
        return self.expect_int()

    def weighted(self):
        """`name : int`."""
        name = self.ident()
        self.expect(":")
        return name, self.expect_int()

    def assigned(self, value):
        """`= value ;`, with `value` reading the value."""
        self.expect("=")
        v = value()
        self.expect(";")
        return v

    def block(self, item) -> list:
        """`{ item... }`, with `item` reading one entry."""
        self.expect("{")
        items = []
        while not self.accept("}"):
            items.append(item())
        return items

    def keyed(self, arity, value) -> dict:
        """A block of `key int... = value;` entries; `arity` maps each key to
        its count of integers. Entries come back by key as (int..., value)."""
        found = {key: [] for key in arity}

        def entry():
            key = self.ident()
            if key not in arity:
                self.error(f"expected {' or '.join(map(repr, arity))}, found {key!r}")
            ints = [self.expect_int() for _ in range(arity[key])]
            found[key].append((*ints, self.assigned(value)))

        self.block(entry)
        return found

    # expressions -----------------------------------------------------------

    def expression(self):
        node = self.term()
        while self.at("+") or self.at("-"):
            node = BinOp(self.next().text, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.accept("*"):
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        if self.accept("-"):
            return Neg(self.factor())
        node = self.atom()
        while self.accept("^"):
            node = BinOp("^", node, Num(Fraction(self.expect_int(signed=False))))
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            return Num(self.expect_rational(signed=False))
        if self.accept("("):
            inner = self.expression()
            self.expect(")")
            return inner
        if t.kind != "ident":
            self.error(f"expected an expression, found {t.text!r}")
        self.i += 1
        if t.text == "d" and self.at("("):
            return DOp(self.atom())         # the parenthesized operand
        return Var(t.text)

    # statements --------------------------------------------------------------

    def program(self) -> Program:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.statement())
        return Program(stmts)

    def statement(self):
        """Consume the keyword, parse the rest by its `stmt_` method, and
        place the statement at the keyword."""
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected a statement keyword, found {t.text!r}")
        handler = getattr(self, f"stmt_{t.text}", None)
        if handler is None:
            self.error(f"unknown statement {t.text!r}")
        self.i += 1
        st = handler()
        st.pos = (t.line, t.col)
        return st

    def stmt_chart(self):
        name = self.ident()
        return ChartStmt(name, self.block(self.coordinate))

    def coordinate(self):
        coord = self.weighted()
        self.expect(";")
        return coord

    def stmt_qfield(self):
        name = self.ident()
        self.expect("on")
        chart = self.ident()
        degree = self.expect_int() if self.accept("deg") else 1
        return QFieldStmt(name, chart, degree, self.block(self.component))

    def component(self):
        v = self.ident()
        self.expect("->")
        e = self.expression()
        self.expect(";")
        return v, e

    def stmt_sigma(self):
        name = self.ident()
        degree = self.int_after("deg")
        self.expect("pairs")
        return SigmaStmt(name, degree, self.block(self.darboux_pair))

    def darboux_pair(self):
        self.expect("(")
        q, wq = self.weighted()
        self.expect(",")
        p, wp = self.weighted()
        sign = Fraction(1)
        if self.accept(","):
            self.expect("sign")
            sign = self.expect_rational()
        self.expect(")")
        self.expect(";")
        return q, wq, p, wp, sign

    def stmt_ham(self, cls=HamStmt):
        name = self.ident()
        self.expect("on")
        target = self.ident()
        return cls(name, target, self.assigned(self.expression))

    def stmt_form(self):
        return self.stmt_ham(FormStmt)

    def stmt_algebroid(self):
        name = self.ident()
        base = self.int_after("base")
        fiber = self.int_after("fiber")
        entries = self.keyed({"rho": 2, "c": 3}, self.expression)
        return AlgebroidStmt(name, base, fiber, entries["rho"], entries["c"])

    def stmt_algebra(self):
        name = self.ident()
        builtin = self.peek().text
        if self.accept("so3") or self.accept("sl2"):
            self.expect(";")
            return AlgebraStmt(name, builtin, None, [], [])
        dim = self.int_after("dim")
        entries = self.keyed({"c": 3, "ip": 2}, self.expect_rational)
        return AlgebraStmt(name, None, dim, entries["c"], entries["ip"])

    def stmt_twist(self):
        name = self.ident()
        base = self.int_after("base")
        degree = self.int_after("deg")
        return TwistStmt(name, base, degree, self.assigned(self.expression))

    def stmt_pair(self):
        name = self.ident()
        base = self.int_after("base")
        degree = self.int_after("deg")
        entries = self.keyed({"v": 1, "alpha": 0}, self.expression)
        # the last `alpha = ...;` wins; without one, alpha is 0
        alpha = entries["alpha"][-1][0] if entries["alpha"] else Num(Fraction(0))
        return PairStmt(name, base, degree, entries["v"], alpha)

    def stmt_load(self):
        kind = self.ident()
        if kind not in ("path", "grid", "complex"):
            self.error(f"load expects path|grid|complex, found {kind!r}")
        name = self.ident()
        fn = self.take("string")
        self.expect(";")
        return LoadStmt(kind, name, fn)

    def stmt_save(self):
        name = self.ident()
        fn = self.take("string")
        self.expect(";")
        return SaveStmt(name, fn)

    def stmt_complex(self):
        name = self.ident()
        kind = self.ident()
        if kind in ("torus", "cylinder"):
            surface = (kind, self.expect_int(), self.expect_int())
        elif kind in ("interval", "disk"):
            surface = (kind, self.expect_int())
        else:
            self.error(f"unknown surface {kind!r}")
        key = self.ident()
        fiber = fiber2 = None
        if key == "fiber":
            fiber = self.ident()
        elif key == "fiber2":
            fiber2 = self.expect_int()
        else:
            self.error(f"expected 'fiber' or 'fiber2', found {key!r}")
        self.expect(";")
        return ComplexStmt(name, surface, fiber, fiber2)

    def stmt_nmap(self):
        name = self.ident()
        self.expect("on")
        target = self.ident()
        dim = self.expect_int() if self.accept("dim") else None
        self.expect(";")
        return NMapStmt(name, target, dim)

    def stmt_check(self):
        name = self.ident()
        # allow hyphenated check names: boundary-lagrangian
        while self.accept("-"):
            name += "-" + self.ident()
        args = []
        while not self.accept(";"):
            tok = self.next()
            if tok.kind not in ("ident", "int", "string"):
                self.error(f"unexpected check argument {tok.text!r}", tok)
            args.append(tok.text)
        return CheckStmt(name, args)


def parse(source: str) -> Program:
    """Parse DSL source into a Program; syntax errors carry positions."""
    return _Parser(tokenize(source)).program()
