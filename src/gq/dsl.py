"""Declarative language for charts, structures, and named checks.

Statement-oriented, semicolon-terminated. Expressions are polynomial
literals over the enclosing statement's declared variables, with exact
rational coefficients, `^` powers, and `d(...)` for the base de Rham
operator where the chart carries one.

The parser is a plain recursive descent over a hand tokenizer; every error
carries the line/column and the offending token. `render` pretty-prints a
program so that reparsing gives a structurally identical tree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .errors import ParseError


@dataclass(frozen=True)
class Token:
    kind: str          # ident | int | string | punct | eof
    text: str
    line: int
    col: int


def tokenize(source: str):
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and source[i] != "\n":
                i += 1
            continue
        if ch == '"':
            j = i + 1
            while j < n and source[j] != '"':
                if source[j] == "\n":
                    raise ParseError("unterminated string", line, col)
                j += 1
            if j >= n:
                raise ParseError("unterminated string", line, col)
            tokens.append(Token("string", source[i + 1:j], line, col))
            col += j - i + 1
            i = j + 1
            continue
        two = source[i:i + 2]
        if two == "->":
            tokens.append(Token("punct", two, line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and source[j].isdigit():
                j += 1
            tokens.append(Token("int", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (source[j].isalnum() or source[j] == "_"):
                j += 1
            tokens.append(Token("ident", source[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "{}();:,=+-*^/":
            tokens.append(Token("punct", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col, ch)
    tokens.append(Token("eof", "", line, col))
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
    args: list              # strings (identifiers/ints) in order
    pos: tuple = _pos_field()

    def render(self):
        args = "".join(f" {a}" for a in self.args)
        return f"check {self.check}{args};"


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

    def expect(self, kind, text=None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            self.error(f"expected {want!r}, found {t.text!r}")
        return self.next()

    def expect_int(self) -> int:
        neg = False
        if self.peek().kind == "punct" and self.peek().text == "-":
            self.next()
            neg = True
        t = self.expect("int")
        v = int(t.text)
        return -v if neg else v

    def expect_rational(self) -> Fraction:
        num = self.expect_int()
        if self.peek().kind == "punct" and self.peek().text == "/":
            self.next()
            t = self.peek()
            den = self.expect_int()
            if den == 0:
                self.error("zero denominator", t)
            return Fraction(num, den)
        return Fraction(num)

    def ident(self) -> str:
        return self.expect("ident").text

    # expressions -----------------------------------------------------------

    def expression(self):
        node = self.term()
        while self.peek().kind == "punct" and self.peek().text in "+-":
            op = self.next().text
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek().kind == "punct" and self.peek().text == "*":
            self.next()
            node = BinOp("*", node, self.factor())
        return node

    def factor(self):
        t = self.peek()
        if t.kind == "punct" and t.text == "-":
            self.next()
            return Neg(self.factor())
        node = self.atom()
        while self.peek().kind == "punct" and self.peek().text == "^":
            self.next()
            e = self.expect("int")
            node = BinOp("^", node, Num(Fraction(int(e.text))))
        return node

    def atom(self):
        t = self.peek()
        if t.kind == "int":
            self.next()
            if self.peek().kind == "punct" and self.peek().text == "/":
                self.next()
                den = self.expect("int")
                if int(den.text) == 0:
                    self.error("zero denominator", den)
                return Num(Fraction(int(t.text), int(den.text)))
            return Num(Fraction(int(t.text)))
        if t.kind == "ident":
            if t.text == "d":
                nxt = self.tokens[self.i + 1]
                if nxt.kind == "punct" and nxt.text == "(":
                    self.next()
                    self.next()
                    inner = self.expression()
                    self.expect("punct", ")")
                    return DOp(inner)
            self.next()
            return Var(t.text)
        if t.kind == "punct" and t.text == "(":
            self.next()
            inner = self.expression()
            self.expect("punct", ")")
            return inner
        self.error(f"expected an expression, found {t.text!r}")

    # statements --------------------------------------------------------------

    def program(self) -> Program:
        stmts = []
        while self.peek().kind != "eof":
            stmts.append(self.statement())
        return Program(stmts)

    def statement(self):
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected a statement keyword, found {t.text!r}")
        handler = getattr(self, f"stmt_{t.text}", None)
        if handler is None:
            self.error(f"unknown statement {t.text!r}")
        return handler()

    def stmt_chart(self):
        t = self.next()
        name = self.ident()
        self.expect("punct", "{")
        coords = []
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            vname = self.ident()
            self.expect("punct", ":")
            w = self.expect_int()
            self.expect("punct", ";")
            coords.append((vname, w))
        self.expect("punct", "}")
        return ChartStmt(name, coords, pos=(t.line, t.col))

    def stmt_qfield(self):
        t = self.next()
        name = self.ident()
        self.expect("ident", "on")
        chart = self.ident()
        degree = 1
        if self.peek().kind == "ident" and self.peek().text == "deg":
            self.next()
            degree = self.expect_int()
        self.expect("punct", "{")
        comps = []
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            v = self.ident()
            self.expect("punct", "->")
            e = self.expression()
            self.expect("punct", ";")
            comps.append((v, e))
        self.expect("punct", "}")
        return QFieldStmt(name, chart, degree, comps, pos=(t.line, t.col))

    def stmt_sigma(self):
        t = self.next()
        name = self.ident()
        self.expect("ident", "deg")
        degree = self.expect_int()
        self.expect("ident", "pairs")
        self.expect("punct", "{")
        pairs = []
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            self.expect("punct", "(")
            q = self.ident()
            self.expect("punct", ":")
            wq = self.expect_int()
            self.expect("punct", ",")
            p = self.ident()
            self.expect("punct", ":")
            wp = self.expect_int()
            sign = Fraction(1)
            if self.peek().kind == "punct" and self.peek().text == ",":
                self.next()
                self.expect("ident", "sign")
                sign = self.expect_rational()
            self.expect("punct", ")")
            self.expect("punct", ";")
            pairs.append((q, wq, p, wp, sign))
        self.expect("punct", "}")
        return SigmaStmt(name, degree, pairs, pos=(t.line, t.col))

    def stmt_ham(self):
        t = self.next()
        name = self.ident()
        self.expect("ident", "on")
        target = self.ident()
        self.expect("punct", "=")
        e = self.expression()
        self.expect("punct", ";")
        return HamStmt(name, target, e, pos=(t.line, t.col))

    def stmt_form(self):
        t = self.next()
        name = self.ident()
        self.expect("ident", "on")
        target = self.ident()
        self.expect("punct", "=")
        e = self.expression()
        self.expect("punct", ";")
        return FormStmt(name, target, e, pos=(t.line, t.col))

    def stmt_algebroid(self):
        t = self.next()
        name = self.ident()
        self.expect("ident", "base")
        base = self.expect_int()
        self.expect("ident", "fiber")
        fiber = self.expect_int()
        self.expect("punct", "{")
        anchors, structures = [], []
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            key = self.ident()
            if key == "rho":
                a = self.expect_int()
                i = self.expect_int()
                self.expect("punct", "=")
                e = self.expression()
                self.expect("punct", ";")
                anchors.append((a, i, e))
            elif key == "c":
                k = self.expect_int()
                i = self.expect_int()
                j = self.expect_int()
                self.expect("punct", "=")
                e = self.expression()
                self.expect("punct", ";")
                structures.append((k, i, j, e))
            else:
                self.error(f"expected 'rho' or 'c', found {key!r}")
        self.expect("punct", "}")
        return AlgebroidStmt(name, base, fiber, anchors, structures, pos=(t.line, t.col))

    def stmt_algebra(self):
        t = self.next()
        name = self.ident()
        nxt = self.peek()
        if nxt.kind == "ident" and nxt.text in ("so3", "sl2"):
            self.next()
            self.expect("punct", ";")
            return AlgebraStmt(name, nxt.text, None, [], [], pos=(t.line, t.col))
        self.expect("ident", "dim")
        dim = self.expect_int()
        self.expect("punct", "{")
        structures, inner = [], []
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            key = self.ident()
            if key == "c":
                k = self.expect_int()
                i = self.expect_int()
                j = self.expect_int()
                self.expect("punct", "=")
                v = self.expect_rational()
                self.expect("punct", ";")
                structures.append((k, i, j, v))
            elif key == "ip":
                i = self.expect_int()
                j = self.expect_int()
                self.expect("punct", "=")
                v = self.expect_rational()
                self.expect("punct", ";")
                inner.append((i, j, v))
            else:
                self.error(f"expected 'c' or 'ip', found {key!r}")
        self.expect("punct", "}")
        return AlgebraStmt(name, None, dim, structures, inner, pos=(t.line, t.col))

    def stmt_twist(self):
        t = self.next()
        name = self.ident()
        self.expect("ident", "base")
        base = self.expect_int()
        self.expect("ident", "deg")
        degree = self.expect_int()
        self.expect("punct", "=")
        e = self.expression()
        self.expect("punct", ";")
        return TwistStmt(name, base, degree, e, pos=(t.line, t.col))

    def stmt_pair(self):
        t = self.next()
        name = self.ident()
        self.expect("ident", "base")
        base = self.expect_int()
        self.expect("ident", "deg")
        degree = self.expect_int()
        self.expect("punct", "{")
        vector, alpha = [], Num(Fraction(0))
        while not (self.peek().kind == "punct" and self.peek().text == "}"):
            key = self.ident()
            if key == "v":
                i = self.expect_int()
                self.expect("punct", "=")
                e = self.expression()
                self.expect("punct", ";")
                vector.append((i, e))
            elif key == "alpha":
                self.expect("punct", "=")
                alpha = self.expression()
                self.expect("punct", ";")
            else:
                self.error(f"expected 'v' or 'alpha', found {key!r}")
        self.expect("punct", "}")
        return PairStmt(name, base, degree, vector, alpha, pos=(t.line, t.col))

    def stmt_load(self):
        t = self.next()
        kind = self.ident()
        if kind not in ("path", "grid", "complex"):
            self.error(f"load expects path|grid|complex, found {kind!r}")
        name = self.ident()
        fn = self.expect("string").text
        self.expect("punct", ";")
        return LoadStmt(kind, name, fn, pos=(t.line, t.col))

    def stmt_save(self):
        t = self.next()
        name = self.ident()
        fn = self.expect("string").text
        self.expect("punct", ";")
        return SaveStmt(name, fn, pos=(t.line, t.col))

    def stmt_complex(self):
        t = self.next()
        name = self.ident()
        kind = self.ident()
        if kind == "torus" or kind == "cylinder":
            m1 = self.expect_int()
            m2 = self.expect_int()
            surface = (kind, m1, m2)
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
        self.expect("punct", ";")
        return ComplexStmt(name, surface, fiber, fiber2, pos=(t.line, t.col))

    def stmt_nmap(self):
        t = self.next()
        name = self.ident()
        self.expect("ident", "on")
        target = self.ident()
        dim = None
        if self.peek().kind == "ident" and self.peek().text == "dim":
            self.next()
            dim = self.expect_int()
        self.expect("punct", ";")
        return NMapStmt(name, target, dim, pos=(t.line, t.col))

    def stmt_check(self):
        t = self.next()
        name = self.ident()
        # allow hyphenated check names: boundary-lagrangian
        while self.peek().kind == "punct" and self.peek().text == "-":
            self.next()
            name += "-" + self.ident()
        args = []
        while not (self.peek().kind == "punct" and self.peek().text == ";"):
            tok = self.next()
            if tok.kind not in ("ident", "int", "string"):
                self.error(f"unexpected check argument {tok.text!r}", tok)
            args.append(tok.text)
        self.expect("punct", ";")
        return CheckStmt(name, args, pos=(t.line, t.col))


def parse(source: str) -> Program:
    """Parse DSL source into a Program; syntax errors carry positions."""
    return _Parser(tokenize(source)).program()
