"""Exact sparse linear algebra over the rationals.

This module owns the exact sparse-vector format: a vector is a dict
`{index: nonzero entry}`, summed from pairs by `collect`, and a `Matrix` is
its shape plus one such dict `{column: nonzero entry}` per row. Zeros are
never stored. Scalars enter through `rational`, which rejects floats;
entries stay Python ints as built and become `Fraction`s only where
`RowReducer` divides by a pivot other than +-1. The matrices coming from
simplicial complexes and coordinate charts are overwhelmingly sparse, and
exact ranks on a few hundred dimensions are only tractable that way. Nested
lists of rows are converted once, by `as_matrix`, where they enter the package.
"""

from __future__ import annotations

from fractions import Fraction


def rational(x):
    """An exact rational: an `int` when integral, a `Fraction` otherwise.

    Accepts `int`, `str` (such as "1/2") and `Fraction`; anything else, a
    float included, raises `TypeError`.
    """
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


def collect(pairs) -> dict:
    """Sum (index, entry) pairs into a vector without zero entries.

    Polynomial terms (indexed by monomial key), Lie-algebra vectors and
    simplicial chains are all summed here; `Matrix.from_entries`, `_axpy`
    and `mat_mul` keep inline loops because they are on the hot path.
    """
    out = {}
    for key, c in pairs:
        if key in out:
            c += out[key]
        out[key] = c
    return {k: c for k, c in out.items() if c}


class Matrix:
    """rows: one dict {column: nonzero entry} per row; ncols: column count."""

    __slots__ = ("rows", "ncols")

    def __init__(self, rows, ncols: int):
        self.rows = rows
        self.ncols = ncols

    @classmethod
    def zero(cls, nrows: int, ncols: int) -> "Matrix":
        return cls([{} for _ in range(nrows)], ncols)

    @classmethod
    def from_entries(cls, nrows: int, ncols: int, entries) -> "Matrix":
        """Sum of (row, column, value) entries; repeated positions add up."""
        rows = [{} for _ in range(nrows)]
        for i, j, x in entries:
            row = rows[i]
            s = row.get(j, 0) + x
            if s:
                row[j] = s
            else:
                row.pop(j, None)
        return cls(rows, ncols)

    @property
    def shape(self):
        return len(self.rows), self.ncols

    @property
    def T(self) -> "Matrix":
        cols = [{} for _ in range(self.ncols)]
        for i, row in enumerate(self.rows):
            for j, x in row.items():
                cols[j][i] = x
        return Matrix(cols, len(self.rows))

    def __neg__(self) -> "Matrix":
        return Matrix([{j: -x for j, x in row.items()} for row in self.rows], self.ncols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} plus {other.shape}")
        return Matrix([_axpy(a, 1, b) for a, b in zip(self.rows, other.rows)], self.ncols)

    def __eq__(self, other) -> bool:
        """Entrywise; a nested list of rows compares as the matrix it converts to."""
        if isinstance(other, list):
            other = as_matrix(other)
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.shape == other.shape and self.rows == other.rows

    __hash__ = None

    def __repr__(self) -> str:
        return f"Matrix({self.rows!r}, {self.ncols})"


def as_matrix(A) -> Matrix:
    """A `Matrix` as is, or a nested list of rows converted to one."""
    if isinstance(A, Matrix):
        return A
    rows = [{j: x for j, x in enumerate(map(rational, row)) if x} for row in A]
    return Matrix(rows, len(A[0]) if A else 0)


def _axpy(y: dict, f, x: dict) -> dict:
    """The vector y + f x, as a new dict."""
    out = dict(y)
    for j, v in x.items():
        s = out.get(j, 0) + f * v
        if s:
            out[j] = s
        else:
            del out[j]
    return out


def dot(u: dict, v: dict):
    """Sum of u[j] * v[j] over the indices the two vectors share."""
    if len(v) < len(u):
        u, v = v, u
    return sum(x * v[j] for j, x in u.items() if j in v)


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    ra, ca = A.shape
    rb, cb = B.shape
    if ca != rb:
        raise ValueError(f"shape mismatch: {ra}x{ca} times {rb}x{cb}")
    out = []
    for row in A.rows:
        acc = {}
        for k, a in row.items():
            for j, b in B.rows[k].items():
                acc[j] = acc.get(j, 0) + a * b
        out.append({j: x for j, x in acc.items() if x})
    return Matrix(out, cb)


def mat_vec(A: Matrix, v: dict) -> dict:
    out = {}
    for i, row in enumerate(A.rows):
        s = dot(row, v)
        if s:
            out[i] = s
    return out


class RowReducer:
    """Incremental reduced row echelon basis over sparse rows."""

    def __init__(self):
        self.rows = {}  # pivot column -> reduced row dict (pivot entry == 1)

    def reduce(self, vec: dict) -> dict:
        # each stored row is zero at every other pivot column, so the
        # coefficients to eliminate are read off `vec` as given
        out = vec
        for col, f in vec.items():
            pivot_row = self.rows.get(col)
            if pivot_row is not None:
                out = _axpy(out, -f, pivot_row)
        return dict(out) if out is vec else out

    def add(self, vec: dict) -> bool:
        """Insert a vector; True if it enlarged the span."""
        red = self.reduce(vec)
        if not red:
            return False
        pivot = min(red)
        p = red[pivot]
        if p == -1:
            red = {j: -x for j, x in red.items()}
        elif p != 1:
            inv = 1 / Fraction(p)
            red = {j: x * inv for j, x in red.items()}
        # back-substitute into existing rows to stay fully reduced
        for pc, row in self.rows.items():
            f = row.get(pivot)
            if f:
                self.rows[pc] = _axpy(row, -f, red)
        self.rows[pivot] = red
        return True

    def contains(self, vec: dict) -> bool:
        return not self.reduce(vec)

    @property
    def rank(self) -> int:
        return len(self.rows)


def _reducer(vectors) -> RowReducer:
    rr = RowReducer()
    for v in vectors:
        rr.add(v)
    return rr


def rank(A) -> int:
    """Rank of a `Matrix` or of a nested list of rows."""
    return _reducer(as_matrix(A).rows).rank


def nullspace(A: Matrix):
    """Basis of the kernel, as vectors: one per non-pivot column, ascending."""
    rr = _reducer(A.rows)
    basis = {c: {c: 1} for c in range(A.ncols) if c not in rr.rows}
    for p, row in rr.rows.items():
        for j, x in row.items():
            if j != p:
                basis[j][p] = -x
    return list(basis.values())


def column_space_basis(A: Matrix):
    """Independent subset of the columns, as vectors."""
    rr = RowReducer()
    return [col for col in A.T.rows if rr.add(col)]


def span_dim(vectors) -> int:
    return _reducer(vectors).rank


def span_contains(vs, ws) -> bool:
    """Span of vs contains every w in ws."""
    rr = _reducer(vs)
    return all(rr.contains(w) for w in ws)


def extend_to_basis(inner, outer):
    """Vectors from `outer` extending span(inner) to span(inner + outer)."""
    rr = _reducer(inner)
    return [w for w in outer if rr.add(w)]


def solve(A: Matrix, b: dict):
    """One solution x of A x = b, as a vector, or None."""
    cols = A.ncols
    rr = RowReducer()
    for i, row in enumerate(A.rows):
        if i in b:
            row = {**row, cols: b[i]}
        rr.add(row)
    if cols in rr.rows:
        return None
    return {p: row[cols] for p, row in rr.rows.items() if cols in row}
