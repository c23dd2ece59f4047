"""Sparse exact elimination against sympy as an independent oracle."""

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from gq.linalg import (  # noqa: E402
    Matrix, as_matrix, collect, column_space_basis, extend_to_basis, mat_mul, mat_vec,
    nullspace, rank, rational, solve, span_contains, span_dim,
)

given, settings = hypothesis.given, hypothesis.settings


@st.composite
def sparse_int_matrices(draw, max_dim=12):
    """Nested lists of small integers, mostly zero; 0 x n and n x 0 included."""
    rows = draw(st.integers(0, max_dim))
    cols = draw(st.integers(0, max_dim))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-3, 3))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)], cols


def _sym(A, cols):
    return sympy.Matrix(len(A), cols, [x for row in A for x in row])


def _sparse(A, cols):
    return Matrix([{j: x for j, x in enumerate(row) if x} for row in A], cols)


def _dense(v, n):
    return [v.get(i, 0) for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices())
def test_rank_matches_sympy(case):
    A, cols = case
    assert rank(A) == _sym(A, cols).rank()
    assert rank(_sparse(A, cols)) == rank(A)
    if A:
        assert as_matrix(A) == _sparse(A, cols) == A


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices())
def test_nullspace_annihilated_and_complete(case):
    A, cols = case
    M = _sparse(A, cols)
    kernel = nullspace(M)
    assert len(kernel) == cols - _sym(A, cols).rank()
    assert all(not mat_vec(M, v) for v in kernel)
    assert span_dim(kernel) == len(kernel)


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices(), st.data())
def test_solve_matches_sympy_consistency(case, data):
    A, cols = case
    M = _sparse(A, cols)
    b = {i: x for i in range(len(A)) if (x := data.draw(st.integers(-2, 2)))}
    x = solve(M, b)
    augmented = sympy.Matrix.hstack(_sym(A, cols),
                                    sympy.Matrix(len(A), 1, _dense(b, len(A))))
    consistent = augmented.rank() == _sym(A, cols).rank()
    if consistent:
        assert x is not None and mat_vec(M, x) == b
    else:
        assert x is None


@settings(max_examples=150, deadline=None)
@given(sparse_int_matrices(), sparse_int_matrices())
def test_span_functions_agree_with_ranks(case1, case2):
    A, cols = case1
    B, _ = case2
    M = _sparse(A, cols)
    r = _sym(A, cols).rank()
    basis = column_space_basis(M)
    assert len(basis) == r == span_dim(basis)
    columns = M.T.rows
    assert span_contains(basis, columns)
    # vectors of the row space of B, cut or padded to the length of A's columns
    others = [{j: x for j, x in enumerate(row[:len(A)]) if x} for row in B]
    combined = [_dense(v, len(A)) for v in basis + others]
    full = sympy.Matrix(combined).rank() if combined and len(A) else 0
    chosen = extend_to_basis(basis, others)
    assert len(chosen) == full - r
    assert span_contains(basis + chosen, others)
    assert span_contains(basis, others) == (full == r)


@settings(max_examples=100, deadline=None)
@given(sparse_int_matrices(max_dim=6), st.data())
def test_mat_mul_matches_sympy(case, data):
    A, cols = case
    inner = data.draw(st.integers(0, 6))
    B = [[data.draw(st.integers(-2, 2)) for _ in range(inner)] for _ in range(cols)]
    product = mat_mul(_sparse(A, cols), _sparse(B, inner))
    want = _sym(A, cols) * sympy.Matrix(cols, inner, [x for r in B for x in r])
    assert product == Matrix([{j: int(want[i, j]) for j in range(inner) if want[i, j]}
                              for i in range(len(A))], inner)


def test_nested_list_and_sparse_type_agree():
    A = [[Fraction(1, 2), 0, 1], [1, 0, 2], [0, 0, 0]]
    M = as_matrix(A)
    assert M == A and M.shape == (3, 3)
    assert rank(A) == rank(M) == 1
    assert all(type(x) is int for x in M.rows[1].values())
    assert as_matrix([]) == Matrix([], 0) and rank([]) == 0
    assert rank([[], []]) == 0


def test_rational_coercion():
    assert rational(3) == 3 and type(rational(Fraction(4, 2))) is int
    assert rational("1/2") == Fraction(1, 2) and type(rational("-6/3")) is int
    for x in (0.5, 0.1, 1.0, None):
        with pytest.raises(TypeError):
            rational(x)
    with pytest.raises(TypeError):
        rank([[0.5]])
    with pytest.raises(TypeError):
        as_matrix([[1, 0.1]])
    assert as_matrix([["1/2", "0", "2"]]) == Matrix([{0: Fraction(1, 2), 2: 2}], 3)


def test_collect_sums_and_drops_zeros():
    assert collect([]) == {}
    half = Fraction(1, 2)
    assert collect([(1, 2), (0, 1), (1, -2), (2, half), (2, half)]) == {0: 1, 2: 1}
    assert list(collect([("b", 1), ("a", 1), ("b", 1)])) == ["b", "a"]


def test_entries_stay_int_until_division():
    M = Matrix.from_entries(2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, -1)])
    assert all(type(x) is int for v in nullspace(Matrix([{0: 1, 1: -1}], 2)) for x in v.values())
    x = solve(M, {0: 1, 1: 0})
    assert x == {0: Fraction(1, 2), 1: Fraction(1, 2)}
