"""Exact sparse linear algebra: vectors, matrices, rank."""

import operator
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from zinbielkit.bialgebra import rank
from zinbielkit.serialization import parse_scalar
from zinbielkit.tensors import (
    DimensionMismatch,
    Matrix,
    Tensor3,
    Vector,
    format_scalar,
)

scalars = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


@given(scalars)
def test_scalar_text_round_trip(q):
    assert parse_scalar(format_scalar(q)) == q


def test_parse_scalar_rejects_junk():
    for bad in ("", "1/0", "a/b", "1.5", "--2", "1/ 2/3", "3\n", "-1/2\n"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_vector_zero_entries_are_dropped():
    v = Vector(3, {0: Fraction(1), 2: Fraction(0)})
    assert v.entries == {0: Fraction(1)}


def test_vector_dim_guard():
    with pytest.raises(DimensionMismatch):
        Vector(2, {5: Fraction(1)})


@st.composite
def matrices(draw, rows=None, cols=None):
    r = rows if rows is not None else draw(st.integers(1, 4))
    c = cols if cols is not None else draw(st.integers(1, 4))
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)),
            scalars,
            max_size=6,
        )
    )
    return Matrix(r, c, entries)


@given(matrices())
def test_transpose_involution(m):
    assert m.transpose().transpose() == m


@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_matrix_sum_and_difference_are_entrywise(rows, cols, data):
    a, b = data.draw(matrices(rows, cols)), data.draw(matrices(rows, cols))
    keys = a.entries.keys() | b.entries.keys()
    for op in (operator.add, operator.sub):
        want = {k: op(a.entries.get(k, 0), b.entries.get(k, 0)) for k in keys}
        assert op(a, b) == Matrix(rows, cols, want)
        assert all(op(a, b).entries.values())


def test_matrix_sum_and_difference_reject_a_shape_mismatch():
    for op in (operator.add, operator.sub):
        with pytest.raises(DimensionMismatch):
            op(Matrix.zero(2, 3), Matrix.zero(3, 2))
        with pytest.raises(DimensionMismatch):
            op(Matrix.zero(2, 3), Matrix.zero(2, 2))


@given(matrices())
def test_rank_bounds_and_transpose_invariance(m):
    r = rank(m)
    assert 0 <= r <= min(m.rows, m.cols)
    assert rank(m.transpose()) == r


@st.composite
def low_rank_matrices(draw):
    """A rows x cols matrix, each side 0 to 5, drawn as the product of a
    rows x k and a k x cols factor, so that most are rank-deficient."""
    rows, cols, k = (draw(st.integers(0, 5)) for _ in range(3))
    left = [[draw(scalars) for _ in range(k)] for _ in range(rows)]
    right = [[draw(scalars) for _ in range(cols)] for _ in range(k)]
    return Matrix(rows, cols, {
        (r, c): sum((left[r][t] * right[t][c] for t in range(k)), Fraction(0))
        for r in range(rows) for c in range(cols)
    })


@settings(max_examples=150, deadline=None)
@given(st.one_of(matrices(), low_rank_matrices()))
def test_rank_matches_sympy(m):
    assert rank(m) == oracles.reference_rank(m)


def test_rank_known_values():
    eye = Matrix(3, 3, {(0, 0): Fraction(1), (1, 1): Fraction(1), (2, 2): Fraction(1)})
    assert rank(eye) == 3
    assert rank(Matrix.zero(4, 2)) == 0
    singular = Matrix(2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2),
                            (1, 0): Fraction(2), (1, 1): Fraction(4)})
    assert rank(singular) == 1


def test_tensor3_shape_guard():
    Tensor3(2, 2, 2, {(1, 1, 1): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        Tensor3(2, 2, 2, {(2, 0, 0): Fraction(1)})
