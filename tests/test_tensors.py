"""Exact sparse linear algebra: vectors, matrices, rank."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from zinbielkit.tensors import (
    DimensionMismatch,
    Matrix,
    Tensor3,
    Vector,
    format_scalar,
    parse_scalar,
    rank,
)

scalars = st.fractions(
    min_value=-50, max_value=50, max_denominator=12
)


@given(scalars)
def test_scalar_text_round_trip(q):
    assert parse_scalar(format_scalar(q)) == q


def test_parse_scalar_rejects_junk():
    for bad in ("", "1/0", "a/b", "1.5", "--2", "1/ 2/3"):
        with pytest.raises(ValueError):
            parse_scalar(bad)


def test_vector_zero_entries_are_dropped():
    v = Vector(3, {0: Fraction(1), 2: Fraction(0)})
    assert dict(v.items()) == {0: Fraction(1)}
    assert (v - v).is_zero


def test_vector_dim_guard():
    with pytest.raises(DimensionMismatch):
        Vector(2, {5: Fraction(1)})
    with pytest.raises(DimensionMismatch):
        Vector(2, {0: Fraction(1)}) + Vector(3, {0: Fraction(1)})


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


@given(matrices())
def test_rank_bounds_and_transpose_invariance(m):
    r = rank(m)
    assert 0 <= r <= min(m.rows, m.cols)
    assert rank(m.transpose()) == r


def test_rank_known_values():
    eye = Matrix.identity(3)
    assert rank(eye) == 3
    assert rank(Matrix.zero(4, 2)) == 0
    singular = Matrix(2, 2, {(0, 0): Fraction(1), (0, 1): Fraction(2),
                            (1, 0): Fraction(2), (1, 1): Fraction(4)})
    assert rank(singular) == 1


def test_matmul_against_dense():
    a = Matrix(2, 3, {(0, 0): Fraction(1), (0, 2): Fraction(2), (1, 1): Fraction(-3)})
    b = Matrix(3, 2, {(0, 1): Fraction(1, 2), (2, 0): Fraction(5), (1, 0): Fraction(1)})
    prod = a @ b
    dense = [[Fraction(0)] * 2 for _ in range(2)]
    for i in range(2):
        for j in range(2):
            for k in range(3):
                dense[i][j] += a.get(i, k) * b.get(k, j)
    for i in range(2):
        for j in range(2):
            assert prod.get(i, j) == dense[i][j]


def test_apply_matches_column_combination():
    m = Matrix(3, 2, {(0, 0): Fraction(2), (2, 1): Fraction(1, 3)})
    v = Vector(2, {0: Fraction(1), 1: Fraction(6)})
    out = m.apply(v)
    want = m.column(0).scale(Fraction(1)) + m.column(1).scale(Fraction(6))
    assert out == want


def test_tensor3_shape_guard():
    Tensor3(2, 2, 2, {(1, 1, 1): Fraction(1)})
    with pytest.raises(DimensionMismatch):
        Tensor3(2, 2, 2, {(2, 0, 0): Fraction(1)})


def _random_sparse(rng, rows, cols, density):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return Matrix(rows, cols, entries)


def test_indexed_kernels_match_full_scans():
    rng = random.Random(20181)
    # column 1 is minus column 0, so {0: x, 1: x} cancels to zero
    cancel = Matrix(2, 3, {(0, 0): Fraction(1, 2), (0, 1): Fraction(-1, 2), (1, 2): Fraction(4)})
    cases = [
        (cancel, {0: Fraction(3), 1: Fraction(3)}),
        (cancel, {}),
        (Matrix.zero(3, 3), {0: Fraction(1)}),
        (Matrix.zero(0, 0), {}),
    ]
    for _ in range(300):
        rows, cols = rng.randint(0, 5), rng.randint(0, 5)
        m = _random_sparse(rng, rows, cols, rng.choice((0.1, 0.3, 0.7)))
        coeffs = {c: Fraction(rng.randint(-2, 2)) for c in range(cols) if rng.random() < 0.5}
        cases.append((m, coeffs))
    for m, coeffs in cases:
        assert m.apply_raw(coeffs) == oracles.reference_apply(m, coeffs)
        for c in range(m.cols):
            assert m.column(c).entries == oracles.reference_apply(m, {c: Fraction(1)})
    assert cancel.apply_raw({0: Fraction(3), 1: Fraction(3)}) == {}
    for _ in range(200):
        n, k, m = (rng.randint(0, 4) for _ in range(3))
        a, b = _random_sparse(rng, n, k, 0.4), _random_sparse(rng, k, m, 0.4)
        assert (a @ b).entries == oracles.reference_matmul(a, b)
