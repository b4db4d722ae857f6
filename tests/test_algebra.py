"""Structure-constant tables: products, derived tables, residual scans."""

import random
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from zinbielkit.algebra import AlgebraTable, algebra_from_entries, direct_sum
from zinbielkit.audit import audit_claims
from zinbielkit.fuzz import random_algebra
from zinbielkit.identities import left_zinbiel_residuals, right_zinbiel_residuals
from zinbielkit.models import free_halfshuffle, trunc_integration

import oracles


@st.composite
def tables(draw):
    dim = draw(st.integers(1, 3))
    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, dim - 1),
                st.integers(0, dim - 1),
                st.integers(0, dim - 1),
                st.fractions(min_value=-6, max_value=6, max_denominator=6),
            ),
            max_size=6,
            unique_by=lambda e: e[:3],
        )
    )
    return algebra_from_entries(dim, entries)


def test_duplicate_entries_rejected():
    with pytest.raises(ValueError):
        algebra_from_entries(2, [(0, 0, 1, Fraction(1)), (0, 0, 1, Fraction(2))])


def test_known_right_products(t3):
    assert dict(t3.product_basis(0, 0)) == {1: Fraction(1)}
    assert dict(t3.product_basis(0, 1)) == {2: Fraction(1)}
    assert dict(t3.product_basis(1, 0)) == {2: Fraction(1, 2)}
    assert dict(t3.product_basis(1, 1)) == {3: Fraction(1, 2)}
    assert dict(t3.product_basis(3, 0)) == {}  # truncated


@given(tables())
def test_opposite_involution(a):
    assert a.opposite().opposite() == a


@given(tables())
@settings(max_examples=40)
def test_symmetrize_and_commutator_split(a):
    sym = a.symmetrize()
    com = a.commutator()
    for i in range(a.dim):
        for j in range(a.dim):
            s = dict(sym.product_basis(i, j))
            c = dict(com.product_basis(i, j))
            ij = dict(a.product_basis(i, j))
            ji = dict(a.product_basis(j, i))
            assert s == oracles._add(ij, ji)
            assert c == oracles._sub(ij, ji)


@given(tables())
@settings(max_examples=40)
def test_zinbiel_scans_match_defect_oracle(a):
    rights = {triple for triple, _ in right_zinbiel_residuals(a)}
    lefts = {triple for triple, _ in left_zinbiel_residuals(a)}
    for i in range(a.dim):
        for j in range(a.dim):
            for k in range(a.dim):
                assert (bool(oracles.right_zinbiel_defect(a, i, j, k))
                        == ((i, j, k) in rights))
                assert (bool(oracles.left_zinbiel_defect(a, i, j, k))
                        == ((i, j, k) in lefts))


_AUDIT_ORACLES = {
    "right_zinbiel": oracles.right_zinbiel_defect,
    "left_zinbiel": oracles.left_zinbiel_defect,
    "center_symmetric": oracles.center_defect,
}


@given(tables())
@settings(max_examples=40)
def test_audit_failures_match_defect_oracles(a):
    report = audit_claims(a, "right", claims=list(_AUDIT_ORACLES))
    for name, defect in _AUDIT_ORACLES.items():
        verdict = report.verdict_for(name)
        failures = [] if verdict.holds else verdict.witness_data["failures"]
        got = {
            tuple(f["tuple"]): {k: Fraction(v) for k, v in f["residual"]} for f in failures
        }
        want = {}
        for triple in product(range(a.dim), repeat=3):
            value = defect(a, *triple)
            if value:
                want[triple] = value
        assert got == want, name


def test_tables_that_pass_as_right_zinbiel_are_nilpotent():
    # A finite-dimensional Zinbiel algebra in characteristic 0 is nilpotent
    # (Dzhumadil'daev and Tulenbaev, "Nilpotency of Zinbiel algebras", 2005),
    # so A^(dim+1) = 0 on every table the engine passes.  A false HOLDS on a
    # table that is not nilpotent would fail here.
    passing = [trunc_integration(n, "right") for n in range(1, 8)]
    passing += [free_halfshuffle(2, 3), free_halfshuffle(3, 2)]
    for a in passing:
        assert right_zinbiel_residuals(a) == []
        assert oracles.algebra_powers(a, a.dim + 1)[-1] == 0
    # not vacuous: none of these random tables is nilpotent
    rng = random.Random(2005)
    assert all(oracles.algebra_powers(random_algebra(rng, 3), 4)[-1] for _ in range(20))


def test_mult_matrices_are_adjoint_views(t3):
    rng = random.Random(77)
    for table in (t3, *(random_algebra(rng, 3, 0.5) for _ in range(20))):
        for i in range(table.dim):
            L = table.left_mult_matrix(i)
            R = table.right_mult_matrix(i)
            assert (L.rows, L.cols, R.rows, R.cols) == (table.dim,) * 4
            for j in range(table.dim):
                column = table.product_basis(i, j)
                assert {r: v for (r, c), v in L.entries.items() if c == j} == column
                column = table.product_basis(j, i)
                assert {r: v for (r, c), v in R.entries.items() if c == j} == column


def test_direct_sum_blocks(t3):
    other = algebra_from_entries(2, [(0, 0, 1, Fraction(3))])
    s = direct_sum(t3, other)
    assert s.dim == t3.dim + 2
    assert dict(s.product_basis(0, 1)) == dict(t3.product_basis(0, 1))
    assert dict(s.product_basis(t3.dim, t3.dim)) == {t3.dim + 1: Fraction(3)}
    assert dict(s.product_basis(0, t3.dim)) == {}


def test_labels_default_and_custom():
    a = algebra_from_entries(2, [])
    assert a.basis_labels == ("e0", "e1")
    b = algebra_from_entries(2, [], ("u", "v"))
    assert b.basis_labels == ("u", "v")
    with pytest.raises(ValueError):
        algebra_from_entries(2, [], ("only_one",))
