"""Model generators against the symbolic and combinatorial oracles."""

from fractions import Fraction

import pytest

from zinbielkit.identities import catalog, holds
from zinbielkit.models import free_halfshuffle, trivial_models, trunc_integration

import oracles


@pytest.mark.parametrize("n", range(6))
def test_right_table_matches_integration_oracle(n):
    t = trunc_integration(n, "right")
    for i in range(n + 1):
        for j in range(n + 1):
            assert dict(t.product_basis(i, j)) == oracles.right_integration_product(i, j, n)


@pytest.mark.parametrize("n", range(6))
def test_left_table_matches_integration_oracle(n):
    t = trunc_integration(n, "left")
    for i in range(n + 1):
        for j in range(n + 1):
            assert dict(t.product_basis(i, j)) == oracles.left_integration_product(i, j, n)


def test_degree_grading():
    # right: target degree i+j+1; left: i+j.  Entrywise, no exceptions.
    for n in range(9):
        for (i, j, k), _ in trunc_integration(n, "right").c.entries.items():
            assert k == i + j + 1
        for (i, j, k), _ in trunc_integration(n, "left").c.entries.items():
            assert k == i + j


def test_monomial_labels():
    t = trunc_integration(3, "right")
    assert t.basis_labels == ("1", "X", "X^2", "X^3")


def test_orientation_facts():
    cat = catalog()
    for n in range(9):
        assert holds(trunc_integration(n, "right"), cat["right_zinbiel"])
    # the left closed form keeps the constant row productive (e_i o e_0 = e_i),
    # which breaks both orientations at the (e_i, e_0, e_0) corner for n >= 1
    for n in range(1, 9):
        left = trunc_integration(n, "left")
        assert not holds(left, cat["left_zinbiel"])
        assert not holds(left, cat["right_zinbiel"])
    assert holds(trunc_integration(0, "left"), cat["left_zinbiel"])


def test_left_failure_set_is_exactly_the_constant_corner():
    from zinbielkit.identities import left_zinbiel_residuals

    for n in range(1, 9):
        got = left_zinbiel_residuals(trunc_integration(n, "left"))
        assert [(triple, residual) for triple, residual in got] == [
            ((i, 0, 0), {i: Fraction(1)}) for i in range(1, n + 1)
        ]


def test_trunc_rejects_bad_args():
    with pytest.raises(ValueError):
        trunc_integration(-1, "right")
    with pytest.raises(ValueError):
        trunc_integration(2, "sideways")


def test_free_table_matches_shuffle_oracle(free23):
    words = [tuple(lbl) for lbl in free23.basis_labels]
    index = {w: i for i, w in enumerate(words)}
    for u in words:
        for v in words:
            got = {words[k]: c for k, c in free23.product_basis(index[u], index[v]).items()}
            want = {w: Fraction(c) for w, c in oracles.halfshuffle_product(u, v, 3).items()}
            assert got == want, (u, v)


def test_free_known_products():
    f = free_halfshuffle(1, 3)
    a, aa, aaa = 0, 1, 2
    assert dict(f.product_basis(a, a)) == {aa: Fraction(1)}
    assert dict(f.product_basis(a, aa)) == {aaa: Fraction(2)}
    assert dict(f.product_basis(aa, a)) == {aaa: Fraction(1)}
    assert dict(f.product_basis(aa, aa)) == {}  # length overflow


def test_free_orientation_is_right():
    cat = catalog()
    for letters, max_len in [(1, 3), (1, 4), (2, 3), (2, 4)]:
        f = free_halfshuffle(letters, max_len)
        assert holds(f, cat["right_zinbiel"])
        if f.dim > 1:
            assert not holds(f, cat["left_zinbiel"])


def test_free_basis_order_and_guards():
    f = free_halfshuffle(2, 2)
    assert f.basis_labels == ("a", "b", "aa", "ab", "ba", "bb")
    with pytest.raises(ValueError):
        free_halfshuffle(0, 2)
    with pytest.raises(ValueError):
        free_halfshuffle(1, 0)


def test_trivial_models_contract():
    named = dict(trivial_models())
    assert set(named) == {"zero:0", "zero:1", "zero:2", "zero:3", "idempotent:1"}
    cat = catalog()
    for d in range(4):
        z = named[f"zero:{d}"]
        assert all(holds(z, ident) for ident in cat.values())
    idem = named["idempotent:1"]
    assert not holds(idem, cat["right_zinbiel"])
    assert not holds(idem, cat["left_zinbiel"])
    assert oracles.right_zinbiel_defect(idem, 0, 0, 0) == {0: Fraction(-1)}
