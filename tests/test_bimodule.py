"""Bimodule axioms, derived relations, subadjacent maps, semidirect sums."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from zinbielkit import fuzz
from zinbielkit.algebra import algebra_from_entries
from zinbielkit.identities import right_zinbiel_residuals
from zinbielkit.bimodule import (
    Bimodule,
    check_bimodule,
    check_derived_relations,
    induced_subadjacent_map,
    regular_bimodule,
    relation_verdicts,
    semidirect_sum,
    zero_bimodule,
)
from zinbielkit.tensors import DimensionMismatch, Matrix


def test_regular_bimodules_over_passing_bases_satisfy_axioms(t3, t5, free23):
    for a in (t3, t5, free23):
        assert check_bimodule(regular_bimodule(a)) == []


def test_axiom_residuals_are_fractions(l3):
    violations = check_bimodule(regular_bimodule(l3))
    values = [v for violation in violations for v in violation.residual.entries.values()]
    assert values and all(type(v) is Fraction for v in values)


def test_zero_bimodule_satisfies_axioms_over_any_base(l3, standard_models):
    # zero maps kill every axiom term, even when the base is not Zinbiel
    assert check_bimodule(zero_bimodule(l3, 3)) == []
    for _, a in standard_models:
        assert check_bimodule(zero_bimodule(a, 2)) == []


def test_regular_axioms_track_base_orientation(algebra_family):
    # the left-composition axiom on the regular bimodule IS the algebra identity
    for _, a in algebra_family[:80]:
        base_ok = not right_zinbiel_residuals(a)
        assert (not check_bimodule(regular_bimodule(a))) == base_ok


def test_regular_over_left_table_fails_with_ordered_violations(l3):
    viols = check_bimodule(regular_bimodule(l3))
    assert viols
    assert viols[0].axiom == "left_composition"
    assert viols[0].pair == (0, 1)
    assert not viols[0].residual.is_zero
    order = ("left_composition", "mixed_composition", "right_composition")
    keys = [(order.index(v.axiom), v.pair) for v in viols]
    assert keys == sorted(keys)
    assert {v.axiom for v in viols} == set(order)


def _reference_rows(b):
    return [tuple(v) for v in check_bimodule(b)], oracles.reference_check_bimodule(b)


def test_check_matches_reference(bimodule_family):
    rng = random.Random(fuzz.DEFAULT_SEED)
    randoms = [fuzz.random_bimodule(rng, rng.randint(0, 3), rng.randint(0, 3)) for _ in range(300)]
    failing = 0
    for b in [b for _, b in bimodule_family] + randoms:
        got, want = _reference_rows(b)
        assert got == want
        failing += bool(want)
    assert failing > 100


def test_mixed_blocks_cancel_to_no_violation():
    # zero base product, l = 0, r_0 = E_10, r_1 = E_01: right_composition
    # fails, while the two blocks that make up mixed_composition cancel
    zero = Matrix.zero(2, 2)
    r = (Matrix(2, 2, {(1, 0): Fraction(1)}), Matrix(2, 2, {(0, 1): Fraction(1)}))
    b = Bimodule(algebra_from_entries(2, []), 2, (zero, zero), r)
    got, want = _reference_rows(b)
    assert got == want
    assert [(axiom, pair) for axiom, pair, _ in got] == [
        ("right_composition", (0, 1)),
        ("right_composition", (1, 0)),
    ]
    assert all(not residual.is_zero for _, _, residual in got)


def test_single_entry_perturbation_is_detected(t3):
    base = regular_bimodule(t3)
    for touch_left in (True, False):
        maps = list(base.left_maps if touch_left else base.right_maps)
        bumped = dict(maps[1].entries)
        bumped[(0, 0)] = bumped.get((0, 0), Fraction(0)) + 1
        maps[1] = Matrix(t3.dim, t3.dim, bumped)
        b = (
            Bimodule(t3, t3.dim, tuple(maps), base.right_maps)
            if touch_left
            else Bimodule(t3, t3.dim, base.left_maps, tuple(maps))
        )
        assert check_bimodule(b)


def test_derived_relations_fail_on_the_regular_model(t5):
    rep = check_derived_relations(regular_bimodule(t5))
    assert not rep.vacuous
    by_name = {v.name: v for v in rep.relations}
    assert set(by_name) == {
        "left_of_product_l_then_r",
        "left_of_product_r_then_l",
        "right_maps_commute",
    }

    v = by_name["left_of_product_l_then_r"]
    assert not v.holds
    assert v.witness_data["tuple"] == [0, 0, 1]
    assert v.witness_data["lhs"] == [[3, "1/2"]]
    assert v.witness_data["rhs"] == [[3, "1/3"]]

    v = by_name["left_of_product_r_then_l"]
    assert not v.holds
    assert v.witness_data["tuple"] == [0, 0, 0]
    assert v.witness_data["lhs"] == [[2, "1/2"]]
    assert v.witness_data["rhs"] == [[2, "1"]]

    v = by_name["right_maps_commute"]
    assert not v.holds
    assert v.witness_data["tuple"] == [0, 1, 0]
    assert v.witness_data["lhs"] == [[3, "1/3"]]
    assert v.witness_data["rhs"] == [[3, "1/2"]]


def test_derived_relations_match_reference(bimodule_family):
    rng = random.Random(fuzz.DEFAULT_SEED)
    randoms = [fuzz.random_bimodule(rng, rng.randint(0, 3), rng.randint(0, 3)) for _ in range(300)]
    failing = 0
    for b in [b for _, b in bimodule_family] + randoms:
        want = oracles.reference_check_derived_relations(b)
        report = check_derived_relations(b)
        assert report.relations == (() if report.vacuous else want)
        # The relation scans themselves, also where the report skips them.
        assert relation_verdicts(semidirect_sum(b), b.base.dim) == want
        failing += not all(v.holds for v in want)
    assert failing > 100


def test_derived_relations_hold_on_zero_bimodule(t3):
    rep = check_derived_relations(zero_bimodule(t3, 2))
    assert not rep.vacuous
    assert all(v.holds for v in rep.relations)


def test_derived_relations_vacuous_when_axioms_fail(l3):
    assert check_derived_relations(regular_bimodule(l3)).vacuous


def test_subadjacent_maps_are_left_minus_right(t5):
    b = regular_bimodule(t5)
    rep = induced_subadjacent_map(b)
    assert len(rep.maps) == t5.dim
    for i, m in enumerate(rep.maps):
        assert (m - (b.left_maps[i] - b.right_maps[i])).is_zero


def test_subadjacent_representation_fails_on_regular_model(t5):
    rep = induced_subadjacent_map(regular_bimodule(t5))
    v = rep.representation
    assert not v.holds
    assert v.witness_data["tuple"] == [0, 1, 2]
    assert v.witness_data["lhs"] == []
    assert v.witness_data["rhs"] == [[5, "-1/30"]]


def _sparse_bimodules():
    """Bimodules over small bases (zero ones of dims 0 and 2, and e0 e1 = e2,
    whose commutator is not zero) on modules of dims 0 to 3, whose actions
    hold one or two entries, half of them on the last basis vectors."""
    rng = random.Random(fuzz.DEFAULT_SEED)

    def pick(k):
        return k - 1 if rng.random() < 0.5 else rng.randrange(k)

    bases = [
        algebra_from_entries(0, []),
        algebra_from_entries(2, []),
        algebra_from_entries(3, [(0, 1, 2, Fraction(1))]),
    ]
    out = []
    for base in bases:
        for v_dim in range(4):
            for entries in (1, 1, 2, 2):
                maps = ([{} for _ in range(base.dim)], [{} for _ in range(base.dim)])
                for _ in range(entries if base.dim and v_dim else 0):
                    family = maps[rng.randrange(2)]
                    family[pick(base.dim)][(pick(v_dim), pick(v_dim))] = Fraction(rng.choice((1, -1)))
                left, right = (tuple(Matrix(v_dim, v_dim, m) for m in family) for family in maps)
                out.append(Bimodule(base, v_dim, left, right))
    return out


def test_sparse_bimodules_fail_late():
    witnesses = [induced_subadjacent_map(b).representation.witness_data for b in _sparse_bimodules()]
    assert any(w and w["tuple"] != [0, 0, 0] for w in witnesses)


def test_subadjacent_map_matches_reference(bimodule_family):
    for b in [b for _, b in bimodule_family] + _sparse_bimodules():
        assert induced_subadjacent_map(b) == oracles.reference_induced_subadjacent_map(b)


def test_subadjacent_representation_holds_on_zero_bimodule(t3):
    assert induced_subadjacent_map(zero_bimodule(t3, 2)).representation.holds


def test_semidirect_sum_layout(t3):
    b = regular_bimodule(t3)
    s = semidirect_sum(b)
    n = t3.dim
    assert s.dim == 2 * n
    assert s.basis_labels == t3.basis_labels + ("v0", "v1", "v2", "v3")
    for i in range(n):
        for j in range(n):
            assert s.product_basis(i, j) == t3.product_basis(i, j)
            assert s.product_basis(n + i, n + j) == {}
    # mixed blocks are the two actions, shifted into the module slots
    for i in range(n):
        for beta in range(n):
            left = {n + k: v for (k, c), v in b.left_maps[i].entries.items() if c == beta}
            right = {n + k: v for (k, c), v in b.right_maps[i].entries.items() if c == beta}
            assert s.product_basis(i, n + beta) == left
            assert s.product_basis(n + beta, i) == right


def test_semidirect_inherits_identity_exactly_when_axioms_hold(t3, l3):
    assert right_zinbiel_residuals(semidirect_sum(regular_bimodule(t3))) == []
    assert right_zinbiel_residuals(semidirect_sum(zero_bimodule(t3, 2))) == []
    assert right_zinbiel_residuals(semidirect_sum(regular_bimodule(l3)))


def test_semidirect_matches_axioms_across_family(bimodule_family):
    for _, b in bimodule_family[:60]:
        axioms_ok = not check_bimodule(b)
        base_ok = not right_zinbiel_residuals(b.base)
        sum_ok = not right_zinbiel_residuals(semidirect_sum(b))
        assert sum_ok == (axioms_ok and base_ok)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 3), st.integers(0, 3), st.integers())
def test_random_bimodule_semidirect_agreement(base_dim, v_dim, seed):
    rng = random.Random(seed)
    b = fuzz.random_bimodule(rng, base_dim, v_dim)
    axioms_ok = not check_bimodule(b)
    base_ok = not right_zinbiel_residuals(b.base)
    assert (not right_zinbiel_residuals(semidirect_sum(b))) == (axioms_ok and base_ok)


def test_constructor_rejects_bad_shapes(t3):
    good = Matrix.zero(2, 2)
    with pytest.raises(DimensionMismatch):
        Bimodule(t3, 2, (good,) * 3, (good,) * 4)
    with pytest.raises(DimensionMismatch):
        Bimodule(t3, 2, (Matrix.zero(2, 3),) * 4, (good,) * 4)
