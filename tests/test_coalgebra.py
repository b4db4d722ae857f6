"""Coproduct tables: orientation checks, the transpose bridge, induced structures."""

import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from zinbielkit import fuzz, trunc_integration
from zinbielkit.identities import left_zinbiel_residuals, right_zinbiel_residuals
from zinbielkit.coalgebra import (
    CoalgebraTable,
    antisym_coproduct,
    check_aux_coalgebra_identities,
    check_co_left,
    check_co_right,
    check_cocomm_coassoc,
    check_lie_coalgebra,
    coalgebra_from_entries,
    dualize,
    dualize_co,
    format_triples,
    opposite_coproduct,
    sym_coproduct,
)
from zinbielkit.tensors import Tensor3


def _by_basis(residuals):
    """Regroup algebra residuals [(triple, {k: v})] as {k: {triple: v}}."""
    out = {}
    for triple, r in residuals:
        for k, v in r.items():
            out.setdefault(k, {})[triple] = v
    return out


def test_dualize_round_trips(t3):
    c = dualize(t3)
    assert dualize_co(c).c.entries == t3.c.entries
    assert dualize(dualize_co(c)).d.entries == c.d.entries


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 4), st.integers())
def test_dualize_round_trips_random(dim, seed):
    rng = random.Random(seed)
    a = fuzz.random_algebra(rng, dim)
    assert dualize_co(dualize(a)).c.entries == a.c.entries
    c = fuzz.random_coalgebra(rng, dim)
    assert dualize(dualize_co(c)).d.entries == c.d.entries


def test_dual_of_right_model_is_right_oriented(t3):
    c = dualize(t3)
    assert check_co_right(c) == []
    viols = check_co_left(c)
    assert [v.basis_index for v in viols] == [2, 3]
    assert dict(viols[0].residual) == {(0, 0, 0): Fraction(-3, 2)}


def test_transpose_bridge_carries_residuals_exactly(l3):
    c = dualize(l3)
    got = {v.basis_index: dict(v.residual) for v in check_co_right(c)}
    assert got == _by_basis(right_zinbiel_residuals(l3))
    got = {v.basis_index: dict(v.residual) for v in check_co_left(c)}
    assert got == _by_basis(left_zinbiel_residuals(l3))


def test_transpose_bridge_across_family(algebra_family):
    for _, a in algebra_family[:60]:
        c = dualize(a)
        assert (not check_co_right(c)) == (not right_zinbiel_residuals(a))
        assert (not check_co_left(c)) == (not left_zinbiel_residuals(a))


def test_opposite_coproduct_swaps_orientations(t3):
    c = dualize(t3)
    op = opposite_coproduct(c)
    assert check_co_left(op) == []
    assert len(check_co_right(op)) == len(check_co_left(c)) == 2
    assert opposite_coproduct(op).d.entries == c.d.entries


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 3), st.integers())
def test_sym_antisym_parts(dim, seed):
    c = fuzz.random_coalgebra(random.Random(seed), dim)
    sym, anti = sym_coproduct(c), antisym_coproduct(c)
    for k in range(dim):
        base = oracles.coproduct_basis(c, k)
        flipped = {(j, i): v for (i, j), v in base.items()}
        for key in set(base) | set(flipped):
            s = base.get(key, Fraction(0)) + flipped.get(key, Fraction(0))
            d = base.get(key, Fraction(0)) - flipped.get(key, Fraction(0))
            assert oracles.coproduct_basis(sym, k).get(key, Fraction(0)) == s
            assert oracles.coproduct_basis(anti, k).get(key, Fraction(0)) == d
    assert antisym_coproduct(sym).is_zero
    assert sym_coproduct(anti).is_zero


def test_cocommutativity_of_symmetrized_dual(t3, l3):
    assert not check_cocomm_coassoc(dualize(t3)).verdict_for("cocommutative").holds
    assert check_cocomm_coassoc(sym_coproduct(dualize(t3))).holds
    # the symmetrized left table is commutative but not associative, and the
    # dual side mirrors that split exactly
    bundle = check_cocomm_coassoc(sym_coproduct(dualize(l3)))
    assert bundle.verdict_for("cocommutative").holds
    v = bundle.verdict_for("coassociative")
    assert not v.holds
    assert v.witness_text == "at e1: residual = -e0*e0*e1 + e1*e0*e0"


def test_co_jacobi_mirrors_truncation_threshold(t3, t5):
    assert check_lie_coalgebra(antisym_coproduct(dualize(t3))).holds
    bundle = check_lie_coalgebra(antisym_coproduct(dualize(t5)))
    assert bundle.verdict_for("antisymmetric").holds
    v = bundle.verdict_for("co_jacobi")
    assert not v.holds
    assert v.witness_data == {
        "basis_index": 5,
        "residual": [
            [0, 1, 2, "-1/30"],
            [0, 2, 1, "1/30"],
            [1, 0, 2, "1/30"],
            [1, 2, 0, "-1/30"],
            [2, 0, 1, "-1/30"],
            [2, 1, 0, "1/30"],
        ],
    }


def test_gap_counterexample_separates_the_notions():
    gap = oracles.gap_counterexample()
    assert check_co_right(gap) and check_co_left(gap)
    assert sym_coproduct(gap).is_zero
    assert check_cocomm_coassoc(sym_coproduct(gap)).holds
    assert check_lie_coalgebra(gap).holds


def test_aux_identities_on_dual_of_right_model(t3):
    bundle = check_aux_coalgebra_identities(dualize(t3))
    got = {v.name: v.holds for v in bundle.verdicts}
    assert got == {
        "co_right_relation_a": True,
        "co_right_relation_b": False,
        "co_left_relation_a": False,
        "co_left_relation_b": False,
        "co_derived_1": True,
        "co_derived_2": True,
        "co_derived_3": True,
    }


def test_integration_dual_coproduct_values(t3):
    c = dualize(t3)
    assert oracles.coproduct_basis(c, 0) == {}
    assert oracles.coproduct_basis(c, 2) == {(0, 1): Fraction(1), (1, 0): Fraction(1, 2)}


def test_first_only_stops_at_first_violation(t3):
    c = dualize(t3)
    assert check_co_left(c, first_only=True) == check_co_left(c)[:1]
    assert check_co_right(dualize(t3), first_only=True) == []


def test_construction_guards():
    with pytest.raises(ValueError):
        coalgebra_from_entries(2, [(0, 0, 1, 1), (0, 0, 1, 2)])
    with pytest.raises(ValueError):
        CoalgebraTable(2, Tensor3(2, 2, 1, {}))


def test_format_triples_rendering():
    assert format_triples({}) == "0"
    assert format_triples({(0, 1, 2): Fraction(-1, 30)}) == "-(1/30)e0*e1*e2"
    assert (
        format_triples({(0, 0, 0): Fraction(1), (1, 0, 2): Fraction(-2)})
        == "e0*e0*e0 - (2)e1*e0*e2"
    )


def test_indexed_coproducts_match_full_scan():
    rng = random.Random(20182)
    tables = [coalgebra_from_entries(0, []), coalgebra_from_entries(3, []),
              oracles.gap_counterexample()]
    for _ in range(60):
        tables.append(fuzz.random_coalgebra(rng, rng.randint(1, 5), rng.choice((0.1, 0.4))))
    for c in tables:
        op = opposite_coproduct(c)
        for k in range(c.dim):
            assert oracles.coproduct_basis(c, k) == oracles.reference_delta(c, k)
            assert oracles.coproduct_basis(op, k) == oracles.reference_delta(c, k, swap=True)


def test_aux_joint_scan_matches_one_scan_per_identity():
    rng = random.Random(20184)
    tables = [oracles.gap_counterexample(), dualize(trunc_integration(4, "right"))]
    for _ in range(80):
        tables.append(fuzz.random_coalgebra(rng, rng.randint(0, 5), rng.choice((0.1, 0.3))))
    tables += [opposite_coproduct(c) for c in tables]
    for c in tables:
        got = check_aux_coalgebra_identities(c)
        assert got == oracles.reference_aux_joint_scan(c)
        assert got == oracles.reference_co_bundle(c, got.kind, oracles.REFERENCE_AUX)


def _equivalence_tables(seed) -> list:
    """The zero, gap and dual T24 tables for seed None, else seeded random
    tables of dims 0-5; each with its opposite."""
    if seed is None:
        tables = [coalgebra_from_entries(0, []), oracles.gap_counterexample(),
                  dualize(trunc_integration(24, "right"))]
    else:
        rng = random.Random(seed)
        tables = [fuzz.random_coalgebra(rng, dim, density)
                  for dim in range(6) for density in (0.1, 0.3, 0.6) for _ in range(4)]
    return tables + [opposite_coproduct(c) for c in tables]


@pytest.mark.parametrize("seed", [None, 20186, 20187])
def test_co_checks_match_composition_calculus(seed):
    for c in _equivalence_tables(seed):
        for name, check in (("co_right", check_co_right), ("co_left", check_co_left)):
            assert check(c) == oracles.reference_check_co(c, name)
            assert check(c, first_only=True) == oracles.reference_check_co(c, name, True)
        for check, names in (
            (check_cocomm_coassoc, ("cocommutative", "coassociative")),
            (check_lie_coalgebra, ("antisymmetric", "co_jacobi")),
            (check_aux_coalgebra_identities, oracles.REFERENCE_AUX),
        ):
            got = check(c)
            assert got == oracles.reference_co_bundle(c, got.kind, names)


def test_debug_record_per_output_read_out(caplog, t3):
    c = dualize(t3)
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
        check_co_left(c)
        check_co_left(c, first_only=True)
        check_co_right(c)
    records = [r.getMessage() for r in caplog.records if r.name == "zinbielkit.identities"]
    assert len(records) == 3
    assert all(m.startswith("output join: 4^3 = 64 basis tuples, ") for m in records)
    # products of t3 reach e1, e2, e3; the left check fails at e2 and e3
    assert ", 3 of 4 outputs, " in records[0] and records[0].endswith(" 2 residuals")
    assert ", 2 of 4 outputs, " in records[1] and records[1].endswith(" 1 residuals")
    assert ", 3 of 4 outputs, " in records[2] and records[2].endswith(" 0 residuals")
    joined = [int(m.split(", ")[-2].split()[0]) for m in records]
    assert 0 < joined[1] < joined[0]  # the early stop skips the root of e3
