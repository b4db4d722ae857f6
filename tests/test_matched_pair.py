"""Matched pairs: compatibility checks, the double, induced pair structures."""

import itertools
import logging
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from zinbielkit import fuzz, matched_pair
from zinbielkit.algebra import algebra_from_entries, direct_sum
from zinbielkit.bialgebra import BialgebraCandidate, dual_reps
from zinbielkit.identities import right_zinbiel_residuals
from zinbielkit.bimodule import regular_bimodule, semidirect_sum
from zinbielkit.matched_pair import (
    MatchedPair,
    check_commassoc_matched_pair,
    check_lie_matched_pair,
    check_matched_pair,
    double,
    format_violation,
    induced_commassoc_pair,
    induced_lie_pair,
    zero_matched_pair,
)
from zinbielkit.models import trunc_integration
from zinbielkit.tensors import DimensionMismatch, Matrix


@pytest.fixture(scope="module")
def t2():
    from zinbielkit import trunc_integration

    return trunc_integration(2, "right")


def _regular_as_pair(a):
    b = regular_bimodule(a)
    return b, fuzz.bimodule_as_pair(b)


def test_zero_pair_passes_and_doubles_to_direct_sum(t3, t2):
    mp = zero_matched_pair(t3, t2)
    assert check_matched_pair(mp) == []
    d = double(mp)
    assert d.dim == t3.dim + t2.dim
    assert d.basis_labels == t3.basis_labels + ("f0", "f1", "f2")
    assert d.c.entries == direct_sum(t3, t2).c.entries
    assert right_zinbiel_residuals(d) == []


def test_regular_bimodule_as_pair_doubles_to_semidirect(t3):
    b, mp = _regular_as_pair(t3)
    assert check_matched_pair(mp) == []
    assert double(mp).c.entries == semidirect_sum(b).c.entries


def test_sum_tables_match_the_written_out_product(standard_models, matched_pair_family,
                                                   bimodule_family):
    # every block of each sum table, and its labels, against the product
    # (x+a)(y+b) written out on each pair of basis vectors
    for _, mp in matched_pair_family[:40]:
        labels = [f"f{k}" for k in range(mp.b.dim)]
        want = oracles.reference_sum_table(mp.a, mp.b, labels, mp.la, mp.ra, mp.lb, mp.rb)
        assert double(mp) == want
    for _, b in bimodule_family[:40]:
        zero, labels = algebra_from_entries(b.v_dim, []), [f"v{k}" for k in range(b.v_dim)]
        want = oracles.reference_sum_table(b.base, zero, labels, b.left_maps, b.right_maps)
        assert semidirect_sum(b) == want
    models = [table for _, table in standard_models[:12]]
    for a, b in zip(models, reversed(models)):
        assert direct_sum(a, b) == oracles.reference_sum_table(a, b, b.basis_labels)


def test_broken_base_reported_first(l3, t2):
    viols = check_matched_pair(zero_matched_pair(l3, t2))
    first = viols[0]
    assert first.condition == "base_a_right_zinbiel"
    assert first.where == (0, 1, 0)
    assert dict(first.residual) == {1: Fraction(-1)}
    assert format_violation(first) == "base_a_right_zinbiel at (0,1,0): residual -e1"


def test_joined_counts_are_pinned_and_values_are_fractions(caplog):
    t3 = trunc_integration(3, "right")
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
        violations = check_matched_pair(dual_reps(BialgebraCandidate(t3, t3)))
    joined = [int(r.getMessage().split(", ")[-2].split()[0])
              for r in caplog.records if r.name == "zinbielkit.identities"]
    # Both base scans read the one table t3: the second reuses its slice-free
    # shapes and joins its sliced ones again.  Then three axioms per action
    # system, each read in one pass.
    assert joined == [30, 24, 92, 62, 88, 80, 50, 88]
    values = [
        v
        for violation in violations
        for v in getattr(violation.residual, "entries", violation.residual).values()
    ]
    assert values and all(type(v) is Fraction for v in values)


def test_broken_action_reported_with_matrix_residual(t3, t2):
    la = [Matrix.zero(t2.dim, t2.dim)] * t3.dim
    la[0] = Matrix(t2.dim, t2.dim, {(0, 0): Fraction(1)})
    zn = Matrix.zero(t3.dim, t3.dim)
    mp = MatchedPair(
        t3, t2, tuple(la), (Matrix.zero(t2.dim, t2.dim),) * t3.dim, (zn,) * t2.dim, (zn,) * t2.dim
    )
    viols = check_matched_pair(mp)
    assert sorted({v.condition for v in viols}) == [
        "action_on_b:left_composition",
        "compat_la_1",
        "compat_la_2",
    ]
    assert format_violation(viols[0]) == "action_on_b:left_composition at (0,0): residual [0,0]=1"
    assert right_zinbiel_residuals(double(mp))


def test_check_matches_double_across_family(matched_pair_family):
    for _, mp in matched_pair_family[:80]:
        pair_ok = not check_matched_pair(mp)
        double_ok = not right_zinbiel_residuals(double(mp))
        assert pair_ok == double_ok


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2), st.integers(0, 2), st.integers())
def test_random_pair_check_matches_double(na, nb, seed):
    rng = random.Random(seed)
    mp = fuzz.random_matched_pair(rng, na, nb)
    assert (not check_matched_pair(mp)) == (not right_zinbiel_residuals(double(mp)))


def _column(matrix, c):
    """Column ``c`` of a matrix as {row: coefficient}, filtered from its entries."""
    return {r: v for (r, cc), v in matrix.entries.items() if cc == c}


def test_double_mixed_blocks(t3, t2):
    rng = random.Random(7)
    mp = MatchedPair(
        t3,
        t2,
        fuzz.random_maps(rng, t3.dim, t2.dim),
        fuzz.random_maps(rng, t3.dim, t2.dim),
        fuzz.random_maps(rng, t2.dim, t3.dim),
        fuzz.random_maps(rng, t2.dim, t3.dim),
    )
    d = double(mp)
    n, p = t3.dim, t2.dim
    for i in range(n):
        for beta in range(p):
            want = _column(mp.rb[beta], i)
            for m, v in _column(mp.la[i], beta).items():
                want[n + m] = want.get(n + m, Fraction(0)) + v
            assert d.product_basis(i, n + beta) == {k: v for k, v in want.items() if v}
            want = _column(mp.lb[beta], i)
            for m, v in _column(mp.ra[i], beta).items():
                want[n + m] = want.get(n + m, Fraction(0)) + v
            assert d.product_basis(n + beta, i) == {k: v for k, v in want.items() if v}


def test_induced_commassoc_pair_holds_on_zero_pair(t3, t2):
    bundle = induced_commassoc_pair(zero_matched_pair(t3, t2))
    assert bundle.kind == "commutative_associative_pair"
    assert bundle.holds
    assert [v.name for v in bundle.verdicts] == [
        "g_commutative",
        "g_associative",
        "h_commutative",
        "h_associative",
        "mu_representation",
        "rho_representation",
        "compat_mu",
        "compat_rho",
    ]


def test_induced_lie_pair_truncation_threshold(t3, t5, t2):
    # commutator brackets of the truncated tables only break Jacobi once
    # degree 5 exists: dim 4 passes, dim 6 fails with the 1/30 coefficient
    assert induced_lie_pair(zero_matched_pair(t3, t2)).holds
    bundle = induced_lie_pair(zero_matched_pair(t5, t2))
    assert not bundle.holds
    failing = [v for v in bundle.verdicts if not v.holds]
    assert [v.name for v in failing] == ["g_jacobi"]
    first = failing[0].witness_data["failures"][0]
    assert first["tuple"] == [0, 1, 2]
    assert first["residual"] == [[5, "-1/30"]]


def test_constructor_rejects_bad_shapes(t3, t2):
    zp = Matrix.zero(t2.dim, t2.dim)
    zn = Matrix.zero(t3.dim, t3.dim)
    with pytest.raises(DimensionMismatch):
        MatchedPair(t3, t2, (zp,) * 3, (zp,) * t3.dim, (zn,) * t2.dim, (zn,) * t2.dim)
    with pytest.raises(DimensionMismatch):
        MatchedPair(t3, t2, (zn,) * t3.dim, (zp,) * t3.dim, (zn,) * t2.dim, (zn,) * t2.dim)
    with pytest.raises(DimensionMismatch):
        MatchedPair(t3, t2, (zp,) * t3.dim, (zp,) * t3.dim, (zp,) * t2.dim, (zn,) * t2.dim)


@pytest.mark.parametrize("check", [check_commassoc_matched_pair, check_lie_matched_pair])
def test_pair_checks_reject_bad_family_shapes(check, t3, t2):
    # f acts on h = t2 per basis vector of g = t3, k on g per basis vector of h
    f, k = (Matrix.zero(t2.dim, t2.dim),) * t3.dim, (Matrix.zero(t3.dim, t3.dim),) * t2.dim
    wrong = Matrix.zero(t2.dim, t3.dim)
    for bad in ((f[1:], k), (f, k[1:]), ((wrong, *f[1:]), k), (f, (*k[1:], wrong))):
        with pytest.raises(DimensionMismatch):
            check(t3, t2, *bad)
    assert check(t3, t2, f, k).verdicts


def _violation_rows(violations):
    return [(v.condition, v.where, format_violation(v), v.residual) for v in violations]


def test_check_matches_reference_scan(t3, t5, matched_pair_family):
    t3_pair = dual_reps(BialgebraCandidate(t3, t3))
    rows = _violation_rows(check_matched_pair(t3_pair))
    assert rows == _violation_rows(oracles.reference_check_matched_pair(t3_pair))
    assert len(rows) == 220
    conditions = {row[0] for row in rows}
    assert {"compat_rb", "compat_ra", "compat_lb_1", "compat_lb_2"} <= conditions
    assert {"compat_la_1", "compat_la_2"} <= conditions

    pairs = [dual_reps(bc) for _, bc in fuzz.seeded_candidates(fuzz.DEFAULT_SEED)]
    pairs += [dual_reps(BialgebraCandidate(t5, t5))]
    pairs += [mp for _, mp in matched_pair_family]
    for mp in pairs:
        got = _violation_rows(check_matched_pair(mp))
        assert got == _violation_rows(oracles.reference_check_matched_pair(mp))


def _bundle_pairs(t3, t5, matched_pair_family):
    pairs = [mp for _, mp in matched_pair_family]
    candidates = [bc for _, bc in fuzz.seeded_candidates(fuzz.DEFAULT_SEED)]
    candidates += [BialgebraCandidate(t3, t3), BialgebraCandidate(t5, t5)]
    pairs += [dual_reps(bc) for bc in candidates]
    rng = random.Random(fuzz.DEFAULT_SEED)
    for _ in range(60):
        pairs.append(fuzz.random_matched_pair(rng, rng.randint(0, 3), rng.randint(0, 3)))
    return pairs


def _small_tables():
    """Zero tables of dims 0, 2 and 3, e0 e0 = e1 (commutative and
    associative) and [e0, e1] = e2 (Lie)."""
    one = Fraction(1)
    return [
        algebra_from_entries(0, []),
        algebra_from_entries(2, []),
        algebra_from_entries(3, []),
        algebra_from_entries(2, [(0, 0, 1, one)]),
        algebra_from_entries(3, [(0, 1, 2, one), (1, 0, 2, -one)]),
    ]


def _sparse_pairs():
    """Pairs of small tables, of equal, unequal and zero dims, whose actions
    hold one or two entries, half of them on the last basis vectors: their
    first witnesses fall past (0, 0, 0), and a representation may hold
    beside a failing compatibility."""
    rng = random.Random(fuzz.DEFAULT_SEED)

    def pick(k):
        return k - 1 if rng.random() < 0.5 else rng.randrange(k)

    pairs = []
    for a, b in itertools.product(_small_tables(), repeat=2):
        # family -> (matrices, size): la and ra act on B, lb and rb on A
        shapes = {"la": (a.dim, b.dim), "ra": (a.dim, b.dim), "lb": (b.dim, a.dim), "rb": (b.dim, a.dim)}
        for entries in (1, 1, 2, 2):
            acc = {name: [{} for _ in range(count)] for name, (count, _) in shapes.items()}
            for _ in range(entries if a.dim and b.dim else 0):
                name = rng.choice(list(shapes))
                count, size = shapes[name]
                acc[name][pick(count)][(pick(size), pick(size))] = Fraction(rng.choice((1, -1, 2)))
            pairs.append(MatchedPair(a, b, *(
                tuple(Matrix(size, size, m) for m in acc[name]) for name, (_, size) in shapes.items()
            )))
    return pairs


def _direct_bundles(mp):
    """The commutative-associative and Lie bundles of a pair's own actions,
    on both orders of the summands."""
    for args in ((mp.a, mp.b, mp.la, mp.lb), (mp.b, mp.a, mp.rb, mp.ra)):
        yield check_commassoc_matched_pair(*args)
        yield check_lie_matched_pair(*args)


def test_sparse_pairs_fail_late_and_in_part():
    late, in_part = set(), set()
    for mp in _sparse_pairs():
        for bundle in _direct_bundles(mp):
            representations, compatibilities = bundle.verdicts[4:6], bundle.verdicts[6:]
            late.update((bundle.kind, v.name) for v in bundle.verdicts[4:]
                        if not v.holds and v.witness_data["tuple"] != [0, 0, 0])
            if all(v.holds for v in representations) and not all(v.holds for v in compatibilities):
                in_part.add(bundle.kind)
    commassoc = ("mu_representation", "rho_representation", "compat_mu", "compat_rho")
    lie = ("rho_representation", "mu_representation", "compat_on_h", "compat_on_g")
    assert late == {("commutative_associative_pair", name) for name in commassoc} | {
        ("lie_pair", name) for name in lie
    }
    assert in_part == {"commutative_associative_pair", "lie_pair"}


def test_pair_bundles_match_reference(t3, t5, matched_pair_family):
    for mp in _bundle_pairs(t3, t5, matched_pair_family) + _sparse_pairs():
        assert induced_commassoc_pair(mp) == oracles.reference_induced_commassoc_pair(mp)
        assert induced_lie_pair(mp) == oracles.reference_induced_lie_pair(mp)
        # non-induced actions, on both orders of the summands
        for args in ((mp.a, mp.b, mp.la, mp.lb), (mp.b, mp.a, mp.rb, mp.ra)):
            assert check_commassoc_matched_pair(*args) == (
                oracles.reference_commassoc_matched_pair(*args)
            )
            assert check_lie_matched_pair(*args) == oracles.reference_lie_matched_pair(*args)


def test_no_record_arguments_without_logging(monkeypatch):
    # A program that never imported logging has no handler, so the check
    # builds no record and does not count its violations by condition.
    mp = fuzz.random_matched_pair(random.Random(5), 3, 2)
    want = check_matched_pair(mp)

    def unbuilt(*args):
        raise AssertionError("record arguments built without logging")

    monkeypatch.setattr(matched_pair, "Counter", unbuilt)
    monkeypatch.delitem(sys.modules, "logging")
    assert check_matched_pair(mp) == want


def test_debug_record_per_check(caplog):
    mp = fuzz.random_matched_pair(random.Random(5), 3, 2)
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.matched_pair"):
        violations = check_matched_pair(mp)
    records = [r for r in caplog.records if r.name == "zinbielkit.matched_pair"]
    assert len(records) == 1
    counts = dict(Counter(v.condition for v in violations))
    assert len(counts) > 3
    assert records[0].getMessage() == (
        f"matched pair: dim A = 3, dim B = 2, {len(violations)} violations {counts}"
    )
