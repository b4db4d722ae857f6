"""Pairings, dual representations, Manin-triple and four-way equivalence audits."""

import random
from collections import Counter
from fractions import Fraction
from itertools import combinations, product

import pytest

import oracles
from zinbielkit import fuzz, matched_pair, trunc_integration
from zinbielkit.algebra import AlgebraTable, algebra_from_entries
from zinbielkit.bialgebra import (
    BialgebraCandidate,
    BilinearFormTable,
    check_form,
    check_manin_triple,
    drinfeld_double,
    dual_reps,
    equivalence_audit,
    standard_pairing,
)
from zinbielkit.identities import right_zinbiel_residuals
from zinbielkit.matched_pair import (
    check_matched_pair,
    double,
    induced_lie_pair,
    matched_pair_verdict,
)
from zinbielkit.tensors import Matrix


@pytest.fixture(scope="module")
def t2():
    return trunc_integration(2, "right")


@pytest.fixture(scope="module")
def candidates():
    return fuzz.seeded_candidates()


@pytest.fixture(scope="module")
def pool_candidates():
    """The benchmark's fixed pool of 16 dim-4 bialgebra candidates."""
    return [(f"pool[{i}]", fuzz.random_candidate(random.Random(7919 + i), 4)) for i in range(16)]


@pytest.mark.parametrize("n", range(9))
def test_standard_pairing_is_symmetric_nondegenerate_isotropic(n):
    form = standard_pairing(n)
    assert form.dim == 2 * n
    for i in range(n):
        assert oracles.pair_basis(form, i, n + i) == 1
        assert oracles.pair_basis(form, n + i, i) == 1
        for j in range(n):
            assert oracles.pair_basis(form, i, j) == 0
            assert oracles.pair_basis(form, n + i, n + j) == 0
    # zero product makes invariance trivial, isolating the form properties
    assert check_form(algebra_from_entries(2 * n, []), form).holds


def test_check_form_failure_witnesses(t3):
    bad = BilinearFormTable(2, Matrix(2, 2, {(0, 1): Fraction(1)}))
    bundle = check_form(algebra_from_entries(2, []), bad)
    assert bundle.verdict_for("symmetric").witness_text == "at (e0,e1): 1 vs 0"
    assert bundle.verdict_for("nondegenerate").witness_text == "rank 1 < dim 2"

    ident = BilinearFormTable(4, Matrix(4, 4, {(i, i): Fraction(1) for i in range(4)}))
    v = check_form(t3, ident).verdict_for("invariant")
    assert not v.holds
    assert v.witness_text == "at (e0,e0,e1): B(xy,z) = 1, B(x,yz) = 0"
    with pytest.raises(ValueError):
        check_form(t3, bad)


def test_dual_reps_are_transposed_multiplications(t3):
    bc = BialgebraCandidate(t3, t3.opposite())
    mp = dual_reps(bc)
    for i in range(t3.dim):
        assert mp.la[i].entries == bc.a.right_mult_matrix(i).transpose().entries
        assert mp.ra[i].entries == bc.a.left_mult_matrix(i).transpose().entries
        assert mp.lb[i].entries == bc.astar.right_mult_matrix(i).transpose().entries
        assert mp.rb[i].entries == bc.astar.left_mult_matrix(i).transpose().entries


def test_induced_lie_pair_of_dual_reps_is_the_minus_ad_transpose_pair(
    candidates, pool_candidates
):
    # The equivalence audit's condition 2 reads the Lie pair off condition 3's
    # pair: la - ra = R^T - L^T = -(L - R)^T, and likewise lb - rb on A*.
    t12 = trunc_integration(12, "right")
    for name, bc in candidates + pool_candidates + [("T12,T12", BialgebraCandidate(t12, t12))]:
        reps = dual_reps(bc)
        rho, mu = (oracles.reference_lie_difference_actions(t) for t in (bc.a, bc.astar))
        assert tuple(l - r for l, r in zip(reps.la, reps.ra)) == rho, name
        assert tuple(l - r for l, r in zip(reps.lb, reps.rb)) == mu, name
        want = oracles.reference_lie_matched_pair(bc.a.commutator(), bc.astar.commutator(), rho, mu)
        assert induced_lie_pair(reps) == want, name


def test_drinfeld_double_layout(t2):
    bc = BialgebraCandidate(t2, algebra_from_entries(3, []))
    d = drinfeld_double(bc)
    assert d.dim == 6
    assert d.basis_labels == t2.basis_labels + ("f0", "f1", "f2")
    for (i, j, k), v in t2.c.entries.items():
        assert d.c.entries[(i, j, k)] == v


def test_pairing_invariant_on_every_seeded_double(candidates, pool_candidates):
    for name, bc in candidates + pool_candidates:
        bundle = check_manin_triple(bc)
        assert bundle.verdict_for("pairing_invariant").holds, name
        assert bundle.verdict_for("isotropic_blocks").holds, name
        assert bundle.verdict_for("blocks_are_subalgebras").holds, name


def test_double_residual_json_entries_ascend(candidates):
    residuals = []
    for name, bc in candidates:
        v = check_manin_triple(bc).verdict_for("double_right_zinbiel")
        if not v.holds:
            residuals.append((name, [k for k, _ in v.witness_data["residual"]]))
    assert any(len(keys) > 1 for _, keys in residuals)
    for name, keys in residuals:
        assert keys == sorted(keys), name


def test_manin_triple_agrees_with_matched_pair(candidates):
    for name, bc in candidates:
        manin_ok = check_manin_triple(bc).holds
        pair_ok = not check_matched_pair(dual_reps(bc))
        assert manin_ok == pair_ok, name


def test_equivalence_conditions_one_three_four_agree(candidates):
    for name, rep in ((n, equivalence_audit(bc)) for n, bc in candidates):
        b = rep.booleans
        assert b[0] == b[2] == b[3], (name, b)
        assert rep.agreement == (len(set(b)) == 1)
        assert bool(rep.findings) == (not rep.agreement)


def test_equivalence_audit_builds_one_drinfeld_double(monkeypatch):
    # The Manin-triple check and the matched-pair scan read one memoised
    # double; the induced Lie pair builds the only other sum table.
    built = []
    sum_table = matched_pair.sum_table
    monkeypatch.setattr(matched_pair, "sum_table",
                        lambda *args: built.append(args) or sum_table(*args))
    t12 = trunc_integration(12, "right")
    bc = BialgebraCandidate(t12, t12)
    equivalence_audit(bc)
    assert len(built) == 2
    assert dual_reps(bc) is dual_reps(bc)
    assert drinfeld_double(bc) is double(dual_reps(bc))
    assert len(built) == 2


def test_equivalence_audit_matches_checks_of_a_fresh_pair(candidates, pool_candidates):
    # Conditions 3 and 4 read one memoised check of the audit's pair; each
    # must equal the verdict of a check of a pair built anew.
    t12 = trunc_integration(12, "right")
    read_twice = 0
    for name, bc in candidates + pool_candidates + [("T12,T12", BialgebraCandidate(t12, t12))]:
        cond3, cond4 = equivalence_audit(bc).conditions[2:]
        assert cond3 == matched_pair_verdict(cond3.name, check_matched_pair(dual_reps(bc))), name
        if cond4.witness_data != {"roundtrip": False}:
            read_twice += 1
            assert cond4 == matched_pair_verdict(cond4.name, check_matched_pair(dual_reps(bc))), name
    assert read_twice == 34  # 18 of the 20 seeded candidates and all 16 of the pool


def test_equivalence_positive_controls_on_small_right_zinbiel_pairs():
    # Every ordered pair of the dim-2 right-Zinbiel tables with entries in
    # {-1, 0, 1}: unlike the seeded candidates, many pairs hold all four
    # conditions with non-zero products, so agreement is not vacuous here.
    keys = list(product(range(2), repeat=3))
    tables = []
    for values in product((-1, 0, 1), repeat=len(keys)):
        table = algebra_from_entries(2, [(*k, Fraction(v)) for k, v in zip(keys, values) if v])
        if not right_zinbiel_residuals(table, first_only=True):
            tables.append(table)
    assert len(tables) == 9
    outcomes = Counter()
    for a, astar in product(tables, repeat=2):
        b = equivalence_audit(BialgebraCandidate(a, astar)).booleans
        assert b[0] == b[2] == b[3], (a.c, astar.c, b)
        assert b[1] or not b[0], (a.c, astar.c, b)  # condition 1 implies 2
        outcomes[b] += 1
        if all(b) and (a.c.entries or astar.c.entries):
            outcomes["non-zero"] += 1
    assert outcomes == {(True,) * 4: 33, (False, True, False, False): 48, "non-zero": 32}


def test_equivalence_positive_controls_on_sparse_dim_3_right_zinbiel_tables():
    # The dim-3 right-Zinbiel tables with at most two structure constants,
    # each -1 or 1, every non-zero one paired with the zero table and with
    # itself; then the one dim-1 pair, as right Zinbiel forces c = 0 there.
    keys = list(product(range(3), repeat=3))
    tables = []
    for n in range(3):
        for support in combinations(keys, n):
            for signs in product((-1, 1), repeat=n):
                table = algebra_from_entries(3, [(*k, Fraction(s)) for k, s in zip(support, signs)])
                if not right_zinbiel_residuals(table, first_only=True):
                    tables.append(table)
    assert len(tables) == 109
    zero, *nonzero = tables
    assert not zero.c.entries
    lines = [algebra_from_entries(1, [(0, 0, 0, Fraction(c))]) for c in (-1, 1)]
    assert all(right_zinbiel_residuals(line, first_only=True) for line in lines)
    z1 = algebra_from_entries(1, [])
    pairs = [(a, astar) for a in nonzero for astar in (zero, a)] + [(z1, z1)]
    outcomes = Counter()
    for a, astar in pairs:
        b = equivalence_audit(BialgebraCandidate(a, astar)).booleans
        assert b[0] == b[2] == b[3], (a.c, astar.c, b)
        assert b[1] or not b[0], (a.c, astar.c, b)  # condition 1 implies 2
        outcomes[a.dim, b] += 1
    assert outcomes == {
        (3, (True,) * 4): 108,
        (3, (False, True, False, False)): 42,
        (3, (False,) * 4): 66,
        (1, (True,) * 4): 1,
    }


def test_equivalence_quadruple_with_trivial_dual(t2):
    rep = equivalence_audit(BialgebraCandidate(t2, algebra_from_entries(3, [])))
    assert rep.booleans == (False, True, False, False)
    assert rep.findings == (
        "conditions disagree: manin_triple=False, lie_matched_pair=True, "
        "zinbiel_matched_pair=False, bialgebra=False",
    )
    assert rep.conditions[0].witness_text == (
        "double_right_zinbiel fails at (e0,e0,e5): residual = -(3/2)e3"
    )
    assert rep.conditions[2].witness_text == (
        "action_on_b:left_composition at (0,0): residual [0,2]=-3/2"
    )


def test_equivalence_quadruple_all_zero():
    z3 = algebra_from_entries(3, [])
    rep = equivalence_audit(BialgebraCandidate(z3, z3))
    assert rep.booleans == (True, True, True, True)
    assert rep.agreement
    assert rep.findings == ()


def test_equivalence_report_output_forms(t2):
    rep = equivalence_audit(BialgebraCandidate(t2, algebra_from_entries(3, [])))
    payload = rep.jsonable()
    assert payload["kind"] == "equivalence_report"
    assert payload["agreement"] is False
    assert [c["name"] for c in payload["conditions"]] == [
        "manin_triple",
        "lie_matched_pair",
        "zinbiel_matched_pair",
        "bialgebra",
    ]
    lines = rep.lines()
    assert lines[0].startswith("[equivalence] manin_triple: FAILS")
    assert lines[1] == "[equivalence] lie_matched_pair: HOLDS"
    assert lines[-1].startswith("[equivalence] finding: conditions disagree:")


def test_candidate_requires_equal_dimensions(t3, t2):
    with pytest.raises(ValueError):
        BialgebraCandidate(t3, t2)
    with pytest.raises(ValueError):
        BilinearFormTable(3, Matrix(2, 2, {}))


def _sheared(a, form, n, m):
    """The table and form in the basis e'_j = e_j + sum_r m[r, j] e_(n+r).

    The change of basis p = I + N has N @ N = 0, so p^-1 = I - N."""
    eye = {(i, i): Fraction(1) for i in range(a.dim)}
    p = Matrix(a.dim, a.dim, {**eye, **{(n + r, c): v for (r, c), v in m.items()}})
    p_inv = Matrix(a.dim, a.dim, {**eye, **{(n + r, c): -v for (r, c), v in m.items()}})
    cols = [oracles.reference_apply(p, {j: Fraction(1)}) for j in range(a.dim)]
    entries = []
    for i, j in product(range(a.dim), repeat=2):
        x = oracles.table_product(a, cols[i], cols[j])
        entries += [(i, j, k, v) for k, v in oracles.reference_apply(p_inv, x).items()]
    gp = Matrix(a.dim, a.dim, oracles.reference_matmul(form.g, p))
    g = Matrix(a.dim, a.dim, oracles.reference_matmul(p.transpose(), gp))
    return algebra_from_entries(a.dim, entries), BilinearFormTable(a.dim, g)


def test_check_form_matches_reference_scan(candidates, pool_candidates):
    rng, new_rng = random.Random(20183), random.Random(20185)
    cases = []
    for name, bc in candidates:
        d, n = drinfeld_double(bc), bc.a.dim
        want = oracles.reference_check_form(d, standard_pairing(n))
        assert check_form(d, standard_pairing(n)) == want, name
        got = check_manin_triple(bc).verdict_for("pairing_invariant")
        assert got == want.verdict_for("invariant")._replace(name="pairing_invariant"), name
        cases.append((d, BilinearFormTable(d.dim, Matrix.zero(d.dim, d.dim))))
        # a change of basis keeps the pairing invariant, and this one fills
        # the pairing's A-block rows
        m = fuzz.random_maps(new_rng, 1, n, 0.5)[0].entries
        cases.append(_sheared(d, standard_pairing(n), n, m))
    t12 = trunc_integration(12, "right")
    doubles = [drinfeld_double(bc) for _, bc in pool_candidates]
    for d in doubles:
        # the dual block is a subalgebra, so e_last e_last has no e_0 term;
        # planting one breaks the standard pairing's invariance only at
        # (e_n,e_last,e_last) and (e_last,e_last,e_n), late in the scan
        last = d.dim - 1
        planted = [(*key, c) for key, c in d.c.entries.items()]
        planted.append((last, last, 0, Fraction(new_rng.randint(1, 3))))
        cases.append((algebra_from_entries(d.dim, planted), standard_pairing(d.dim // 2)))
    doubles.append(drinfeld_double(BialgebraCandidate(t12, t12)))
    for d in doubles:
        # non-symmetric; the sparse ones put some witnesses past (e0,e0,-)
        g = fuzz.random_maps(new_rng, 1, d.dim, new_rng.choice((0.02, 0.1, 0.3)))[0]
        cases.append((d, BilinearFormTable(d.dim, g)))
    for _ in range(150):
        n = rng.randint(0, 5)
        a = fuzz.random_algebra(rng, n, rng.choice((0.1, 0.3)))
        # non-symmetric, and degenerate whenever a row stays empty
        g = fuzz.random_maps(rng, 1, n, rng.choice((0.2, 0.5)))[0]
        cases.append((a, BilinearFormTable(n, g)))
    for a, form in cases:
        assert check_form(a, form) == oracles.reference_check_form(a, form)


@pytest.mark.xfail(
    strict=True,
    reason="the coproduct round trip compares basis labels: dualize_co names the basis e0..., "
    "so a dual table with model labels fails condition 4 before any table is compared",
)
def test_equivalence_audit_does_not_depend_on_basis_labels(t3):
    relabelled = AlgebraTable(t3.dim, tuple(f"e{i}" for i in range(t3.dim)), t3.c)
    assert relabelled.basis_labels != t3.basis_labels
    as_given = equivalence_audit(BialgebraCandidate(t3, t3))
    assert as_given == equivalence_audit(BialgebraCandidate(t3, relabelled))
