"""Identity DSL: parser, arity rule, evaluator, catalog."""

import itertools
import logging
import random
import re
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import zinbielkit
from zinbielkit import audit
from zinbielkit.algebra import algebra_from_entries
from zinbielkit.audit import CLAIMS, audit_claims, evaluate_claim
from zinbielkit.identities import (
    SLICED,
    ArityError,
    Identity,
    IdentitySyntaxError,
    catalog,
    difference,
    evaluate,
    evaluate_pass,
    holds,
    left_zinbiel_residuals,
    parse_identity,
    parse_term_sum,
    right_zinbiel_residuals,
)
from zinbielkit.models import free_halfshuffle, trunc_integration
from zinbielkit.reports import vector_jsonable

import oracles


# random identity trees over a fixed variable pool, one use each per term
@st.composite
def identity_sources(draw):
    names = draw(st.permutations(["x", "y", "z"]))
    nvars = draw(st.integers(1, 3))
    names = list(names[:nvars])

    def tree(pool):
        if len(pool) == 1:
            return pool[0]
        cut = draw(st.integers(1, len(pool) - 1))
        return f"({tree(pool[:cut])} {tree(pool[cut:])})"

    terms = []
    for _ in range(draw(st.integers(1, 3))):
        coeff = draw(st.integers(1, 9))
        den = draw(st.integers(1, 9))
        sign = draw(st.sampled_from(["", "- "]))
        prefix = f"{coeff}/{den} * " if draw(st.booleans()) else ""
        order = draw(st.permutations(names))
        terms.append(f"{sign}{prefix}{tree(list(order))}")
    src = terms[0]
    for t in terms[1:]:
        src += f" + {t}" if not t.startswith("- ") else f" {t}"
    return src


@given(identity_sources())
def test_parse_render_round_trip(src):
    ident = parse_identity(src)
    assert parse_identity(oracles.render_identity(ident)) == ident


def test_catalog_round_trips():
    for name, ident in catalog().items():
        assert parse_identity(oracles.catalog_source(name)) == ident
        assert parse_identity(oracles.render_identity(ident)) == ident


def test_syntax_errors_carry_position():
    # an integer past the interpreter's str -> int digit limit is refused
    # at its own position, as a numerator and as a denominator
    for src, pos in [("(x y", 4), ("x + ", 4), ("1/0 * x", 2), ("x = 1", 4), ("x )", 2),
                     ("²*(x y)", 0), ("9" * 5000 + "*(x y)", 0),
                     ("(x y) - 1/" + "9" * 5000 + "*(y x)", 10)]:
        with pytest.raises(IdentitySyntaxError) as err:
            parse_identity(src)
        assert err.value.position == pos


def test_arity_rule():
    with pytest.raises(ArityError):
        parse_identity("(x x)")
    with pytest.raises(ArityError):
        parse_identity("(x y) + x")  # second term misses y


def test_optional_equals_zero_suffix():
    assert parse_identity("(x y) - (y x) = 0") == parse_identity("(x y) - (y x)")


def test_evaluate_matches_raw_oracle(t5):
    ident = catalog()["right_zinbiel"]
    assert evaluate(t5, ident) == []
    left = catalog()["left_zinbiel"]
    for (i, j, k), residual in evaluate(t5, left):
        assert residual == oracles.left_zinbiel_defect(t5, i, j, k)


def test_first_only_is_prefix_of_full_scan(l3):
    ident = catalog()["center_symmetric"]
    full = evaluate(l3, ident)
    first = evaluate(l3, ident, first_only=True)
    assert first == full[:1]
    assert first[0][0] == (0, 0, 1)


def test_lie_admissible_failures_on_t5(t5):
    base = evaluate(t5, catalog()["lie_admissible"])
    assert [a for a, _ in base] == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    ]


def test_holds_on_degenerate_dims():
    zero = trunc_integration(0, "right")
    for ident in catalog().values():
        assert holds(zero, ident)


def test_coefficient_terms_scale_residuals(t3):
    doubled = parse_identity("2 * (x y) - 2 * (y x)")
    plain = parse_identity("(x y) - (y x)")
    got = dict(evaluate(t3, doubled))
    want = {a: {k: 2 * v for k, v in r.items()} for a, r in evaluate(t3, plain)}
    assert got == want


def test_public_api_names_resolve():
    assert [name for name in zinbielkit.__all__ if not hasattr(zinbielkit, name)] == []


def test_public_api_names_are_pinned():
    assert zinbielkit.__all__ == [
        "AlgebraTable", "BialgebraCandidate", "BilinearFormTable", "Bimodule", "CLAIMS",
        "CoalgebraTable", "Identity", "MatchedPair", "Matrix", "Scalar", "Tensor3", "Vector",
        "algebra_from_entries", "antisym_coproduct", "audit_claims", "audit_report_jsonable",
        "audit_report_text", "catalog", "check_aux_coalgebra_identities", "check_bimodule",
        "check_co_left", "check_co_right", "check_cocomm_coassoc", "check_commassoc_matched_pair",
        "check_derived_relations", "check_form", "check_lie_coalgebra", "check_lie_matched_pair",
        "check_manin_triple", "check_matched_pair", "coalgebra_from_entries", "direct_sum",
        "double", "drinfeld_double", "dual_reps", "dualize", "dualize_co", "dumps",
        "equivalence_audit", "evaluate", "format_scalar", "free_halfshuffle", "from_jsonable",
        "holds", "induced_commassoc_pair", "induced_lie_pair", "induced_subadjacent_map",
        "left_zinbiel_residuals", "load_path", "loads", "opposite_coproduct", "parse_identity",
        "parse_scalar", "rank", "regular_bimodule", "right_zinbiel_residuals", "semidirect_sum",
        "standard_pairing", "sym_coproduct", "to_jsonable", "trivial_models", "trunc_integration",
        "zero_bimodule", "zero_matched_pair",
    ]


def _random_table(rng, dim):
    """A table of dimension ``dim`` whose density is drawn too; 0 gives the zero table."""
    density = rng.choice([0.0, 0.1, 0.3, 0.6, 1.0])
    entries = []
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                if rng.random() < density:
                    value = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4))
                    entries.append((i, j, k, value))
    return algebra_from_entries(dim, entries)


def _random_tables(seed, count=30):
    rng = random.Random(seed)
    tables = [algebra_from_entries(d, []) for d in range(4)]
    return tables + [_random_table(rng, rng.randint(0, 5)) for _ in range(count)]


_SHAPES_4 = ("(((a b) c) d)", "((a (b c)) d)", "((a b) (c d))", "(a ((b c) d))", "(a (b (c d)))")


def _degree_4_identity(rng):
    """Every degree-4 tree shape once, each over its own variable order, with
    the coefficients 0, 1, 2, 1/2 and 5/3 dealt out in random order and sign."""
    coeffs = rng.sample(["0 * ", "", "2 * ", "1/2 * ", "5/3 * "], 5)
    terms = []
    for shape, coeff in zip(_SHAPES_4, coeffs):
        tree = shape
        for slot, name in zip("abcd", rng.sample(["w", "x", "y", "z"], 4)):
            tree = tree.replace(slot, name)
        terms.append(f"{rng.choice(['+', '-'])} {coeff}{tree}")
    return parse_identity(" ".join(terms))


def test_sparse_join_matches_reference_scan():
    rng = random.Random(20181)
    identities = list(catalog().values()) + [_degree_4_identity(rng) for _ in range(2)]
    tables = _random_tables(2018, count=20) + [trunc_integration(4, "left"), free_halfshuffle(2, 2)]
    for table in tables:
        for ident in identities:
            want = oracles.reference_evaluate(table, ident)
            assert evaluate(table, ident) == want, oracles.render_identity(ident)
            assert evaluate(table, ident, first_only=True) == want[:1]


# (claim, [(sign, identity, order)]): at each basis tuple t, read in the
# audit claim's own variable order, the claim's residual is the signed sum of
# each catalog identity's residual at t permuted by its order.  A claim on the
# symmetrized product is evaluated there, and the identities on the product.
# The first row is the exact form of "center-symmetric, therefore
# Lie-admissible"; the second reads the left relation off the Zinbiel law;
# derived_1..3 are the Zinbiel law with its variables renamed, so each equals
# it at the same tuple; the last reads Aguiar's associativity of {x, y} off
# the Zinbiel law of the product.
_R = "right_zinbiel"
_SYZYGIES = (
    ("lie_admissible", ((-1, "center_symmetric", (0, 1, 2)), (1, "center_symmetric", (1, 0, 2)),
                        (-1, "center_symmetric", (1, 2, 0)))),
    ("left_relation", ((1, _R, (0, 1, 2)), (-1, _R, (1, 0, 2)))),
    ("derived_1", ((1, _R, (0, 1, 2)),)),
    ("derived_2", ((1, _R, (0, 1, 2)),)),
    ("derived_3", ((1, _R, (0, 1, 2)),)),
    ("aguiar_associative", ((1, _R, (2, 0, 1)), (1, _R, (2, 1, 0)),
                            (-1, _R, (0, 1, 2)), (-1, _R, (0, 2, 1)))),
)


def test_claims_are_signed_sums_of_residuals(standard_models):
    # Exact on every table, Zinbiel or not.  The standard models include
    # trunc-int:left:4 and free:2:3.
    cat, specs = catalog(), {spec.name: spec for spec in CLAIMS}
    claims = {}
    for claim, _ in _SYZYGIES:
        spec = specs[claim]
        rhs = parse_term_sum(spec.rhs) if spec.rhs else ()
        claims[claim] = difference(parse_term_sum(spec.lhs), rhs), spec.target != "product"
    assert {claim: ident.variables for claim, (ident, _) in claims.items()} == {
        "lie_admissible": ("x", "y", "z"), "left_relation": ("x", "y", "z"),
        "derived_1": ("x", "z", "y"), "derived_2": ("z", "x", "y"), "derived_3": ("z", "y", "x"),
        "aguiar_associative": ("x", "y", "z"),
    }
    names = {name for _, parts in _SYZYGIES for _, name, _ in parts}
    assert {cat[name].variables for name in names} == {("x", "y", "z")}
    rng = random.Random(2011)
    tables = [table for _, table in standard_models] + [_random_table(rng, 3) for _ in range(10)]
    failing = dict.fromkeys(claims, 0)
    for table in tables:
        residuals = {name: dict(evaluate(table, cat[name])) for name in names}
        for claim, parts in _SYZYGIES:
            ident, symmetrized = claims[claim]
            got = dict(evaluate(table.symmetrize() if symmetrized else table, ident))
            want = {}
            for t in itertools.product(range(table.dim), repeat=3):
                total = Counter()
                for sign, name, order in parts:
                    for k, v in residuals[name].get(tuple(t[i] for i in order), {}).items():
                        total[k] += sign * v
                if any(total.values()):
                    want[t] = {k: v for k, v in total.items() if v}
            assert got == want, claim
            failing[claim] += bool(got)
    assert min(failing.values()) > 0, failing


# The Tortkara identity (ab)(cb) = J(a, b, c)b, J the Jacobian, with b
# linearized to b and d.  The commutator of a Zinbiel algebra satisfies it
# though it is not Lie (Dzhumadildaev, "Zinbiel algebras under
# q-commutators", 2007).  A control on the engine, outside the audit catalog.
_TORTKARA = ("((a b) (c d)) + ((a d) (c b)) - (((a b) c) d) - (((b c) a) d) - (((c a) b) d)"
             " - (((a d) c) b) - (((d c) a) b) - (((c a) d) b)")


def test_zinbiel_commutators_are_tortkara_not_lie():
    tortkara, jacobi = parse_identity(_TORTKARA), catalog()["jacobi"]
    for a in (trunc_integration(6, "right"), trunc_integration(10, "right"),
              free_halfshuffle(2, 4), free_halfshuffle(3, 3)):
        assert right_zinbiel_residuals(a) == []
        assert holds(a.commutator(), tortkara) and not holds(a.commutator(), jacobi)
    # Not a characterisation: trunc-int:left:5 is neither right nor left
    # Zinbiel, and its commutator is Tortkara too.
    left = trunc_integration(5, "left")
    assert right_zinbiel_residuals(left) and left_zinbiel_residuals(left)
    assert holds(left.commutator(), tortkara)
    # not vacuous: it fails on most random commutators
    rng = random.Random(2007)
    commutators = [_random_table(rng, 3).commutator() for _ in range(30)]
    assert sum(not holds(c, tortkara) for c in commutators) == 18
    for bracket in (*commutators, free_halfshuffle(2, 3).commutator()):
        assert evaluate(bracket, tortkara) == oracles.reference_evaluate(bracket, tortkara)


def _typed(table, ident, domains, first_only=False):
    scale, hits = evaluate_pass(
        table, [(ident.variables, domains, (ident.terms,))], first_only=first_only
    )[0]
    return [(a, {k: Fraction(v, scale) for k, v in r.items()}) for a, r, _ in hits]


def test_typed_sparse_join_matches_filtered_reference_scan():
    # Half the tables are scanned untyped first, so typed shapes meet a memo
    # that already holds untyped ones; the other half are scanned untyped last.
    rng = random.Random(20182)
    identities = list(catalog().values()) + [_degree_4_identity(rng)]
    tables = _random_tables(2020, count=8) + [trunc_integration(4, "left")]
    failing = 0
    for n, table in enumerate(tables):
        for ident in identities:
            want_all = oracles.reference_evaluate(table, ident)
            if n % 2:
                assert evaluate(table, ident) == want_all
            # Variables over the two summands of a random cut, as the
            # structural checks type them; over arbitrary ranges; and with
            # the last variable's range empty.
            cut = rng.randint(0, table.dim)
            halves = (range(cut), range(cut, table.dim))
            cases = [tuple(rng.choice(halves) for _ in ident.variables) for _ in range(3)]
            cases.append(tuple(range(lo, rng.randint(lo, table.dim))
                               for lo in (rng.randint(0, table.dim) for _ in ident.variables)))
            cases.append((range(table.dim),) * (len(ident.variables) - 1) + (range(1, 1),))
            for domains in cases:
                want = [
                    (a, r) for a, r in want_all if all(i in d for i, d in zip(a, domains))
                ]
                assert _typed(table, ident, domains) == want, (oracles.render_identity(ident), domains)
                assert _typed(table, ident, domains, first_only=True) == want[:1]
                failing += bool(want)
            if not n % 2:
                assert evaluate(table, ident) == want_all
    assert failing > 50


def test_claim_sides_match_reference_scan():
    # The first-only gate scans, then the claims in reverse order, all on one
    # table object: whatever they leave in its tensor memo must not change a
    # later claim's failures.
    tables = _random_tables(2019, count=15) + [trunc_integration(4, "left")]
    for table in tables:
        sym = table.symmetrize()
        right_zinbiel_residuals(table, first_only=True)
        left_zinbiel_residuals(table, first_only=True)
        for spec in reversed(CLAIMS):
            target = sym if spec.target == "symmetrized product" else table
            lhs_terms = parse_term_sum(spec.lhs)
            rhs_terms = parse_term_sum(spec.rhs) if spec.rhs else ()
            ident = difference(lhs_terms, rhs_terms)
            lhs_at = oracles.compile_terms(target, ident.variables, lhs_terms)
            rhs_at = oracles.compile_terms(target, ident.variables, rhs_terms)
            want = [
                {
                    "tuple": list(a),
                    "lhs": vector_jsonable(lhs_at(a)),
                    "rhs": vector_jsonable(rhs_at(a)),
                    "residual": vector_jsonable(residual),
                }
                for a, residual in oracles.reference_evaluate(target, ident)
            ]
            verdict = evaluate_claim(target, spec)
            got = (verdict.witness_data or {}).get("failures", [])
            keys = ("tuple", "lhs", "rhs", "residual")
            assert [{k: f[k] for k in keys} for f in got] == want, spec.name
            assert verdict.holds == (not want)


def _joined(records) -> list[int]:
    return [
        int(re.search(r"(\d+) joined entries", r.getMessage()).group(1))
        for r in records
        if r.name == "zinbielkit.identities"
    ]


def _has_sliced_leaf(shape) -> bool:
    if shape == SLICED:
        return True
    return isinstance(shape, tuple) and any(map(_has_sliced_leaf, shape))


def _entries(tensor) -> int:
    return sum(len(rows) for rows in tensor.values())


def test_claims_of_one_audit_pass_share_sliced_tensors(caplog):
    # derived_4 has the sides of left_relation, so in one pass it reads the
    # hits left_relation read, and joins none itself.
    table = trunc_integration(5, "right")
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
        audit_claims(table, "right", claims=["left_relation", "derived_4"])
    joined = _joined(caplog.records)
    assert len(joined) == 3  # both claims, then the gate's first-only scan
    assert joined[0] > 0 and joined[1] == 0


def test_slice_free_shapes_are_reused_across_calls_and_sliced_ones_are_not(caplog):
    table = trunc_integration(5, "right")
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
        right_zinbiel_residuals(table)
        memo = dict(table._shape_tensors)
        right_zinbiel_residuals(table)
    first, second = _joined(caplog.records)
    assert table._shape_tensors.keys() == memo.keys()
    assert all(table._shape_tensors[shape] is tensor for shape, tensor in memo.items())
    slice_free = sum(_entries(t) for shape, t in memo.items() if not isinstance(shape[0], int))
    assert slice_free > 0
    assert second == first - slice_free > 0  # only the roots are read again


def test_the_table_memo_holds_no_sliced_shape_and_no_partial_tensor():
    ident = catalog()["left_zinbiel"]
    typed = (range(2), range(1, 4), range(6))
    runs = [
        lambda t: evaluate(t, ident, first_only=True),
        lambda t: evaluate(t, ident),
        lambda t: evaluate_pass(t, [(ident.variables, typed, (ident.terms,))], first_only=True),
        lambda t: evaluate_pass(t, [(ident.variables, typed, (ident.terms,))] * 2),
        lambda t: audit_claims(t, "left"),
        lambda t: holds(t, catalog()["jacobi"]),
    ]
    complete = trunc_integration(5, "right")
    for run in runs:
        run(complete)
    for run in runs:
        table = trunc_integration(5, "right")
        run(table)
        assert table._shape_tensors
        assert not any(map(_has_sliced_leaf, table._shape_tensors))
        # a first-only scan stores whole tensors, as a full scan would
        assert all(complete._shape_tensors[s] == t for s, t in table._shape_tensors.items())


def test_one_pass_reads_every_scan_as_its_own_evaluation():
    table = _random_tables(2021, count=1)[0]
    scans = [
        (ident.variables, (range(table.dim),) * len(ident.variables), (ident.terms,))
        for ident in catalog().values()
    ]
    for first_only in (False, True):
        want = [evaluate_pass(table, [scan], first_only=first_only)[0] for scan in scans]
        assert evaluate_pass(table, scans, first_only=first_only) == want
    with pytest.raises(ValueError):
        evaluate_pass(table, [scans[0], (scans[0][0], (range(1),) * 3, scans[0][2])])


def test_claims_equal_up_to_renaming_share_one_scan(caplog):
    # derived_1..3 are right_zinbiel renamed and derived_4 is left_relation:
    # in one pass they read the earlier scan's hits, and join nothing
    table = trunc_integration(6, "left")
    scans = {spec.name: audit._claim_scan(table, spec)
             for spec in CLAIMS if spec.target == "product"}
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
        results = dict(zip(scans, evaluate_pass(table, list(scans.values()))))
    records = _joined(caplog.records)
    assert len(records) == len(scans)  # one record per scan
    joined = dict(zip(scans, records))
    sharing = {"derived_1": "right_zinbiel", "derived_2": "right_zinbiel",
               "derived_3": "right_zinbiel", "derived_4": "left_relation"}
    for name, source in sharing.items():
        assert results[name][1] is results[source][1], name
        assert results[name] == results[source], name
        assert joined[name] == 0 < joined[source], name
        assert evaluate_pass(table, [scans[name]])[0] == results[name], name
    assert results["right_zinbiel"][1] and results["left_relation"][1]
    own = [hits for name, (_, hits) in results.items() if name not in sharing]
    assert len({id(hits) for hits in own}) == len(own)


def test_scans_share_only_an_equal_canonical_form(t5):
    variables, domains = ("x", "y", "z"), (range(6),) * 3
    lhs, rhs = parse_term_sum("(x (y z))"), parse_term_sum("((x y) z) + ((y x) z)")
    base = (variables, domains, (lhs, rhs))
    table = t5.opposite()  # fails the right check, so every scan below has hits
    reordered = (variables, domains, (lhs, parse_term_sum("((y x) z) + ((x y) z)")))
    renamed = (("a", "c", "b"), domains, (parse_term_sum("(a (c b))"),
                                          parse_term_sum("((a c) b) + ((c a) b)")))
    for same in (reordered, renamed):
        (_, base_hits), (_, hits) = evaluate_pass(table, [base, same])
        assert base_hits and hits is base_hits
    different = [
        (variables, domains, (lhs, parse_term_sum("((x y) z) + 2 * ((y x) z)"))),
        (variables, (range(6), range(6), range(1, 6)), (lhs, rhs)),
        (variables, domains, (parse_term_sum("(x (y z)) - ((y x) z)"),
                              parse_term_sum("((x y) z)"))),
    ]
    for scan in different:
        (_, base_hits), got = evaluate_pass(table, [base, scan])
        assert got[1] is not base_hits
        assert got == evaluate_pass(table, [scan])[0]
        assert got[1] and got[1] != base_hits


def test_arity_errors_stand_after_an_earlier_scan(t3):
    ident = catalog()["right_zinbiel"]
    valid = (ident.variables, (range(t3.dim),) * 3, (ident.terms,))
    for src in ("(x (x z))", "(x y) + (x (y z))"):
        bad = (ident.variables, (range(t3.dim),) * 3, (parse_term_sum(src),))
        with pytest.raises(ArityError):
            evaluate_pass(t3, [valid, bad])


def test_joined_counts_are_pinned(caplog):
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
        right_zinbiel_residuals(trunc_integration(5, "right"))
        evaluate(free_halfshuffle(2, 3), catalog()["lie_admissible"])
    assert _joined(caplog.records) == [45, 120]


def test_a_first_only_pass_reads_its_roots_from_their_children(caplog):
    # The table passes, so every unit slice is read; each root counts the
    # index pairs it reads, not the entries of a joined root tensor.
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
        assert holds(trunc_integration(5, "right"), catalog()["right_zinbiel"])
    assert _joined(caplog.records) == [95]


def test_a_wide_root_child_is_read_without_its_root_tensor():
    # (((x0 x1) x2) ...) - (x0 (x1 (x2 ...))) on the all-ones dim-3 table:
    # both roots have a child of seven leaves, so the pass reads unit slices;
    # each root is read straight from its two children, and no slice joins
    # a root tensor.
    names = [f"x{i}" for i in range(8)]
    left, right = names[0], names[-1]
    for name in names[1:]:
        left = f"({left} {name})"
    for name in reversed(names[:-1]):
        right = f"({name} {right})"
    ident = parse_identity(f"{left} - {right}")
    ones = algebra_from_entries(3, [(i, j, k, Fraction(1)) for i, j, k
                                    in itertools.product(range(3), repeat=3)])
    tracemalloc.start()
    try:
        assert evaluate(ones, ident) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3 * 2**20


def test_exact_values_are_fractions(t5, l3):
    residuals = evaluate(t5, catalog()["lie_admissible"])
    values = [v for _, r in residuals for v in r.values()]
    values += [v for _, r in right_zinbiel_residuals(l3) for v in r.values()]
    assert values and all(type(v) is Fraction for v in values)


def test_evaluate_rejects_non_multilinear_terms(t3):
    for src in ("(x x)", "(x y) + x"):
        lhs = parse_term_sum(src)
        with pytest.raises(ArityError):
            evaluate(t3, difference(lhs, ()))
    with pytest.raises(ArityError):
        evaluate(t3, Identity(("x",), parse_term_sum("(x y)")))


def test_debug_record_per_evaluate_call(caplog, t5):
    ident = catalog()["left_zinbiel"]
    typed = (range(2), range(1, 4), range(6))
    with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
        evaluate(t5, ident)
        evaluate(t5, ident, first_only=True)
        _, hits = evaluate_pass(t5, [(ident.variables, typed, (ident.terms,))])[0]
    records = [r for r in caplog.records if r.name == "zinbielkit.identities"]
    assert len(records) == 3
    assert "6^3 = 216 basis tuples" in records[0].getMessage()
    assert records[0].getMessage().endswith(f"{len(evaluate(t5, ident))} residuals")
    assert "2*3*6 = 36 basis tuples, 2 of 2 slices" in records[2].getMessage()
    assert records[2].getMessage().endswith(f" {len(hits)} residuals")


_SHAPES_3 = ("((a b) c)", "(a (b c))")


@st.composite
def whole_read_passes(draw):
    """A random table of dimension 1 to 4 and a full pass over it: a scan of
    a one- or two-sided identity in 3 or 4 variables, each variable over a
    random index range, then the same scan with its variables renamed."""
    dim = draw(st.integers(1, 4))
    table = _random_table(draw(st.randoms(use_true_random=False)), dim)
    names = "wxyz"[:draw(st.sampled_from([3, 4]))]
    shapes = _SHAPES_3 if len(names) == 3 else _SHAPES_4

    def term_sum() -> str:
        terms = []
        for _ in range(draw(st.integers(1, 3))):
            tree = draw(st.sampled_from(shapes))
            for slot, name in zip("abcd", draw(st.permutations(names))):
                tree = tree.replace(slot, name)
            coeff = draw(st.sampled_from(["", "2 * ", "1/2 * ", "5/3 * "]))
            terms.append(f"{draw(st.sampled_from('+-'))} {coeff}{tree}")
        return " ".join(terms)

    sources = [term_sum() for _ in range(draw(st.integers(1, 2)))]
    ranges = []
    for _ in names:
        lo = draw(st.integers(0, dim - 1))
        ranges.append(range(lo, draw(st.integers(lo + 1, dim))))
    renaming = str.maketrans(dict(zip(names, draw(st.permutations(names)))))
    scans = [(tuple(variables), tuple(ranges), tuple(parse_term_sum(s) for s in sides))
             for variables, sides in ((names, sources),
                                      (names.translate(renaming),
                                       [s.translate(renaming) for s in sources]))]
    return table, scans


@settings(max_examples=150, deadline=None)
@given(whole_read_passes())
def test_full_and_first_only_passes_match_the_reference_scan(case):
    # Full passes read the first range whole unless a root child has three
    # leaves; first-only passes read it slice by slice.  Either way each root
    # is read from its two children, and both must give the per-tuple scan's
    # residuals and side values, and share a renamed scan.
    table, scans = case
    variables, domains, sides = scans[0]
    rhs = sides[1] if len(sides) == 2 else ()
    ident = Identity(variables, difference(sides[0], rhs).terms)
    want = [(a, r) for a, r in oracles.reference_evaluate(table, ident)
            if all(i in d for i, d in zip(a, domains))]
    at = [oracles.compile_terms(table, variables, terms) for terms in sides]
    (scale, hits), (renamed_scale, renamed_hits) = evaluate_pass(table, scans)
    assert renamed_hits is hits and renamed_scale == scale

    def exact(value):
        return {k: Fraction(u, scale) for k, u in value.items() if u}

    assert [(a, exact(r)) for a, r, _ in hits] == want
    for a, r, values in hits:
        assert [exact(v) for v in values] == ([f(a) for f in at] if rhs else [exact(r)])
    first, renamed_first = evaluate_pass(table, scans, first_only=True)
    assert renamed_first[1] is first[1] and first[0] == scale
    assert [(a, exact(r), [exact(v) for v in values]) for a, r, values in first[1]] == [
        (a, exact(r), [exact(v) for v in values]) for a, r, values in hits[:1]]


def test_a_root_child_of_three_leaves_keeps_unit_slices(caplog):
    # right_zinbiel alone reads its first range, range(1, 6), whole, which
    # leaves a leaf over that range in the memo.  Beside an identity with a
    # three-leaf root child it reads slice by slice, as a first-only pass
    # does on this table, which passes: every slice, each root read from its
    # two children on that slice (so the same joined count), and no shape
    # over the first range kept.
    narrow = catalog()["right_zinbiel"]
    wide = parse_identity("(((w x) y) z) - (w (x (y z)))")
    domains = (range(1, 6),) + (range(6),) * 3
    scan_of = {ident: (ident.variables, domains[:len(ident.variables)], (ident.terms,))
               for ident in (narrow, wide)}
    runs = {"whole": ([narrow], False), "first_only": ([narrow], True),
            "beside_wide": ([narrow, wide], False)}
    joined, first_range_in_memo = {}, {}
    for name, (idents, first_only) in runs.items():
        table = trunc_integration(5, "right")
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="zinbielkit.identities"):
            evaluate_pass(table, [scan_of[i] for i in idents], first_only=first_only)
        records = [r.getMessage() for r in caplog.records if r.name == "zinbielkit.identities"]
        assert len(records) == len(idents)
        assert all("5 of 5 slices" in record for record in records), records
        joined[name] = _joined(caplog.records)[0]
        first_range_in_memo[name] = any("(1, 6)" in repr(s) for s in table._shape_tensors)
    assert joined["beside_wide"] == joined["first_only"]
    assert first_range_in_memo == {"whole": True, "first_only": False, "beside_wide": False}


_TRANSPORTED_MODELS = {
    spec: build for spec, build in (
        ("trunc-int:right:4", lambda: trunc_integration(4, "right")),
        ("trunc-int:left:4", lambda: trunc_integration(4, "left")),
        ("free:2:2", lambda: free_halfshuffle(2, 2)),
        ("free:1:4", lambda: free_halfshuffle(1, 4)),
    )
}


@pytest.mark.parametrize("spec", _TRANSPORTED_MODELS)
@settings(max_examples=5, deadline=None)
@given(data=st.data())
def test_every_catalog_residual_transforms_as_a_tensor_under_a_change_of_basis(spec, data):
    # Every catalog law is basis-free, so on the table moved to the basis
    # P e_0, ..., P e_{dim-1} each residual list is the original's, moved:
    # R'(e_i, e_j, e_k) = P⁻¹ R(P e_i, P e_j, P e_k).  P is a product of 3·dim
    # random elementary matrices, so the moved table is dense and goes
    # through the sparse join on far more entries than the model it came from.
    table = _TRANSPORTED_MODELS[spec]()
    dim = table.dim
    move = st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                     st.sampled_from([-2, -1, 1, 2])).filter(lambda m: m[0] != m[1])
    p, p_inv = oracles.elementary_product(dim, data.draw(st.lists(move, min_size=3 * dim,
                                                                  max_size=3 * dim)))
    moved = oracles.transported_table(table, p, p_inv)
    for name, identity in catalog().items():
        want = oracles.transported_residuals(evaluate(table, identity), p, p_inv)
        assert evaluate(moved, identity) == want, name
