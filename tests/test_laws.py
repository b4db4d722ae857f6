"""The views of ``identities.LAWS``, and each law decided at the generic point.

Every claim, co-check, bimodule axiom and relation, and pair law reads its
sides off one table of laws, renamed.  ``LITERAL`` keeps, verbatim, the 30
law strings those checks spelled out before the table existed, so each view
is compared with the string it replaced, not with the table it reads.
"""

from collections import Counter
from fractions import Fraction

import pytest

import oracles
from zinbielkit import bimodule, fuzz, matched_pair
from zinbielkit.audit import CLAIMS, audit_claims
from zinbielkit.bimodule import _AXIOMS, _RELATIONS, regular_bimodule, semidirect_sum
from zinbielkit.coalgebra import CO_IDENTITIES
from zinbielkit.identities import CLAIM_SIDES, LAWS, evaluate_pass, parse_sides, parse_term_sum
from zinbielkit.models import free_halfshuffle, trunc_integration
from zinbielkit.reports import Verdict
from zinbielkit.tensors import Matrix

# (where, name) -> (lhs, rhs) as the checks wrote them, rhs "" for 0.  A
# bimodule axiom, co_jacobi and the co-check antisymmetric were one-sided.
LITERAL = {
    ("claim", "left_zinbiel"): ("((x y) z)", "(x (y z)) + (x (z y))"),
    ("claim", "right_zinbiel"): ("(x (y z))", "((x y) z) + ((y x) z)"),
    ("claim", "left_relation"): ("(x (y z))", "(y (x z))"),
    ("claim", "right_relation"): ("((x y) z)", "((x z) y)"),
    ("claim", "derived_1"): ("(x (z y))", "((x z) y) + ((z x) y)"),
    ("claim", "derived_2"): ("(z (x y))", "((x z) y) + ((z x) y)"),
    ("claim", "derived_3"): ("(z (y x))", "((y z) x) + ((z y) x)"),
    ("claim", "derived_4"): ("(x (y z))", "(y (x z))"),
    ("claim", "commutative"): ("(x y)", "(y x)"),
    ("claim", "associative"): ("((x y) z)", "(x (y z))"),
    ("claim", "jacobi"): ("(x (y z)) + (y (z x)) + (z (x y))", ""),
    ("claim", "center_symmetric"): ("((x y) z) - (x (y z))", "((z y) x) - (z (y x))"),
    ("claim", "lie_admissible"): (
        "(x (y z)) - (x (z y)) - ((y z) x) + ((z y) x) "
        "+ (y (z x)) - (y (x z)) - ((z x) y) + ((x z) y) "
        "+ (z (x y)) - (z (y x)) - ((x y) z) + ((y x) z)",
        "",
    ),
    ("co", "antisymmetric"): ("(x y) + (y x)", ""),
    ("co", "co_jacobi"): ("(x (y z)) + ((x z) y) - ((x y) z)", ""),
    ("co", "co_right_relation_a"): ("(x (y z))", "(y (x z))"),
    ("co", "co_right_relation_b"): ("(x (y z))", "(z (y x))"),
    ("co", "co_left_relation_a"): ("((x y) z)", "((x z) y)"),
    ("co", "co_left_relation_b"): ("((x y) z)", "((z y) x)"),
    ("axiom", "left_composition"): ("(x (y v)) - ((x y) v) - ((y x) v)", ""),
    ("axiom", "mixed_composition"): ("(x (v y)) - (v (x y))", ""),
    ("axiom", "right_composition"): ("(v (x y)) - ((v x) y) - ((x v) y)", ""),
    ("relation", "left_of_product_l_then_r"): ("((x y) v)", "((x v) y)"),
    ("relation", "left_of_product_r_then_l"): ("((x y) v)", "(x (v y))"),
    ("relation", "right_maps_commute"): ("((v y) x)", "((v x) y)"),
    ("pair", "representation"): ("((x y) v)", "(x (y v))"),
    ("pair", "bracket_representation"): ("((x y) v)", "(x (y v)) - (y (x v))"),
    ("pair", "commassoc_compatibility"): ("(x (a b))", "((x a) b) + ((a x) b)"),
    ("pair", "lie_compatibility"): (
        "(x (a b)) + ((a x) b) - ((b x) a)", "((x a) b) + (a (x b))"),
    ("pair", "antisymmetric"): ("(x y)", "- (y x)"),
}

# The co-checks' variable column, and the claim each remaining co-check read.
CO_VARIABLES = {name: ("x", "y") if name in ("cocommutative", "antisymmetric") else ("x", "y", "z")
                for name in CO_IDENTITIES}
CO_CLAIMS = {"co_right": "right_zinbiel", "co_left": "left_zinbiel",
             "cocommutative": "commutative", "coassociative": "associative",
             "co_derived_1": "derived_1", "co_derived_2": "derived_2", "co_derived_3": "derived_3"}


def test_the_literal_pins_cover_every_law_row():
    assert len(LITERAL) == 30
    assert len(set(LITERAL.values())) == 27  # three rows restated another verbatim
    for where, table in (("claim", CLAIM_SIDES), ("axiom", _AXIOMS), ("relation", _RELATIONS)):
        assert list(table) == [name for at, name in LITERAL if at == where]
    assert list(CO_IDENTITIES) == [
        "co_right", "co_left", "cocommutative", "coassociative", "antisymmetric", "co_jacobi",
        "co_right_relation_a", "co_right_relation_b", "co_left_relation_a", "co_left_relation_b",
        "co_derived_1", "co_derived_2", "co_derived_3"]
    assert set(CO_IDENTITIES) == {name for where, name in LITERAL if where == "co"} | set(CO_CLAIMS)


def _pair_law_sides(monkeypatch) -> dict:
    """The sides each pair check and the sub-adjacent map pass on, by verdict
    name, read by stand-ins for the scans they call."""
    seen = {}

    def witness(name, table, sides, *args, **kwargs):
        seen.setdefault(name, tuple(sides))
        return Verdict(name, True)

    def claim(table, spec, evaluated=None):
        seen.setdefault(spec.name, (spec.lhs, spec.rhs))
        return Verdict(spec.name, True)

    monkeypatch.setattr(matched_pair, "first_witness_verdict", witness)
    monkeypatch.setattr(bimodule, "first_witness_verdict", witness)
    monkeypatch.setattr(matched_pair, "evaluate_claim", claim)
    a = trunc_integration(1, "right")
    zero = (Matrix.zero(2, 2),) * 2
    out = {}
    for kind, check in (("commassoc", matched_pair.check_commassoc_matched_pair),
                        ("lie", matched_pair.check_lie_matched_pair)):
        check(a, a, zero, zero)
        out.update({(kind, name): sides for name, sides in seen.items()})
        seen.clear()
    bimodule.induced_subadjacent_map(regular_bimodule(a))
    out.update({("subadjacent", name): sides for name, sides in seen.items()})
    return out


_XYV, _XAB = ("x", "y", "v"), ("x", "a", "b")


def _views(monkeypatch) -> dict:
    """(where, name) -> [(sides now, variables, domain kind, one-sided)]: each
    place that reads the law pinned under that key.  Domain kinds: "all" for
    every variable over the whole table, "xyv" for x and y over the base and
    v over the module of a semidirect sum, "xab" for x over the base and a and
    b over the module."""
    pair = _pair_law_sides(monkeypatch)
    views = {}
    for name, sides in CLAIM_SIDES.items():
        views[("claim", name)] = [(sides, None, "all", False)]
    for kind, claim in (("commassoc", "commutative"), ("commassoc", "associative"),
                        ("lie", "jacobi")):
        views[("claim", claim)] += [(pair[(kind, f"{side}_{claim}")], None, "all", False)
                                    for side in "gh"]
    for name, (variables, *sides) in CO_IDENTITIES.items():
        key = ("claim", CO_CLAIMS[name]) if name in CO_CLAIMS else ("co", name)
        views.setdefault(key, []).append((tuple(sides), variables, "all", True))
    for name, sides in _AXIOMS.items():
        views[("axiom", name)] = [(sides, _XYV, "xyv", True)]
    for name, sides in _RELATIONS.items():
        views[("relation", name)] = [(sides, _XYV, "xyv", False)]
    reads = {
        "representation": [("commassoc", "mu_representation"), ("commassoc", "rho_representation")],
        "bracket_representation": [("lie", "rho_representation"), ("lie", "mu_representation"),
                                   ("subadjacent", "bracket_representation")],
        "commassoc_compatibility": [("commassoc", "compat_mu"), ("commassoc", "compat_rho")],
        "lie_compatibility": [("lie", "compat_on_h"), ("lie", "compat_on_g")],
    }
    for law, keys in reads.items():
        variables, kind = (_XAB, "xab") if "compatibility" in law else (_XYV, "xyv")
        views[("pair", law)] = [(pair[key], variables, kind, False) for key in keys]
    views[("pair", "antisymmetric")] = [(pair[("lie", f"{side}_antisymmetric")], None, "all", False)
                                        for side in "gh"]
    assert len(pair) == 17 and views.keys() == LITERAL.keys()
    return views


def _sums(sides, one_sided: bool) -> tuple:
    """The term sums a check reads off ``sides``: lhs - rhs, or both sides."""
    if one_sided:
        return (parse_sides(*sides).terms,)
    return tuple(parse_term_sum(side) if side else () for side in sides)


def test_every_view_has_the_variables_and_terms_of_the_string_it_replaced(monkeypatch):
    for key, views in _views(monkeypatch).items():
        old = LITERAL[key]
        for sides, variables, _, one_sided in views:
            assert parse_sides(*sides).variables == parse_sides(*old).variables, key
            if key[0] == "co":
                assert variables == CO_VARIABLES[key[1]], key
            assert [Counter(terms) for terms in _sums(sides, one_sided)] == [
                Counter(terms) for terms in _sums(old, one_sided)], key


def _scan_tables(kind: str, table):
    """(table, domains) on which a check of this domain kind reads a model."""
    if kind == "all":
        return table, None
    n, semidirect = table.dim, semidirect_sum(regular_bimodule(table))
    p, q = range(n), range(n, semidirect.dim)
    return semidirect, (p, p, q) if kind == "xyv" else (p, q, q)


def test_every_view_gives_the_hits_of_the_string_it_replaced(monkeypatch):
    views = _views(monkeypatch)
    compared = 0
    for _, model in fuzz.standard_models(4):
        for key, rows in views.items():
            for sides, variables, kind, one_sided in rows:
                variables = variables or parse_sides(*LITERAL[key]).variables
                table, domains = _scan_tables(kind, model)
                domains = domains or (range(table.dim),) * len(variables)
                got, want = (evaluate_pass(table, [(variables, domains, _sums(s, one_sided))])[0]
                             for s in (sides, LITERAL[key]))
                assert got == want, (key, model)
                compared += bool(want[1])
    assert compared >= 300  # scans with a hit (310), so hit lists, not just verdicts, are compared


# -- each law decided at the generic point ----------------------------------------

# The free right Zinbiel algebra on d generators is the half-shuffle algebra
# (J.-L. Loday, Math. Scand. 77, 1995): a multilinear law of degree d holds in
# every right Zinbiel algebra iff it holds at the generators of free:d:d.  So
# each law is read there, one generator per variable, on four tables: R the
# free right table, O its opposite (the free left one), S its symmetrization
# x*y + y*x (also that of O) and C its commutator x*y - y*x.  A law's entry
# lists the tables it holds on.
GENERIC = {
    "left_zinbiel": "O",
    "right_zinbiel": "R",
    "left_relation": "RS",
    "right_relation": "OS",
    "commutative": "S",
    "associative": "S",
    "jacobi": "",  # not even on C: the free Zinbiel commutator is not a Lie bracket
    "center_symmetric": "S",
    "lie_admissible": "S",
    "antisymmetric": "C",
    "co_jacobi": "",
    "co_right_relation_b": "S",
    "co_left_relation_b": "S",
    "left_of_product_r_then_l": "S",
    "bracket_representation": "",
    "lie_compatibility": "",
}


def _generic_tables(d: int) -> dict:
    free = free_halfshuffle(d, d)
    return {"R": free, "O": free.opposite(), "S": free.symmetrize(), "C": free.commutator()}


def _generic_residual(table, identity) -> dict:
    """{word: value} of lhs - rhs at the generators, one per variable."""
    domains = tuple(range(i, i + 1) for i in range(len(identity.variables)))
    scale, hits = evaluate_pass(table, [(identity.variables, domains, (identity.terms,))])[0]
    assert len(hits) <= 1
    return {table.basis_labels[k]: Fraction(u, scale) for _, r, _ in hits for k, u in r.items()}


def _word_product(kind: str, u: tuple, v: tuple, n: int) -> dict:
    """The product of two words on table ``kind``, off ``oracles.halfshuffle_product``."""
    uv, vu = oracles.halfshuffle_product(u, v, n), oracles.halfshuffle_product(v, u, n)
    if kind in "RO":
        return uv if kind == "R" else vu
    out = dict(uv)
    for w, c in vu.items():
        out[w] = out.get(w, 0) + (c if kind == "S" else -c)
    return out


def _word_value(tree, at: dict, table: str, n: int) -> dict:
    """The value of a product tree on words, each variable ``at`` its word,
    every product read off ``oracles.halfshuffle_product``."""
    if isinstance(tree, str):
        return {at[tree]: Fraction(1)}
    out: dict = {}
    for u, a in _word_value(tree[0], at, table, n).items():
        for v, b in _word_value(tree[1], at, table, n).items():
            for w, c in _word_product(table, u, v, n).items():
                out[w] = out.get(w, 0) + a * b * c
    return out


def _oracle_residual(table: str, identity) -> dict:
    n = len(identity.variables)
    at = {name: ("abcdefghijklmnopqrstuvwxyz"[i],) for i, name in enumerate(identity.variables)}
    out: dict = {}
    for coeff, tree in identity.terms:
        for w, c in _word_value(tree, at, table, n).items():
            out["".join(w)] = out.get("".join(w), 0) + coeff * c
    return {w: c for w, c in out.items() if c}


def test_every_law_is_decided_at_the_generic_point():
    assert GENERIC.keys() == LAWS.keys()
    tables = {d: _generic_tables(d) for d in (2, 3)}
    assert tables[3]["S"].c.entries == tables[3]["O"].symmetrize().c.entries
    decided = {}
    for name, sides in LAWS.items():
        identity = parse_sides(*sides)
        holds = ""
        for kind, table in tables[len(identity.variables)].items():
            residual = _generic_residual(table, identity)
            assert residual == _oracle_residual(kind, identity), (name, kind)
            holds += "" if residual else kind
        decided[name] = holds
    assert decided == GENERIC


def _holds_on_every_right_model(spec) -> bool:
    verdicts = []
    for _, model in fuzz.standard_models(8):
        report = audit_claims(model, "right", claims=[spec.name])
        if not report.vacuous:
            verdicts.append(report.claims[0].holds)
    assert len(verdicts) >= 10
    return all(verdicts)


@pytest.mark.parametrize("spec", CLAIMS, ids=[spec.name for spec in CLAIMS])
def test_a_claim_holds_generically_iff_on_every_right_model(spec):
    identity = parse_sides(spec.lhs, spec.rhs)
    table = "S" if spec.target == "symmetrized product" else "R"
    generic = not _generic_residual(_generic_tables(len(identity.variables))[table], identity)
    assert generic == _holds_on_every_right_model(spec)
