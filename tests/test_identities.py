"""Identity DSL: parser, arity rule, evaluator, catalog."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import zinbielkit
from zinbielkit.identities import (
    ArityError,
    IdentitySyntaxError,
    catalog,
    catalog_source,
    evaluate,
    holds,
    parse_identity,
    render_identity,
)
from zinbielkit.models import trunc_integration

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
    assert parse_identity(render_identity(ident)) == ident


def test_catalog_round_trips():
    for name, ident in catalog().items():
        assert parse_identity(catalog_source(name)) == ident
        assert parse_identity(render_identity(ident)) == ident


def test_syntax_errors_carry_position():
    for src, pos in [("(x y", 4), ("x + ", 4), ("1/0 * x", 2), ("x = 1", 4), ("x )", 2)]:
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
    for res in evaluate(t5, left):
        i, j, k = res.assignment
        assert dict(res.value.items()) == oracles.left_zinbiel_defect(t5, i, j, k)


def test_first_only_is_prefix_of_full_scan(l3):
    ident = catalog()["center_symmetric"]
    full = evaluate(l3, ident)
    first = evaluate(l3, ident, first_only=True)
    assert first == full[:1]
    assert first[0].assignment == (0, 0, 1)


def test_worker_count_does_not_change_results(t5):
    ident = catalog()["lie_admissible"]
    base = evaluate(t5, ident)
    assert evaluate(t5, ident, workers=2) == base
    assert evaluate(t5, ident, workers=8) == base
    assert [r.assignment for r in base] == [
        (0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)
    ]


def test_holds_on_degenerate_dims():
    zero = trunc_integration(0, "right")
    for ident in catalog().values():
        assert holds(zero, ident)


def test_coefficient_terms_scale_residuals(t3):
    doubled = parse_identity("2 * (x y) - 2 * (y x)")
    plain = parse_identity("(x y) - (y x)")
    got = {r.assignment: r.value for r in evaluate(t3, doubled)}
    want = {r.assignment: r.value.scale(Fraction(2)) for r in evaluate(t3, plain)}
    assert got == want


def test_public_api_names_resolve():
    assert [name for name in zinbielkit.__all__ if not hasattr(zinbielkit, name)] == []
