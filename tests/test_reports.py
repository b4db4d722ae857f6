"""The JSON writer (``jsonwriter``) and the scaled-integer formatting in
``reports``: each must give exactly what the stdlib encoder and the Fraction
formatters give."""

import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from zinbielkit.jsonwriter import JsonEncoder
from zinbielkit.reports import format_vector, vector_jsonable

TESTS = Path(__file__).resolve().parent


def stdlib(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def ours(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True, cls=JsonEncoder)


def test_encoder_matches_stdlib_on_every_golden_and_corpus_payload():
    paths = sorted(TESTS.glob("goldens/*.json")) + sorted(TESTS.glob("corpus/*.json"))
    checked = 0
    for path in paths:
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError:
            continue  # the corpus's deliberately malformed input
        assert ours(payload) == stdlib(payload), path.name
        checked += 1
    assert checked == len(paths) - 1 > 30


_STRINGS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(['"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", " ", "😀", "a\"b\\c"]),
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**40), 10**40),
    _STRINGS,
)
_TREES = st.recursive(
    _SCALARS,
    lambda kids: st.one_of(st.lists(kids, max_size=4), st.dictionaries(_STRINGS, kids, max_size=4)),
    max_leaves=25,
)


@settings(max_examples=300)
@given(_TREES)
def test_encoder_matches_stdlib_on_random_trees(tree):
    assert ours(tree) == stdlib(tree)


def test_encoder_matches_stdlib_on_a_list_shared_at_two_depths():
    inner = [1, "a"]
    pair = [inner, [2, None]]
    tree = {"a": inner, "b": [inner, {"c": inner}], "d": pair, "e": [pair, [pair]], "f": [[inner]]}
    assert ours(tree) == stdlib(tree)
    assert ours([inner, inner, [inner]]) == stdlib([inner, inner, [inner]])


def test_encoder_matches_stdlib_on_a_list_of_dicts_written_again():
    # An audit's equal claims share one failure list: the writer appends the
    # parts it wrote for it again, which holds only at the same depth.
    value = [[0, "1/2"]]
    failures = [{"tuple": [0, 1], "lhs": value, "rhs": []}, {"tuple": [1, 0], "lhs": value}]
    equal = [dict(f) for f in failures]
    claims = [{"failures": failures}, {"failures": failures}, {"failures": equal}]
    tree = {"claims": claims, "nested": [[{"failures": failures}]], "top": failures}
    assert ours(tree) == stdlib(tree)
    assert ours([failures, failures, [failures]]) == stdlib([failures, failures, [failures]])


@pytest.mark.parametrize(
    "tree",
    [
        1.5,
        [0.1, {"x": -2.0}],
        {"nan": float("nan"), "inf": [float("inf")]},
        {1: "a", 2: [3]},
        {"a": {3: None, 4: True}},
        {"t": (1, 2)},
        [{"deep": [[1, 2], [3.25]]}],
    ],
    ids=["float", "nested-float", "nan", "int-keys", "nested-int-keys", "tuple", "mixed"],
)
def test_encoder_hands_other_types_to_the_stdlib(tree):
    assert ours(tree) == stdlib(tree)


def test_encoder_keeps_the_stdlib_for_other_settings_and_errors():
    tree = {"b": [1, "x"], "a": {"c": None}}
    assert json.dumps(tree, indent=4, cls=JsonEncoder) == json.dumps(tree, indent=4)
    assert json.dumps(tree, cls=JsonEncoder) == json.dumps(tree)
    assert json.dumps(["é"], indent=2, sort_keys=True, ensure_ascii=False, cls=JsonEncoder) == (
        json.dumps(["é"], indent=2, sort_keys=True, ensure_ascii=False)
    )
    with pytest.raises(TypeError):
        ours({"a": object()})
    with pytest.raises(ValueError):
        json.dumps([float("nan")], indent=2, sort_keys=True, allow_nan=False, cls=JsonEncoder)


_EXACT = st.dictionaries(
    st.integers(0, 40),
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(1, 12)),
    max_size=6,
)


@settings(max_examples=300)
@given(_EXACT, st.integers(1, 30))
def test_scaled_integers_format_like_their_fractions(exact, extra):
    scale = math.lcm(1, *(v.denominator for v in exact.values())) * extra
    scaled = {k: int(v * scale) for k, v in exact.items()}
    assert format_vector(scaled, scale=scale) == format_vector(exact)
    assert vector_jsonable(scaled, scale=scale) == vector_jsonable(exact)


def test_scaled_formatting_of_the_empty_value_and_of_unit_coefficients():
    assert format_vector({}, scale=6) == format_vector({}) == "0"
    assert vector_jsonable({}, scale=6) == []
    scaled = {0: 6, 2: -6, 3: 3, 5: -8}
    assert format_vector(scaled, scale=6) == "e0 - e2 + (1/2)e3 - (4/3)e5"
    assert vector_jsonable(scaled, scale=6) == [[0, "1"], [2, "-1"], [3, "1/2"], [5, "-4/3"]]
