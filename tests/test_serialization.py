"""Wire-format round trips, canonical bytes, and reader validation."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from zinbielkit import cli, fuzz
from zinbielkit.algebra import algebra_from_entries
from zinbielkit.serialization import (
    InputFormatError,
    dump_path,
    dumps,
    from_jsonable,
    load_path,
    loads,
    to_jsonable,
)


def test_round_trips_are_byte_stable_across_kinds():
    objs = fuzz.random_objects()
    assert len(objs) == 500
    for obj in objs:
        text = dumps(obj)
        back = loads(text)
        assert back == obj
        assert dumps(back) == text


def test_entry_order_does_not_affect_bytes():
    fwd = algebra_from_entries(3, [(0, 1, 2, 1), (1, 0, 2, "1/2"), (0, 0, 1, 1)])
    rev = algebra_from_entries(3, [(0, 0, 1, 1), (1, 0, 2, "1/2"), (0, 1, 2, 1)])
    assert dumps(fwd) == dumps(rev)
    payload = to_jsonable(fwd)
    assert payload["structure"] == sorted(payload["structure"])


def test_dumps_layout(t3):
    text = dumps(t3)
    assert text.endswith("\n")
    assert text.startswith('{\n  "basis"')
    assert json.loads(text)["kind"] == "algebra"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4), st.integers())
def test_random_algebra_round_trip(dim, seed):
    a = fuzz.random_algebra(random.Random(seed), dim)
    assert loads(dumps(a)) == a


def test_zero_valued_entries_are_dropped():
    payload = {
        "kind": "algebra",
        "dim": 2,
        "basis": ["e0", "e1"],
        "structure": [[0, 0, 1, "0"], [0, 1, 0, "2/4"]],
    }
    a = from_jsonable(payload)
    assert a.c.entries == {(0, 1, 0): __import__("fractions").Fraction(1, 2)}
    assert to_jsonable(a)["structure"] == [[0, 1, 0, "1/2"]]


BAD_PAYLOADS = [
    ("[]", "payload must be a JSON object"),
    ('{"kind": "mystery"}', "unknown kind"),
    ('{"kind": "algebra", "dim": -1}', "nonnegative integer"),
    ('{"kind": "algebra", "dim": true}', "nonnegative integer"),
    ('{"kind": "algebra", "dim": 1, "basis": ["a", "b"]}', "basis must list dim labels"),
    ('{"kind": "algebra", "dim": 1, "basis": [0]}', "labels must be strings"),
    ('{"kind": "algebra", "dim": 1, "basis": ["a"], "structure": 3}', "must be a list"),
    (
        '{"kind": "algebra", "dim": 1, "basis": ["a"], "structure": [[0, 0, 0]]}',
        "4-element lists",
    ),
    (
        '{"kind": "algebra", "dim": 1, "basis": ["a"], "structure": [[0, 0, 1, "1"]]}',
        "out of range",
    ),
    (
        '{"kind": "algebra", "dim": 1, "basis": ["a"], "structure": [[0, 0, 0, "1.5"]]}',
        "structure value",
    ),
    (
        '{"kind": "algebra", "dim": 1, "basis": ["a"], "structure": [[0, 0, 0, 1]]}',
        "scalar string",
    ),
    (
        '{"kind": "algebra", "dim": 1, "basis": ["a"],'
        ' "structure": [[0, 0, 0, "1"], [0, 0, 0, "2"]]}',
        "duplicate structure entry",
    ),
    ('{"kind": "coalgebra", "dim": 1, "coproduct": [[0, 0, 0, "1/0"]]}', "coproduct value"),
    (
        '{"kind": "coalgebra", "dim": 2,'
        ' "coproduct": [[0, 0, 1, "1"], [0, 0, 1, "1"]]}',
        "duplicate coproduct entry",
    ),
    (
        '{"kind": "bimodule", "algebra": {"kind": "algebra", "dim": 1, "basis": ["a"],'
        ' "structure": []}, "v_dim": 1, "l": [[0, 1, 0, "1"]], "r": []}',
        "out of range",
    ),
    (
        '{"kind": "bimodule", "algebra": {"kind": "algebra", "dim": 1, "basis": ["a"],'
        ' "structure": []}, "v_dim": 1, "l": [[0, 0, 0, "1"], [0, 0, 0, "1"]], "r": []}',
        "duplicate l entry",
    ),
    ('{"kind": "matched_pair", "A": null}', "payload must be an object"),
    (
        '{"kind": "bialgebra_candidate", "A": {"kind": "coalgebra", "dim": 0,'
        ' "coproduct": []}, "Astar": null}',
        'expected kind "algebra"',
    ),
    ("not json at all", "not valid JSON"),
    ('{"kind": ["algebra"]}', "unknown kind ['algebra']"),
    ('{"kind": {"algebra": 1}}', "unknown kind {'algebra': 1}"),
    # a repeated index triple is rejected whatever the value of its first row
    (
        '{"kind": "algebra", "dim": 1, "basis": ["a"],'
        ' "structure": [[0, 0, 0, "0"], [0, 0, 0, "1"]]}',
        "duplicate structure entry (0,0,0)",
    ),
    (
        '{"kind": "coalgebra", "dim": 1,'
        ' "coproduct": [[0, 0, 0, "0"], [0, 0, 0, "1"]]}',
        "duplicate coproduct entry (0,0,0)",
    ),
    # past the interpreter's str -> int digit limit: one plain line
    (
        '{"kind": "algebra", "dim": 1, "basis": ["a"],'
        ' "structure": [[0, 0, 0, "1/' + "9" * 5000 + '"]]}',
        "structure value: rational literal of 5002 characters is too long",
    ),
    ('{"kind": "algebra", "dim": ' + "9" * 5000 + "}", "JSON integer is too long"),
]


@pytest.mark.parametrize("text,fragment", BAD_PAYLOADS, ids=range(len(BAD_PAYLOADS)))
def test_malformed_inputs_are_rejected(text, fragment):
    with pytest.raises(InputFormatError) as err:
        loads(text)
    assert fragment in str(err.value)


def test_cli_rejects_a_repeated_structure_entry_in_either_order(tmp_path, capsys):
    path = tmp_path / "table.json"
    for values in (("0", "1"), ("1", "0"), ("0", "0")):
        rows = [[0, 0, 0, v] for v in values]
        payload = {"kind": "algebra", "dim": 1, "basis": ["a"], "structure": rows}
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert cli.main(["check", str(path), "right_zinbiel"]) == 2, values
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: duplicate structure entry (0,0,0)\n", values


def test_dimension_mismatch_in_candidate_surfaces_as_value_error():
    text = json.dumps(
        {
            "kind": "bialgebra_candidate",
            "A": {"kind": "algebra", "dim": 1, "basis": ["a"], "structure": []},
            "Astar": {"kind": "algebra", "dim": 2, "basis": ["a", "b"], "structure": []},
        }
    )
    with pytest.raises(ValueError):
        loads(text)


def test_path_round_trip(tmp_path, t3):
    target = tmp_path / "table.json"
    dump_path(target, t3)
    assert load_path(target) == t3


def test_load_path_missing_file(tmp_path):
    with pytest.raises(InputFormatError) as err:
        load_path(tmp_path / "absent.json")
    assert "cannot read" in str(err.value)


def test_to_jsonable_rejects_foreign_types():
    with pytest.raises(TypeError):
        to_jsonable(42)
