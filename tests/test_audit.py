"""Claim audit: verdicts, complete failure lists, gating, determinism."""

import random
from fractions import Fraction

import pytest

from zinbielkit import audit, fuzz
from zinbielkit.audit import CLAIMS, audit_claims, audit_report_text, evaluate_claim
from zinbielkit.identities import catalog, evaluate_pass
from zinbielkit.models import free_halfshuffle, trunc_integration

import oracles


def _claim(report, name):
    return report.verdict_for(name)


def test_t5_verdict_pattern(t5):
    report = audit_claims(t5, "right", subject="T5")
    assert not report.vacuous
    expected = {
        "right_zinbiel": True,
        "left_zinbiel": False,
        "left_relation": True,
        "right_relation": False,
        "derived_1": True,
        "derived_2": True,
        "derived_3": True,
        "derived_4": True,
        "aguiar_commutative": True,
        "aguiar_associative": True,
        "lie_admissible": False,
        "center_symmetric": False,
    }
    assert {v.name: v.holds for v in report.claims} == expected


def test_t5_jacobiator_witness_exact(t5):
    v = _claim(audit_claims(t5, "right"), "lie_admissible")
    first = v.witness_data["failures"][0]
    assert first["tuple"] == [0, 1, 2]
    assert first["residual"] == [[5, "-1/30"]]
    assert oracles.jacobiator(t5, 0, 1, 2) == {5: Fraction(-1, 30)}
    # repeats kill the bracket, so every failure is a permutation of (0,1,2)
    tuples = [tuple(f["tuple"]) for f in v.witness_data["failures"]]
    assert sorted(tuples) == sorted(
        [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]
    )


def test_t5_relation_witness_exact(t5):
    v = _claim(audit_claims(t5, "right"), "right_relation")
    first = v.witness_data["failures"][0]
    assert first["tuple"] == [0, 0, 1]
    assert first["lhs"] == [[3, "1/2"]]
    assert first["rhs"] == [[3, "1/3"]]


def test_l3_center_failure_list_complete(l3):
    report = audit_claims(l3, "left", subject="L3")
    assert report.vacuous
    v = _claim(report, "center_symmetric")
    failures = {tuple(f["tuple"]): f for f in v.witness_data["failures"]}
    assert len(failures) == 8
    named = failures[(1, 0, 2)]
    assert named["lhs"] == [[3, "1/3"]]
    assert named["rhs"] == [[3, "2/3"]]
    assert v.witness_data["failures"][0]["tuple"] == [0, 0, 1]
    for (i, j, k), f in failures.items():
        want = oracles.center_defect(l3, i, j, k)
        assert f["residual"] == [[m, str(c)] for m, c in sorted(want.items())]


def test_failure_text_lines_match_report_text(l3):
    report = audit_claims(l3, "left")
    text = audit_report_text(report)
    assert "at (e1,e0,e2): lhs = (1/3)e3, rhs = (2/3)e3" in text
    assert "(8 failing basis tuples)" in text
    for v in report.claims:
        if not v.holds:
            for failure in v.witness_data["failures"]:
                assert failure["text"] in text


def test_claim_filter_and_unknown_claim(t3):
    report = audit_claims(t3, "right", claims=["lie_admissible"])
    assert [v.name for v in report.claims] == ["lie_admissible"]
    assert not report.vacuous  # gate evaluated even though filtered out
    with pytest.raises(ValueError):
        audit_claims(t3, "right", claims=["no_such_claim"])
    with pytest.raises(ValueError):
        audit_claims(t3, "diagonal")


def test_vacuous_gate_matches_orientation(l3, t3):
    assert audit_claims(l3, "left").vacuous
    assert audit_claims(l3, "right").vacuous
    assert not audit_claims(t3, "right").vacuous
    assert audit_claims(t3, "left").vacuous


@pytest.mark.parametrize("orientation", ["right", "left"])
def test_filtered_out_gate_is_decided_without_a_claim_run(orientation, l3, t3, monkeypatch):
    selected = ["lie_admissible", "center_symmetric"]
    run = []
    evaluate_claim = audit.evaluate_claim

    def counting(table, spec, target, evaluated=None):
        run.append(spec.name)
        return evaluate_claim(table, spec, target, evaluated)

    monkeypatch.setattr(audit, "evaluate_claim", counting)
    for table in (l3, t3):
        full = audit_claims(table, orientation)
        run.clear()
        report = audit_claims(table, orientation, claims=selected)
        assert run == selected
        assert report.vacuous == full.vacuous
        assert report.claims == tuple(v for v in full.claims if v.name in selected)


def _random_dim3_tables(count: int = 20) -> list:
    rng = random.Random(2418)
    return [(f"random[{i}]", fuzz.random_algebra(rng, 3)) for i in range(count)]


def test_auto_orientation_matches_the_two_scan_pick(algebra_family):
    # auto reads both Zinbiel checks off the claim pass, and scans only a
    # check the filter leaves out; orientation, vacuous and every verdict
    # must be those of the old pick, two first-witness scans before the audit
    others = [c.name for c in CLAIMS if c.name not in ("right_zinbiel", "left_zinbiel")]
    filters = [None, others + ["left_zinbiel"], others + ["right_zinbiel"], others]
    seen = set()
    opposites = [(f"opposite:{name}", table.opposite()) for name, table in fuzz.standard_models()]
    for name, table in algebra_family + opposites + _random_dim3_tables():
        want = audit_claims(table, oracles.reference_pick_orientation(table, "auto"))
        for claims in filters:
            report = audit_claims(table, "auto", claims=claims)
            kept = tuple(v for v in want.claims if claims is None or v.name in claims)
            assert report == want._replace(claims=kept), (name, claims)
            seen.add((report.orientation, report.vacuous))
    assert seen == {("right", False), ("left", False), ("right", True)}


@pytest.mark.parametrize(
    "claims, scans",
    [(None, []), (["lie_admissible", "left_zinbiel"], ["right_zinbiel"]),
     (["lie_admissible"], ["right_zinbiel", "left_zinbiel"])],
)
def test_auto_orientation_scans_only_a_filtered_out_gate(claims, scans, t5, monkeypatch):
    # on the opposite of T5 the right check fails and the left one holds
    run = []
    holds = audit.holds

    def counting(table, identity):
        run.append(next(n for n, i in catalog().items() if i == identity))
        return holds(table, identity)

    monkeypatch.setattr(audit, "holds", counting)
    report = audit_claims(t5.opposite(), "auto", claims=claims)
    assert (report.orientation, report.vacuous) == ("left", False)
    assert run == scans


def test_equal_claims_share_one_failure_list():
    report = audit_claims(trunc_integration(6, "left"), "auto")
    data = {v.name: v.witness_data for v in report.claims}
    for name, source in (("derived_1", "right_zinbiel"), ("derived_2", "right_zinbiel"),
                         ("derived_3", "right_zinbiel"), ("derived_4", "left_relation")):
        assert data[name]["failures"] is data[source]["failures"], name
        assert report.verdict_for(name).witness_text == report.verdict_for(source).witness_text
    assert data["right_zinbiel"]["failures"] and data["left_relation"]["failures"]
    assert [data[n]["variables"] for n in ("derived_1", "derived_2", "derived_3")] == [
        ["x", "z", "y"], ["z", "x", "y"], ["z", "y", "x"]]


def _memo_tables(algebra_family):
    for n in range(7):
        for orientation in ("right", "left"):
            yield f"trunc-int:{orientation}:{n}", trunc_integration(n, orientation)
    yield "free:2:3", free_halfshuffle(2, 3)
    yield "free:2:4", free_halfshuffle(2, 4)
    yield from algebra_family


def test_claims_read_the_audit_memo_as_they_would_alone(algebra_family):
    # One audit formats each value and tuple once for all of its claims;
    # every verdict, witness data included, is the claim's verdict alone.
    failing = 0
    for name, table in _memo_tables(algebra_family):
        sym = table.symmetrize()
        for v, spec in zip(audit_claims(table, "right").claims, CLAIMS):
            target = sym if spec.target == "symmetrized product" else table
            assert v == evaluate_claim(target, spec, spec.target), (name, spec.name)
            failing += not v.holds
    assert failing > 1000


def test_each_witness_value_and_tuple_is_formatted_once_per_audit(monkeypatch):
    table = trunc_integration(12, "left")
    values, tuples = set(), set()
    for target in ("product", "symmetrized product"):
        t = table.symmetrize() if target == "symmetrized product" else table
        scans = [audit._claim_scan(t, spec) for spec in CLAIMS if spec.target == target]
        for scale, hits in evaluate_pass(t, scans):
            for assignment, residual, sides in hits:
                tuples.add(assignment)
                values.update((scale, tuple(sorted((k, u) for k, u in value.items() if u)))
                              for value in (residual, *sides))
    calls = {"format_vector": 0, "vector_jsonable": 0, "format_assignment": 0}
    for name in calls:
        def counting(*args, _name=name, _original=getattr(audit, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(audit, name, counting)
    audit_claims(table, "right")
    assert calls == {
        "format_vector": len(values), "vector_jsonable": len(values),
        "format_assignment": len(tuples),
    }
    # both targets and several scales share the one memo
    assert len({scale for scale, _ in values}) > 1


def test_symmetrized_targets_use_symmetrized_table(l3):
    # sym(L3) is commutative by construction but loses associativity at the
    # constant corner; the claim targets must reflect the symmetrized table
    report = audit_claims(l3, "left")
    assert _claim(report, "aguiar_commutative").holds
    v = _claim(report, "aguiar_associative")
    assert not v.holds
    assert v.witness_data["failures"][0]["tuple"] == [0, 0, 1]


def test_claim_order_is_stable():
    assert [c.name for c in CLAIMS] == [
        "right_zinbiel",
        "left_zinbiel",
        "left_relation",
        "right_relation",
        "derived_1",
        "derived_2",
        "derived_3",
        "derived_4",
        "aguiar_commutative",
        "aguiar_associative",
        "lie_admissible",
        "center_symmetric",
    ]
