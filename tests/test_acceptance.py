"""Acceptance gate: ten numbered criteria, one test and one printed line each.

Every comparison is exact rational equality; there are no tolerances.  A
failing criterion prints its FAIL line and carries the measured
counterexample in the assertion message.
"""

from fractions import Fraction

import pytest

from zinbielkit import fuzz
from zinbielkit.algebra import algebra_from_entries
from zinbielkit.audit import ClaimSpec, audit_claims, evaluate_claim
from zinbielkit.bialgebra import (
    check_form,
    check_manin_triple,
    dual_reps,
    equivalence_audit,
    standard_pairing,
)
from zinbielkit.bimodule import check_bimodule, semidirect_sum
from zinbielkit.cli import main as cli_main
from zinbielkit.coalgebra import (
    check_co_left,
    check_co_right,
    dualize,
    dualize_co,
    opposite_coproduct,
)
from zinbielkit.identities import left_zinbiel_residuals, right_zinbiel_residuals
from zinbielkit.matched_pair import check_matched_pair, double
from zinbielkit.models import trunc_integration
from zinbielkit.reports import format_vector
from zinbielkit.serialization import dumps, loads

import oracles


def _report(number: int, ok: bool, detail: str = ""):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'}")
    assert ok, detail


def test_criterion_01_model_validity():
    right_ok = all(
        not right_zinbiel_residuals(trunc_integration(n, "right")) for n in range(9)
    )
    left_hits = {n: left_zinbiel_residuals(trunc_integration(n, "left")) for n in range(9)}
    ok = right_ok and not any(left_hits.values())
    detail = ""
    if not ok:
        n, hits = next((n, h) for n, h in sorted(left_hits.items()) if h)
        (x, y, z), res = hits[0]
        detail = (
            f"right tables n<=8: {'all residuals zero' if right_ok else 'violated'}; "
            f"left table at order {n}: ((e{x} e{y}) e{z}) - (e{x} (e{y} e{z})) - "
            f"(e{x} (e{z} e{y})) = {format_vector(res)} != 0. "
            "The weight i/(i+j) annihilates e0 as a left factor while e_i * e0 = e_i, "
            "so every triple (e_i, e0, e0) with 1 <= i <= n breaks the left identity; "
            "no truncation order n >= 1 passes."
        )
    _report(1, ok, detail)


def test_criterion_02_orientation_duality(algebra_family):
    mismatches = []
    for name, a in algebra_family:
        op = a.opposite()
        if (not left_zinbiel_residuals(a)) != (not right_zinbiel_residuals(op)):
            mismatches.append((name, "left vs right-of-opposite"))
        if (not right_zinbiel_residuals(a)) != (not left_zinbiel_residuals(op)):
            mismatches.append((name, "right vs left-of-opposite"))
    ok = len(algebra_family) >= 220 and not mismatches
    _report(2, ok, f"instances={len(algebra_family)} mismatches={mismatches[:3]}")


def test_criterion_03_symmetrization_of_passing_models():
    commutative = ClaimSpec("commutative", "(x y)", "(y x)", "product")
    associative = ClaimSpec("associative", "((x y) z)", "(x (y z))", "product")
    checked, bad = 0, []
    for name, a in fuzz.standard_models(8):
        if right_zinbiel_residuals(a) and left_zinbiel_residuals(a):
            continue  # the table passes neither orientation; nothing is claimed
        checked += 1
        sym = a.symmetrize()
        for spec in (commutative, associative):
            v = evaluate_claim(sym, spec)
            if not v.holds:
                bad.append((name, spec.name, v.witness_text))
    ok = checked >= 15 and not bad
    _report(3, ok, f"checked={checked} failures={bad[:3]}")


def test_criterion_04_refutations_reproduced_exactly(goldens_dir):
    t5 = trunc_integration(5, "right")
    l3 = trunc_integration(3, "left")
    problems = []

    # independent recomputation, straight off the structure constants
    if oracles.jacobiator(t5, 0, 1, 2) != {5: Fraction(-1, 30)}:
        problems.append("oracle jacobiator at (e0,e1,e2)")
    if oracles.associator(l3, 1, 0, 2) != {3: Fraction(1, 3)} or oracles.associator(
        l3, 2, 0, 1
    ) != {3: Fraction(2, 3)}:
        problems.append("oracle associator pair at (e1,e0,e2)")
    # and via symbolic integration alone, independent of any table
    if oracles.right_integration_product(0, 0, 5) != {1: Fraction(1)}:
        problems.append("integration product e0*e0")
    if oracles.right_integration_product(1, 1, 5) != {3: Fraction(1, 2)}:
        problems.append("integration product e1*e1")
    if oracles.right_integration_product(0, 1, 5) != {2: Fraction(1)}:
        problems.append("integration product e0*e1")
    if oracles.right_integration_product(2, 0, 5) != {3: Fraction(1, 3)}:
        problems.append("integration product e2*e0")

    # engine agreement
    rep5 = audit_claims(t5, "right", claims=["lie_admissible", "right_relation"])
    v = rep5.verdict_for("lie_admissible")
    first = v.witness_data["failures"][0] if v.witness_data else None
    if v.holds or first["tuple"] != [0, 1, 2] or first["residual"] != [[5, "-1/30"]]:
        problems.append("engine jacobiator witness")
    v = rep5.verdict_for("right_relation")
    first = v.witness_data["failures"][0] if v.witness_data else None
    if (
        v.holds
        or first["tuple"] != [0, 0, 1]
        or first["lhs"] != [[3, "1/2"]]
        or first["rhs"] != [[3, "1/3"]]
    ):
        problems.append("engine relation witness")
    v = audit_claims(l3, "left", claims=["center_symmetric"]).verdict_for("center_symmetric")
    hit = next((f for f in v.witness_data["failures"] if f["tuple"] == [1, 0, 2]), None)
    if hit is None or hit["lhs"] != [[3, "1/3"]] or hit["rhs"] != [[3, "2/3"]]:
        problems.append("engine center-symmetry witness")

    # all three witnesses verbatim in the goldens
    w_jac = "at (e0,e1,e2): residual = -(1/30)e5"
    w_rel = "at (e0,e0,e1): lhs = (1/2)e3, rhs = (1/3)e3"
    w_ctr = "at (e1,e0,e2): lhs = (1/3)e3, rhs = (2/3)e3"
    right_txt = (goldens_dir / "audit_trunc_right_5.txt").read_text(encoding="utf-8")
    left_txt = (goldens_dir / "audit_trunc_left_3.txt").read_text(encoding="utf-8")
    combined = (goldens_dir / "claim_audit.json").read_text(encoding="utf-8")
    if w_jac not in right_txt or w_rel not in right_txt or w_ctr not in left_txt:
        problems.append("witness missing from text golden")
    if any(w not in combined for w in (w_jac, w_rel, w_ctr)):
        problems.append("witness missing from combined golden")

    _report(4, not problems, f"failed pieces: {problems}")


def test_criterion_05_confirmations():
    derived = ["derived_1", "derived_2", "derived_3", "derived_4"]
    models = list(fuzz.standard_models(8))
    models += [
        (f"opposite:{name}", a.opposite())
        for name, a in models
        if not right_zinbiel_residuals(a)
    ]
    right_checked = left_checked = 0
    bad = []
    for name, a in models:
        if not right_zinbiel_residuals(a):
            right_checked += 1
            rep = audit_claims(a, "right", claims=["left_relation"] + derived, subject=name)
            bad.extend((name, v.name) for v in rep.claims if not v.holds)
        if not left_zinbiel_residuals(a):
            left_checked += 1
            rep = audit_claims(a, "left", claims=["right_relation"], subject=name)
            bad.extend((name, v.name) for v in rep.claims if not v.holds)
            # the mirrored consequences live on the opposite table
            rep = audit_claims(a.opposite(), "right", claims=derived, subject=name)
            bad.extend((name, f"mirror:{v.name}") for v in rep.claims if not v.holds)
    ok = right_checked >= 15 and left_checked >= 15 and not bad
    _report(5, ok, f"right={right_checked} left={left_checked} failures={bad[:4]}")


def test_criterion_06_semidirect_equivalence(bimodule_family):
    mismatches = [
        name
        for name, b in bimodule_family
        if (not check_bimodule(b)) != (not right_zinbiel_residuals(semidirect_sum(b)))
    ]
    ok = len(bimodule_family) == 212 and not mismatches
    _report(6, ok, f"instances={len(bimodule_family)} mismatches={mismatches[:3]}")


def test_criterion_07_matched_pair_equivalence(matched_pair_family):
    mismatches = [
        name
        for name, mp in matched_pair_family
        if (not check_matched_pair(mp)) != (not right_zinbiel_residuals(double(mp)))
    ]
    ok = len(matched_pair_family) == 205 and not mismatches
    _report(7, ok, f"instances={len(matched_pair_family)} mismatches={mismatches[:3]}")


def test_criterion_08_duality(algebra_family):
    def by_basis(residuals):
        out = {}
        for triple, r in residuals:
            for k, v in r.items():
                out.setdefault(k, {})[triple] = v
        return out

    bad = []
    for name, a in algebra_family:
        c = dualize(a)
        if dualize_co(c).c.entries != a.c.entries or dualize_co(c).dim != a.dim:
            bad.append((name, "round trip"))
            continue
        co_r = {v.basis_index: dict(v.residual) for v in check_co_right(c)}
        co_l = {v.basis_index: dict(v.residual) for v in check_co_left(c)}
        if co_r != by_basis(right_zinbiel_residuals(a)):
            bad.append((name, "right transpose bridge"))
        if co_l != by_basis(left_zinbiel_residuals(a)):
            bad.append((name, "left transpose bridge"))
        op = opposite_coproduct(c)
        if [v.basis_index for v in check_co_right(op)] != sorted(co_l):
            bad.append((name, "opposite swap right"))
        if [v.basis_index for v in check_co_left(op)] != sorted(co_r):
            bad.append((name, "opposite swap left"))
    ok = len(algebra_family) >= 220 and not bad
    _report(8, ok, f"failures={bad[:3]}")


def test_criterion_09_bialgebra_layer():
    bad = []
    for n in range(9):
        form = standard_pairing(n)
        if not check_form(algebra_from_entries(2 * n, []), form).holds:
            bad.append((n, "form properties"))
        if any((i < n) == (j < n) for (i, j) in form.g.entries):
            bad.append((n, "isotropy"))

    candidates = fuzz.seeded_candidates()
    for name, bc in candidates:
        c_holds = check_manin_triple(bc).verdict_for("double_right_zinbiel").holds
        if c_holds != (not check_matched_pair(dual_reps(bc))):
            bad.append((name, "double check vs matched pair"))
        rep = equivalence_audit(bc)
        if len(rep.booleans) != 4 or not all(isinstance(b, bool) for b in rep.booleans):
            bad.append((name, "incomplete quadruple"))
        if bool(rep.findings) != (len(set(rep.booleans)) != 1):
            bad.append((name, "disagreement not flagged"))
    ok = len(candidates) == 20 and not bad
    _report(9, ok, f"failures={bad[:3]}")


def test_criterion_10_engineering_contracts(tmp_path, monkeypatch, request, capsys):
    problems = []

    objs = fuzz.random_objects()
    if len(objs) != 500:
        problems.append(f"object count {len(objs)}")
    for idx, obj in enumerate(objs):
        text = dumps(obj)
        back = loads(text)
        if back != obj or dumps(back) != text:
            problems.append(f"round trip object {idx}")
            break

    monkeypatch.chdir(request.config.rootpath)
    payloads = set()
    for workers in (1, 2, 8):
        out = tmp_path / f"audit_{workers}"
        code = cli_main(
            ["audit", "--model", "trunc-int:right:5", "--orientation", "right",
             "--parallel", str(workers), "--out", str(out)]
        )
        if code != 0:
            problems.append(f"audit exit {code} at workers={workers}")
        payloads.add(out.read_bytes())
    if len(payloads) != 1:
        problems.append("parallel scheduling changed report bytes")

    corpus = [
        (["check", "tests/corpus/model_t3.json", "right_zinbiel"], 0),
        (["audit", "tests/corpus/zero_pair.json"], 0),
        (["check", "tests/corpus/model_l3.json", "right_zinbiel"], 1),
        (["check", "tests/corpus/broken_bimodule.json", "axioms"], 1),
        (["check", "tests/corpus/malformed.json", "right_zinbiel"], 2),
        (["check", "tests/corpus/bad_kind.json", "right_zinbiel"], 2),
        (["audit", "tests/corpus/no_such_file.json"], 2),
    ]
    for argv, expected in corpus:
        got = cli_main(argv)
        if got != expected:
            problems.append(f"exit {got} != {expected} for {' '.join(argv)}")
    capsys.readouterr()

    _report(10, not problems, f"failed pieces: {problems}")
