#!/usr/bin/env python3
"""Rebuild tests/corpus (CLI inputs) and tests/goldens (expected outputs).

Every golden produced through the command line goes through cli.main with
repo-root-relative paths, so the bytes match what the tests invoke.  The
script refuses to finish if the frozen refutation witnesses are missing
from the audit goldens; that guards against silent engine drift.

    python scripts/regenerate_goldens.py
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from zinbielkit import cli
from zinbielkit.algebra import algebra_from_entries
from zinbielkit.bialgebra import BialgebraCandidate, dual_reps, equivalence_audit
from zinbielkit.bimodule import Bimodule, regular_bimodule
from zinbielkit.fuzz import DEFAULT_SEED, bimodule_as_pair, seeded_candidates
from zinbielkit.matched_pair import MatchedPair, zero_matched_pair
from zinbielkit.models import trunc_integration
from zinbielkit.reports import JsonEncoder
from zinbielkit.serialization import dump_path
from zinbielkit.tensors import Matrix

# witnesses the audit goldens must carry, frozen against an independent oracle
REQUIRED_WITNESSES = {
    "audit_trunc_right_5.txt": (
        "at (e0,e1,e2): residual = -(1/30)e5",
        "at (e0,e0,e1): lhs = (1/2)e3, rhs = (1/3)e3",
    ),
    "audit_trunc_left_3.txt": (
        "at (e1,e0,e2): lhs = (1/3)e3, rhs = (2/3)e3",
    ),
}


def _text_and_json(argv: list[str], stem: str, code: int) -> list:
    """The rows of one command's text and JSON goldens."""
    return [(argv, f"{stem}.txt", code), ([*argv, "--format", "json"], f"{stem}.json", code)]


# (argv, golden, exit code): each CLI golden is the output of one command,
# written with --out; tests/test_cli.py runs every row as a golden case
CLI_GOLDENS = [
    *_text_and_json(["audit", "--model", "trunc-int:right:5", "--orientation", "right"],
                    "audit_trunc_right_5", 0),
    *_text_and_json(["audit", "--model", "trunc-int:left:3", "--orientation", "left"],
                    "audit_trunc_left_3", 0),
    # the auto orientation: read off the claim pass, and scanned apart when
    # the claim filter leaves the gates out
    (["audit", "--model", "trunc-int:left:4"], "audit_trunc_left_4.txt", 0),
    (["audit", "--model", "free:2:3", "--claims", "lie_admissible"],
     "audit_free_2_3_lie_admissible.txt", 0),
    # the audit of each non-algebra input kind, and of the positive candidate
    *_text_and_json(["audit", "regular-bimodule:trunc-int:right:5"], "audit_bimodule_regular_t5", 0),
    *_text_and_json(["audit", "tests/corpus/broken_bimodule.json"], "audit_bimodule_broken", 0),
    *_text_and_json(["audit", "tests/corpus/dual_t3.json"], "audit_coalgebra_dual_t3", 0),
    *_text_and_json(["audit", "tests/corpus/candidate_t2_zero.json"], "audit_candidate_t2_zero", 0),
    *_text_and_json(["audit", "tests/corpus/candidate_dim2_positive.json"],
                    "audit_candidate_dim2_positive", 0),
    *_text_and_json(["audit", "tests/corpus/pair_regular_t5.json"], "audit_pair_regular_t5", 0),
    *_text_and_json(["audit", "tests/corpus/dual_reps_t3.json"], "audit_dual_reps_t3", 0),
    # checks: each failing one pins its first witness, and every verdict
    # shape that ``check`` prints is pinned
    (["check", "tests/corpus/candidate_dim2_positive.json", "manin_triple"],
     "check_manin_triple_dim2_positive.txt", 0),
    *_text_and_json(["check", "regular-bimodule:trunc-int:right:5", "subadjacent"],
                    "check_subadjacent_regular_t5", 1),
    *_text_and_json(["check", "tests/corpus/broken_bimodule.json", "derived_relations"],
                    "check_derived_relations_broken", 1),
    *_text_and_json(["check", "tests/corpus/broken_bimodule.json", "axioms"],
                    "check_axioms_broken", 1),
    *_text_and_json(["check", "tests/corpus/dual_t3.json", "aux"], "check_aux_dual_t3", 1),
    *_text_and_json(["check", "tests/corpus/dual_t3.json", "co_right"], "check_co_right_dual_t3", 0),
    *_text_and_json(["check", "tests/corpus/dual_t3.json", "co_left"], "check_co_left_dual_t3", 1),
    (["check", "tests/corpus/dual_t3.json", "cocomm_coassoc", "--format", "json"],
     "check_cocomm_coassoc_dual_t3.json", 1),
    (["check", "tests/corpus/dual_t3.json", "lie_coalgebra", "--format", "json"],
     "check_lie_coalgebra_dual_t3.json", 1),
    *_text_and_json(["check", "tests/corpus/candidate_t2_zero.json", "manin_triple"],
                    "check_manin_triple_t2_zero", 1),
    (["check", "tests/corpus/pair_regular_t5.json", "matched_pair"],
     "check_matched_pair_pair_regular_t5.txt", 0),
    *_text_and_json(["check", "tests/corpus/dual_reps_t3.json", "matched_pair"],
                    "check_matched_pair_dual_reps_t3", 1),
    (["check", "trunc-int:right:3", "right_zinbiel"], "check_right_zinbiel_t3.txt", 0),
    *_text_and_json(["check", "trunc-int:left:3", "right_zinbiel"], "check_right_zinbiel_l3", 1),
    (["construct", "semidirect", "regular-bimodule:trunc-int:right:3"],
     "construct_semidirect_t3.json", 0),
]


def _cli(argv: list[str], expect: int = 0):
    code = cli.main(argv)
    if code != expect:
        raise SystemExit(f"cli {argv} exited {code}, expected {expect}")


def _broken_bimodule() -> Bimodule:
    b = regular_bimodule(trunc_integration(3, "right"))
    maps = list(b.left_maps)
    entries = dict(maps[1].entries)
    entries[(0, 0)] = entries.get((0, 0), Fraction(0)) + 1
    maps[1] = Matrix(b.v_dim, b.v_dim, entries)
    return Bimodule(b.base, b.v_dim, tuple(maps), b.right_maps)


def _regular_pair(n: int) -> MatchedPair:
    """The regular bimodule of trunc-int:right:n against the zero product."""
    return bimodule_as_pair(regular_bimodule(trunc_integration(n, "right")))


def write_corpus(corpus: Path):
    corpus.mkdir(parents=True, exist_ok=True)
    t2 = trunc_integration(2, "right")
    t3 = trunc_integration(3, "right")

    _cli(["model", "trunc-int:right:3", "--out", str(corpus / "model_t3.json")])
    _cli(["model", "trunc-int:left:3", "--out", str(corpus / "model_l3.json")])
    _cli(["construct", "dual", "trunc-int:right:3", "--out", str(corpus / "dual_t3.json")])
    dump_path(corpus / "regular_t3_bimodule.json", regular_bimodule(t3))
    dump_path(corpus / "broken_bimodule.json", _broken_bimodule())
    dump_path(corpus / "zero_pair.json", zero_matched_pair(t3, t2))
    dump_path(corpus / "pair_regular_t5.json", _regular_pair(5))
    dump_path(corpus / "dual_reps_t3.json", dual_reps(BialgebraCandidate(t3, t3)))
    dump_path(
        corpus / "candidate_t2_zero.json",
        BialgebraCandidate(t2, algebra_from_entries(3, [])),
    )
    # a positive control of the equivalence: e0 e0 = e1 on A, e1 e1 = e0 on A*
    dump_path(
        corpus / "candidate_dim2_positive.json",
        BialgebraCandidate(
            algebra_from_entries(2, [(0, 0, 1, Fraction(1))]),
            algebra_from_entries(2, [(1, 1, 0, Fraction(1))]),
        ),
    )
    (corpus / "malformed.json").write_text("{ this is not json\n", encoding="utf-8")
    (corpus / "bad_kind.json").write_text('{"kind": "mystery"}\n', encoding="utf-8")
    (corpus / "list_kind.json").write_text('{"kind": ["algebra"]}\n', encoding="utf-8")
    (corpus / "dict_kind.json").write_text('{"kind": {"algebra": 1}}\n', encoding="utf-8")


def write_goldens(goldens: Path, seed: int):
    goldens.mkdir(parents=True, exist_ok=True)
    for argv, golden, code in CLI_GOLDENS:
        _cli([*argv, "--out", str(goldens / golden)], expect=code)

    reports = [
        json.loads((goldens / "audit_trunc_right_5.json").read_text(encoding="utf-8")),
        json.loads((goldens / "audit_trunc_left_3.json").read_text(encoding="utf-8")),
    ]
    combined = {"kind": "claim_audit_collection", "reports": reports}
    (goldens / "claim_audit.json").write_text(
        json.dumps(combined, indent=2, sort_keys=True, cls=JsonEncoder) + "\n", encoding="utf-8"
    )

    lines = [f"candidate equivalence quadruples (seed {seed}, 20 candidates)"]
    for name, bc in seeded_candidates(seed):
        rep = equivalence_audit(bc)
        flags = " ".join(f"{v.name}={v.holds}" for v in rep.conditions)
        lines.append(f"{name}: {flags} agreement={rep.agreement}")
        for finding in rep.findings:
            lines.append(f"  finding: {finding}")
    (goldens / "equivalence_quadruples.txt").write_text(
        "\n".join(lines) + "\n", encoding="utf-8"
    )


def verify_witnesses(goldens: Path):
    for fname, needles in REQUIRED_WITNESSES.items():
        text = (goldens / fname).read_text(encoding="utf-8")
        for needle in needles:
            if needle not in text:
                raise SystemExit(f"{fname} is missing frozen witness {needle!r}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument(
        "--root", type=Path, default=Path(__file__).resolve().parents[1],
        help="repository root (default: the checkout containing this script)",
    )
    root = p.parse_args(argv).root

    os.chdir(root)
    write_corpus(root / "tests" / "corpus")
    write_goldens(root / "tests" / "goldens", DEFAULT_SEED)
    verify_witnesses(root / "tests" / "goldens")
    print(f"corpus and goldens rebuilt under {root / 'tests'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
