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

# (input, check, golden stem, exit code, formats): one check per witness
# shape, so every verdict shape ``check`` prints is pinned
WITNESS_SHAPE_CHECKS = (
    ("tests/corpus/broken_bimodule.json", "axioms", "axioms_broken", 1, ("text", "json")),
    ("tests/corpus/dual_t3.json", "co_right", "co_right_dual_t3", 0, ("text", "json")),
    ("tests/corpus/dual_t3.json", "co_left", "co_left_dual_t3", 1, ("text", "json")),
    ("tests/corpus/dual_t3.json", "cocomm_coassoc", "cocomm_coassoc_dual_t3", 1, ("json",)),
    ("tests/corpus/dual_t3.json", "lie_coalgebra", "lie_coalgebra_dual_t3", 1, ("json",)),
    ("tests/corpus/dual_reps_t3.json", "matched_pair", "matched_pair_dual_reps_t3", 1, ("json",)),
    ("trunc-int:left:3", "right_zinbiel", "right_zinbiel_l3", 1, ("json",)),
)


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

    for fmt in ("text", "json"):
        ext = "txt" if fmt == "text" else "json"
        _cli(
            ["audit", "--model", "trunc-int:right:5", "--orientation", "right",
             "--format", fmt, "--out", str(goldens / f"audit_trunc_right_5.{ext}")]
        )
        _cli(
            ["audit", "--model", "trunc-int:left:3", "--orientation", "left",
             "--format", fmt, "--out", str(goldens / f"audit_trunc_left_3.{ext}")]
        )

    reports = [
        json.loads((goldens / "audit_trunc_right_5.json").read_text(encoding="utf-8")),
        json.loads((goldens / "audit_trunc_left_3.json").read_text(encoding="utf-8")),
    ]
    combined = {"kind": "claim_audit_collection", "reports": reports}
    (goldens / "claim_audit.json").write_text(
        json.dumps(combined, indent=2, sort_keys=True, cls=JsonEncoder) + "\n", encoding="utf-8"
    )

    _cli(
        ["audit", "regular-bimodule:trunc-int:right:5",
         "--out", str(goldens / "audit_bimodule_regular_t5.txt")]
    )
    _cli(
        ["audit", "tests/corpus/dual_t3.json",
         "--out", str(goldens / "audit_coalgebra_dual_t3.txt")]
    )
    _cli(
        ["audit", "tests/corpus/candidate_t2_zero.json",
         "--out", str(goldens / "audit_candidate_t2_zero.txt")]
    )
    _cli(
        ["audit", "tests/corpus/broken_bimodule.json",
         "--out", str(goldens / "audit_bimodule_broken.txt")]
    )
    for src, name in (
        ("regular-bimodule:trunc-int:right:5", "bimodule_regular_t5"),
        ("tests/corpus/broken_bimodule.json", "bimodule_broken"),
        ("tests/corpus/dual_t3.json", "coalgebra_dual_t3"),
        ("tests/corpus/candidate_t2_zero.json", "candidate_t2_zero"),
    ):
        _cli(["audit", src, "--format", "json", "--out", str(goldens / f"audit_{name}.json")])

    # the positive control: all four conditions hold, and the double is a Manin triple
    positive = "tests/corpus/candidate_dim2_positive.json"
    for fmt, ext in (("text", "txt"), ("json", "json")):
        _cli(["audit", positive, "--format", fmt,
              "--out", str(goldens / f"audit_candidate_dim2_positive.{ext}")])
    _cli(["check", positive, "manin_triple",
          "--out", str(goldens / "check_manin_triple_dim2_positive.txt")])

    # structural checks that fail: each pins its first witness
    for src, check, name in (
        ("regular-bimodule:trunc-int:right:5", "subadjacent", "subadjacent_regular_t5"),
        ("tests/corpus/broken_bimodule.json", "derived_relations", "derived_relations_broken"),
        ("tests/corpus/dual_t3.json", "aux", "aux_dual_t3"),
        ("tests/corpus/candidate_t2_zero.json", "manin_triple", "manin_triple_t2_zero"),
    ):
        for fmt, ext in (("text", "txt"), ("json", "json")):
            _cli(
                ["check", src, check, "--format", fmt,
                 "--out", str(goldens / f"check_{name}.{ext}")],
                expect=1,
            )

    for src, check, name, code, formats in WITNESS_SHAPE_CHECKS:
        for fmt in formats:
            ext = "txt" if fmt == "text" else "json"
            _cli(
                ["check", src, check, "--format", fmt,
                 "--out", str(goldens / f"check_{name}.{ext}")],
                expect=code,
            )

    for pair, code in (("pair_regular_t5", 0), ("dual_reps_t3", 1)):
        src = f"tests/corpus/{pair}.json"
        for fmt, ext in (("text", "txt"), ("json", "json")):
            _cli(
                ["audit", src, "--format", fmt,
                 "--out", str(goldens / f"audit_{pair}.{ext}")]
            )
        _cli(
            ["check", src, "matched_pair",
             "--out", str(goldens / f"check_matched_pair_{pair}.txt")],
            expect=code,
        )

    _cli(
        ["check", "trunc-int:right:3", "right_zinbiel",
         "--out", str(goldens / "check_right_zinbiel_t3.txt")]
    )
    _cli(
        ["check", "trunc-int:left:3", "right_zinbiel",
         "--out", str(goldens / "check_right_zinbiel_l3.txt")],
        expect=1,
    )
    _cli(
        ["construct", "semidirect", "regular-bimodule:trunc-int:right:3",
         "--out", str(goldens / "construct_semidirect_t3.json")]
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
