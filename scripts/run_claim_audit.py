#!/usr/bin/env python3
"""Run the claim audit across the standard model family.

One report per model, in family order: truncated integration tables in both
orientations, the free half-shuffle tables, and the trivial models.  The
orientation gate is picked per table off its claim pass (right first) unless
forced.  Claims are evaluated sequentially; --parallel N is accepted for
compatibility and ignored.

    python scripts/run_claim_audit.py
    python scripts/run_claim_audit.py --max-n 5 --claims lie_admissible,center_symmetric
    python scripts/run_claim_audit.py --format json --out audit.json
"""

from __future__ import annotations

import gc

if __name__ == "__main__":  # a short-lived process, as in zinbielkit/__main__.py
    gc.disable()

import argparse
import json
import sys
from pathlib import Path

from zinbielkit import fuzz
from zinbielkit.audit import audit_claims, audit_report_jsonable, audit_report_text
# unused: bound for a tracer that patches these names here (ROADMAP item 1, step A)
from zinbielkit.identities import left_zinbiel_residuals, right_zinbiel_residuals  # noqa: F401
from zinbielkit.reports import JsonEncoder


def run(args: argparse.Namespace) -> str:
    claims = args.claims.split(",") if args.claims is not None else None
    reports = [
        audit_claims(table, args.orientation, claims=claims, subject=name)
        for name, table in fuzz.standard_models(args.max_n)
    ]
    if args.format == "json":
        payloads = [audit_report_jsonable(report) for report in reports]
        collection = {"kind": "claim_audit_collection", "reports": payloads}
        return json.dumps(collection, indent=2, sort_keys=True, cls=JsonEncoder) + "\n"
    return "\n".join(audit_report_text(report) for report in reports)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--max-n", type=int, default=8, metavar="N",
                   help="largest truncation order to include")
    p.add_argument("--orientation", choices=("auto", "right", "left"), default="auto")
    p.add_argument("--claims", default=None, help="comma-separated claim filter")
    p.add_argument("--parallel", type=int, default=1, metavar="N",
                   help="accepted for compatibility; ignored")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", type=Path, default=None, metavar="FILE")
    args = p.parse_args(argv)
    try:
        text = run(args)
        if args.out:
            try:
                args.out.write_text(text, encoding="utf-8")
            except OSError as exc:
                raise ValueError(f"cannot write {args.out}: {exc}") from None
        else:
            sys.stdout.write(text)
    except ValueError as exc:  # an unknown claim or an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
