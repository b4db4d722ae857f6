"""Batch command line: check, audit, construct, model.

Exit codes: 0 = checks pass (or an audit completed), 1 = a violation was
found, 2 = input error, or an ``--out`` that cannot be written.  All reports
are deterministic.  ``check`` and ``audit`` share one engine, the sparse join
of ``identities``: identities and claims on an algebra read it by basis
assignment (``evaluate_sides``), and the coalgebra checks read it by output
index on the dual product table (``evaluate_by_output``).  It runs
sequentially; --parallel N is accepted for compatibility and ignored.

Inputs are JSON files, or inline model specs: trunc-int:right:N,
trunc-int:left:N, free:K:M, zero:N, and regular-bimodule:SPEC.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import AlgebraTable
from .audit import audit_claims, audit_report_jsonable, audit_report_text
from .bialgebra import BialgebraCandidate, check_manin_triple, equivalence_audit
from .bimodule import (
    Bimodule,
    check_bimodule,
    check_derived_relations,
    induced_subadjacent_map,
    regular_bimodule,
    semidirect_sum,
)
from .coalgebra import (
    CoalgebraTable,
    check_aux_coalgebra_identities,
    check_co_left,
    check_co_right,
    check_cocomm_coassoc,
    check_lie_coalgebra,
    dualize,
    dualize_co,
    format_triples,
    opposite_coproduct,
    triples_jsonable,
)
from .identities import (
    catalog,
    evaluate,
    left_zinbiel_residuals,
    parse_identity,
    right_zinbiel_residuals,
)
from .matched_pair import (
    MatchedPair,
    check_matched_pair,
    double,
    format_violation,
    induced_commassoc_pair,
    induced_lie_pair,
)
from .models import free_halfshuffle, trunc_integration
from .reports import format_assignment, format_vector, vector_jsonable
from .serialization import InputFormatError, dumps, load_path


def _build_model(spec: str):
    parts = spec.split(":")
    try:
        if parts[0] == "trunc-int" and len(parts) == 3:
            orientation = parts[1]
            n = int(parts[2])
            if orientation not in ("right", "left") or n < 0:
                raise ValueError(spec)
            return trunc_integration(n, orientation)
        if parts[0] == "free" and len(parts) == 3:
            letters, max_len = int(parts[1]), int(parts[2])
            return free_halfshuffle(letters, max_len)
        if parts[0] == "zero" and len(parts) == 2:
            n = int(parts[1])
            if n < 0:
                raise ValueError(spec)
            from .algebra import algebra_from_entries

            return algebra_from_entries(n, [])
    except ValueError:
        raise InputFormatError(f"bad model spec: {spec!r}") from None
    raise InputFormatError(f"unknown model spec: {spec!r}")


_MODEL_PREFIXES = ("trunc-int:", "free:", "zero:")


def _resolve_input(text: str):
    """A model spec builds an object; anything else is read as a JSON file.

    regular-bimodule:REST wraps the algebra named by REST (itself a model
    spec or a JSON file) in its regular bimodule.
    """
    if text.startswith("regular-bimodule:"):
        base = _resolve_input(text[len("regular-bimodule:"):])
        if not isinstance(base, AlgebraTable):
            raise InputFormatError("regular-bimodule: needs an algebra input")
        return regular_bimodule(base)
    if text.startswith(_MODEL_PREFIXES):
        return _build_model(text)
    return load_path(text)


def _emit(text: str, out_path: str | None):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputFormatError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None):
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", out_path)


# -- check -------------------------------------------------------------------


def _first_failing(verdicts):
    """(holds, witness, count) of a verdict sequence, witnessed by its first failure."""
    failing = [v for v in verdicts if not v.holds]
    if not failing:
        return True, None, 0
    first = failing[0]
    return False, {"failing": first.name, "witness": first.witness_data,
                   "text": first.line()}, len(failing)


def _check_algebra(a: AlgebraTable, name: str):
    cat = catalog()
    if name in cat:
        ident = cat[name]
    elif "(" in name:
        ident = parse_identity(name)
    else:
        raise InputFormatError(f"unknown identity {name!r} (and not an expression)")
    residuals = evaluate(a, ident)
    if not residuals:
        return True, None, 0
    first = residuals[0]
    witness = {
        "tuple": list(first.assignment),
        "variables": list(ident.variables),
        "residual": vector_jsonable(first.value),
        "text": f"at {format_assignment(first.assignment)}: "
        f"residual = {format_vector(first.value)}",
    }
    return False, witness, len(residuals)


def _check_coalgebra(c: CoalgebraTable, name: str):
    if name in ("co_right", "co_left"):
        hits = check_co_right(c) if name == "co_right" else check_co_left(c)
        if not hits:
            return True, None, 0
        first = hits[0]
        witness = {
            "basis_index": first.basis_index,
            "residual": triples_jsonable(first.residual),
            "text": f"at e{first.basis_index}: residual = {format_triples(first.residual)}",
        }
        return False, witness, len(hits)
    bundles = {
        "cocomm_coassoc": check_cocomm_coassoc,
        "lie_coalgebra": check_lie_coalgebra,
        "aux": check_aux_coalgebra_identities,
    }
    if name not in bundles:
        raise InputFormatError(f"unknown coalgebra check {name!r}")
    return _first_failing(bundles[name](c).verdicts)


def _check_bimodule(b: Bimodule, name: str):
    if name == "axioms":
        hits = check_bimodule(b)
        if not hits:
            return True, None, 0
        first = hits[0]
        witness = {
            "axiom": first.axiom,
            "pair": list(first.pair),
            "text": f"{first.axiom} fails at (e{first.pair[0]},e{first.pair[1]})",
        }
        return False, witness, len(hits)
    if name == "derived_relations":
        report = check_derived_relations(b)
        if report.vacuous:
            return False, {"text": "vacuous: bimodule axioms fail"}, 1
        return _first_failing(report.relations)
    if name == "subadjacent":
        report = induced_subadjacent_map(b)
        v = report.representation
        if v.holds:
            return True, None, 0
        return False, {"witness": v.witness_data, "text": v.line()}, 1
    raise InputFormatError(f"unknown bimodule check {name!r}")


def _check_matched_pair(mp: MatchedPair, name: str):
    if name not in ("matched_pair", "compatibility"):
        raise InputFormatError(f"unknown matched-pair check {name!r}")
    hits = check_matched_pair(mp)
    if not hits:
        return True, None, 0
    first = hits[0]
    witness = {
        "condition": first.condition,
        "where": list(first.where),
        "text": format_violation(first),
    }
    return False, witness, len(hits)


def _check_candidate(bc: BialgebraCandidate, name: str):
    if name != "manin_triple":
        raise InputFormatError(f"unknown bialgebra-candidate check {name!r}")
    return _first_failing(check_manin_triple(bc).verdicts)


def cmd_check(args) -> int:
    obj = _resolve_input(args.input)
    name = args.name
    if isinstance(obj, AlgebraTable):
        holds, witness, count = _check_algebra(obj, name)
    elif isinstance(obj, CoalgebraTable):
        holds, witness, count = _check_coalgebra(obj, name)
    elif isinstance(obj, Bimodule):
        holds, witness, count = _check_bimodule(obj, name)
    elif isinstance(obj, MatchedPair):
        holds, witness, count = _check_matched_pair(obj, name)
    else:
        holds, witness, count = _check_candidate(obj, name)

    if args.format == "json":
        _emit_json(
            {
                "kind": "check_report",
                "input": args.input,
                "check": name,
                "holds": holds,
                "violations": count,
                "witness": witness,
            },
            args.out,
        )
    else:
        if holds:
            _emit(f"{name}: HOLDS ({args.input})\n", args.out)
        else:
            detail = witness.get("text", "") if witness else ""
            _emit(
                f"{name}: FAILS ({args.input}) violations={count}\n  {detail}\n",
                args.out,
            )
    return 0 if holds else 1


# -- audit -------------------------------------------------------------------


def _pick_orientation(a: AlgebraTable, requested: str) -> str:
    if requested != "auto":
        return requested
    if not right_zinbiel_residuals(a, first_only=True):
        return "right"
    if not left_zinbiel_residuals(a, first_only=True):
        return "left"
    return "right"


def _audit_sections(obj) -> list:
    """(title, bundle-or-report) sections for non-algebra audits."""
    if isinstance(obj, Bimodule):
        derived = check_derived_relations(obj)
        return [
            ("axioms", derived.axioms),
            ("derived_relations", derived),
            ("subadjacent", induced_subadjacent_map(obj)),
        ]
    if isinstance(obj, MatchedPair):
        return [
            ("compatibility", check_matched_pair(obj)),
            ("induced_commassoc_pair", induced_commassoc_pair(obj)),
            ("induced_lie_pair", induced_lie_pair(obj)),
        ]
    if isinstance(obj, CoalgebraTable):
        return [
            ("as_given:aux", check_aux_coalgebra_identities(obj)),
            ("as_given:cocomm_coassoc", check_cocomm_coassoc(obj)),
            ("as_given:lie_coalgebra", check_lie_coalgebra(obj)),
            ("opposite:aux", check_aux_coalgebra_identities(opposite_coproduct(obj))),
        ]
    return [("equivalence", equivalence_audit(obj))]


def cmd_audit(args) -> int:
    if (args.input is None) == (args.model is None):
        raise InputFormatError("audit needs exactly one of a file argument or --model SPEC")
    subject = args.model if args.model is not None else args.input
    obj = _resolve_input(subject)
    claims = args.claims.split(",") if args.claims else None

    if isinstance(obj, AlgebraTable):
        orientation = _pick_orientation(obj, args.orientation)
        report = audit_claims(obj, orientation, claims=claims, subject=subject)
        if args.format == "json":
            _emit_json(audit_report_jsonable(report), args.out)
        else:
            _emit(audit_report_text(report), args.out)
        return 0

    lines = [f"audit: {subject}"]
    payload = {"kind": "audit_report", "subject": subject, "sections": []}
    for title, section in _audit_sections(obj):
        if isinstance(section, list):  # raw violation list
            ok = not section
            lines.append(f"[{title}] {'HOLDS' if ok else f'FAILS ({len(section)} violations)'}")
            if not ok:
                first = section[0]
                if hasattr(first, "axiom"):
                    text = f"{first.axiom} at {tuple(first.pair)}"
                else:
                    text = format_violation(first)
                lines.append(f"  first: {text}")
            payload["sections"].append({"title": title, "holds": ok,
                                        "violations": len(section)})
        elif hasattr(section, "verdicts"):
            lines.extend(f"[{title}] {v.line()}" for v in section.verdicts)
            payload["sections"].append({"title": title, **section.jsonable()})
        elif hasattr(section, "conditions"):  # equivalence report
            lines.extend(section.lines())
            payload["sections"].append({"title": title, **section.jsonable()})
        elif hasattr(section, "relations"):  # derived-relations report
            if section.vacuous:
                lines.append(f"[{title}] vacuous (axioms fail)")
                payload["sections"].append({"title": title, "vacuous": True})
            else:
                lines.extend(f"[{title}] {v.line()}" for v in section.relations)
                payload["sections"].append(
                    {
                        "title": title,
                        "vacuous": False,
                        "verdicts": [v.jsonable() for v in section.relations],
                    }
                )
        else:  # subadjacent report
            v = section.representation
            lines.append(f"[{title}] {v.line()}")
            payload["sections"].append({"title": title, **v.jsonable()})
    if args.format == "json":
        _emit_json(payload, args.out)
    else:
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- construct / model -------------------------------------------------------


def cmd_construct(args) -> int:
    obj = _resolve_input(args.input)
    kind = args.kind
    if kind in ("opposite", "symmetrize", "commutator"):
        if not isinstance(obj, AlgebraTable):
            raise InputFormatError(f"{kind} needs an algebra input")
        built = getattr(obj, kind)()
    elif kind == "semidirect":
        if not isinstance(obj, Bimodule):
            raise InputFormatError("semidirect needs a bimodule input")
        built = semidirect_sum(obj)
    elif kind == "double":
        if not isinstance(obj, MatchedPair):
            raise InputFormatError("double needs a matched-pair input")
        built = double(obj)
    elif kind == "dual":
        if isinstance(obj, AlgebraTable):
            built = dualize(obj)
        elif isinstance(obj, CoalgebraTable):
            built = dualize_co(obj)
        else:
            raise InputFormatError("dual needs an algebra or coalgebra input")
    elif kind == "bialgebra-double":
        if not isinstance(obj, BialgebraCandidate):
            raise InputFormatError("bialgebra-double needs a bialgebra_candidate input")
        from .bialgebra import drinfeld_double

        built = drinfeld_double(obj)
    else:
        raise InputFormatError(f"unknown construction {kind!r}")
    _emit(dumps(built), args.out)
    return 0


def cmd_model(args) -> int:
    _emit(dumps(_build_model(args.spec)), args.out)
    return 0


# -- entry point -------------------------------------------------------------


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="zinbielkit",
        description="Exact structure-constant checks for Zinbiel-type tables.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=("text", "json"), default="text")
        sp.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="accepted for compatibility; ignored")
        sp.add_argument("--out", default=None, metavar="FILE")

    c = sub.add_parser("check", help="evaluate one identity or structural check")
    c.add_argument("input", help="JSON file or model spec")
    c.add_argument("name", help="identity name, expression, or structural check")
    common(c)
    c.set_defaults(func=cmd_check)

    a = sub.add_parser("audit", help="run the claim audit for the input kind")
    a.add_argument("input", nargs="?", default=None, help="JSON file or model spec")
    a.add_argument("--model", default=None, metavar="SPEC",
                   help="inline model spec instead of a file")
    a.add_argument("--claims", default=None, help="comma-separated claim filter")
    a.add_argument("--orientation", choices=("auto", "right", "left"), default="auto")
    common(a)
    a.set_defaults(func=cmd_audit)

    k = sub.add_parser("construct", help="derive a new table and print its JSON")
    k.add_argument(
        "kind",
        choices=(
            "opposite",
            "symmetrize",
            "commutator",
            "semidirect",
            "double",
            "dual",
            "bialgebra-double",
        ),
    )
    k.add_argument("input", help="JSON file or model spec")
    k.add_argument("--out", default=None, metavar="FILE")
    k.set_defaults(func=cmd_construct)

    m = sub.add_parser("model", help="emit a named model as algebra JSON")
    m.add_argument("spec", help="trunc-int:right:N | trunc-int:left:N | free:K:M | zero:N")
    m.add_argument("--out", default=None, metavar="FILE")
    m.set_defaults(func=cmd_model)
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:  # InputFormatError and IdentitySyntaxError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
