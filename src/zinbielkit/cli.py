"""Batch command line: check, audit, construct, model.

Exit codes: 0 = checks pass (or an audit completed), 1 = a violation was
found, 2 = input error, or an ``--out`` that cannot be written.  All reports
are deterministic.  ``check`` and ``audit`` share one engine, the sparse join
of ``identities``: identities and claims on an algebra read it by basis
assignment through its one entry (``evaluate_pass``), and the coalgebra
checks read it by output index on the dual product table
(``evaluate_by_output``).  It runs sequentially; --parallel N is accepted for
compatibility and ignored.

Every check gives one ``reports.Verdict`` and a violation count: ``check``
prints the verdict's witness text as its detail line, and in JSON its
witness data plus that text.  An algebra takes a catalog identity or an
expression; the other input kinds take the names in ``_CHECKS``.  ``audit``
renders each section of a non-algebra input from a violation list (its size
and first entry) or from a verdict sequence (one line per verdict); the
equivalence section of a bialgebra candidate is its report's own lines.

Inputs are JSON files, or inline model specs: trunc-int:right:N,
trunc-int:left:N, free:K:M, zero:N, and regular-bimodule:SPEC.

Each command is a fresh interpreter, so this module imports at load time
only what every algebra command runs: ``algebra``, ``identities``,
``models`` and ``reports``.  The rest is imported by the subcommand and
input kind that run it: an algebra ``audit`` loads ``audit``; ``model``,
``construct`` and every JSON input load ``serialization``; and a JSON input
loads the module of its kind with what that imports: ``coalgebra``;
``bimodule``; ``matched_pair`` with ``audit`` and ``bimodule``; or, for a
bialgebra candidate, all of these and ``bialgebra``.  The library functions
that a command looks up here by name when it runs are still bound here at
load time, as ``_deferred`` stand-ins, so a wrapper bound over one of these
names (a profiler's, say) finds it and is what runs.  Any other name is
imported where it is used.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import import_module
from typing import TYPE_CHECKING

from .algebra import AlgebraTable, algebra_from_entries
from .identities import catalog, evaluate, parse_identity
# unused: bound for a tracer that patches these names here (ROADMAP item 1, step A)
from .identities import left_zinbiel_residuals, right_zinbiel_residuals  # noqa: F401
from .models import free_halfshuffle, trunc_integration
from .reports import JsonEncoder, Verdict, format_assignment, format_vector, vector_jsonable
from .tensors import InputFormatError

if TYPE_CHECKING:
    from .bimodule import Bimodule


def _deferred(module: str, *names: str):
    """Stand-ins for ``names`` of ``zinbielkit.<module>``, one per name.

    A stand-in imports the module on its first call and keeps the function
    it finds there for every later call.  So a wrapper bound over this
    module's name (a profiler's, say) wraps the library function once, and
    one bound over the library module's attribute after that first call is
    never reached from here.
    """

    def stand_in(name: str):
        target = None

        def call(*args, **kwargs):
            nonlocal target
            if target is None:
                target = getattr(import_module(f"{__package__}.{module}"), name)
            return target(*args, **kwargs)

        call.__name__ = call.__qualname__ = name
        return call

    return tuple(stand_in(name) for name in names)


audit_report_jsonable, audit_report_text = _deferred(
    "audit", "audit_report_jsonable", "audit_report_text")
check_manin_triple, equivalence_audit = _deferred(
    "bialgebra", "check_manin_triple", "equivalence_audit")
check_bimodule, check_derived_relations, induced_subadjacent_map = _deferred(
    "bimodule", "check_bimodule", "check_derived_relations", "induced_subadjacent_map")
(
    check_aux_coalgebra_identities,
    check_co_left,
    check_co_right,
    check_cocomm_coassoc,
    check_lie_coalgebra,
    dualize,
    dualize_co,
) = _deferred(
    "coalgebra",
    "check_aux_coalgebra_identities",
    "check_co_left",
    "check_co_right",
    "check_cocomm_coassoc",
    "check_lie_coalgebra",
    "dualize",
    "dualize_co",
)
check_matched_pair, double, induced_commassoc_pair, induced_lie_pair = _deferred(
    "matched_pair", "check_matched_pair", "double", "induced_commassoc_pair", "induced_lie_pair")
dumps, load_path = _deferred("serialization", "dumps", "load_path")


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
        from .bimodule import regular_bimodule

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
    _emit(json.dumps(payload, indent=2, sort_keys=True, cls=JsonEncoder) + "\n", out_path)


# -- check -------------------------------------------------------------------


def _counted(verdict_of, name: str, violations: list):
    """(Verdict, count) of a violation list, witnessed by its first entry."""
    return verdict_of(name, violations), len(violations)


def _coalgebra_counted(name: str, violations: list):
    from .coalgebra import coalgebra_verdict

    return _counted(coalgebra_verdict, name, violations)


def _matched_pair_counted(name: str, violations: list):
    from .matched_pair import matched_pair_verdict

    return _counted(matched_pair_verdict, name, violations)


def _first_failing(name: str, verdicts):
    """(Verdict, count) of a verdict sequence, witnessed by its first failure."""
    failing = [v for v in verdicts if not v.holds]
    if not failing:
        return Verdict(name, True), 0
    first = failing[0]
    witness = {"failing": first.name, "witness": first.witness_data}
    return Verdict(name, False, first.line(), witness), len(failing)


def _axioms_verdict(name: str, violations: list) -> Verdict:
    if not violations:
        return Verdict(name, True)
    first = violations[0]
    i, j = first.pair
    return Verdict(name, False, f"{first.axiom} fails at (e{i},e{j})",
                   {"axiom": first.axiom, "pair": [i, j]})


def _derived_relations(b: Bimodule, name: str):
    report = check_derived_relations(b)
    if report.vacuous:
        return Verdict(name, False, "vacuous: bimodule axioms fail", {}), 1
    return _first_failing(name, report.relations)


def _subadjacent(b: Bimodule, name: str):
    v = induced_subadjacent_map(b).representation
    if v.holds:
        return Verdict(name, True), 0
    return Verdict(name, False, v.line(), {"witness": v.witness_data}), 1


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
        return Verdict(name, True), 0
    assignment, residual = residuals[0]
    witness = {
        "tuple": list(assignment),
        "variables": list(ident.variables),
        "residual": vector_jsonable(residual),
    }
    text = f"at {format_assignment(assignment)}: residual = {format_vector(residual)}"
    return Verdict(name, False, text, witness), len(residuals)


# input class name -> (kind, {check name: check(obj, name) -> (Verdict, count)}).
# Keyed by name, so that choosing a check imports no input kind's module.
# Each entry looks its library function up in this module when it is called,
# so a wrapper bound over that name here (a profiler's, say) is what runs.
_CHECKS = {
    "CoalgebraTable": ("coalgebra", {
        "co_right": lambda c, name: _coalgebra_counted(name, check_co_right(c)),
        "co_left": lambda c, name: _coalgebra_counted(name, check_co_left(c)),
        "cocomm_coassoc": lambda c, name: _first_failing(name, check_cocomm_coassoc(c).verdicts),
        "lie_coalgebra": lambda c, name: _first_failing(name, check_lie_coalgebra(c).verdicts),
        "aux": lambda c, name: _first_failing(name, check_aux_coalgebra_identities(c).verdicts),
    }),
    "Bimodule": ("bimodule", {
        "axioms": lambda b, name: _counted(_axioms_verdict, name, check_bimodule(b)),
        "derived_relations": _derived_relations,
        "subadjacent": _subadjacent,
    }),
    "MatchedPair": ("matched-pair", dict.fromkeys(
        ("matched_pair", "compatibility"),
        lambda mp, name: _matched_pair_counted(name, check_matched_pair(mp)),
    )),
    "BialgebraCandidate": ("bialgebra-candidate", {
        "manin_triple": lambda bc, name: _first_failing(name, check_manin_triple(bc).verdicts),
    }),
}


def cmd_check(args) -> int:
    obj = _resolve_input(args.input)
    name = args.name
    if isinstance(obj, AlgebraTable):
        verdict, count = _check_algebra(obj, name)
    else:
        kind, checks = _CHECKS[type(obj).__name__]
        if name not in checks:
            raise InputFormatError(f"unknown {kind} check {name!r}")
        verdict, count = checks[name](obj, name)

    if args.format == "json":
        _emit_json(
            {
                "kind": "check_report",
                "input": args.input,
                "check": name,
                "holds": verdict.holds,
                "violations": count,
                "witness": None if verdict.holds
                else {**verdict.witness_data, "text": verdict.witness_text},
            },
            args.out,
        )
    elif verdict.holds:
        _emit(f"{name}: HOLDS ({args.input})\n", args.out)
    else:
        _emit(
            f"{name}: FAILS ({args.input}) violations={count}\n  {verdict.witness_text}\n",
            args.out,
        )
    return 0 if verdict.holds else 1


# -- audit -------------------------------------------------------------------


def _violations_section(title: str, violations: list, describe):
    """(text lines, JSON section) of a violation list: its size, and its first
    entry as ``describe`` words it."""
    ok = not violations
    lines = [f"[{title}] {'HOLDS' if ok else f'FAILS ({len(violations)} violations)'}"]
    if not ok:
        lines.append(f"  first: {describe(violations[0])}")
    return lines, {"title": title, "holds": ok, "violations": len(violations)}


def _verdicts_section(title: str, verdicts, fields: dict):
    """(text lines, JSON section) of a verdict sequence: a line per verdict;
    ``fields`` is the JSON section after its title."""
    return [f"[{title}] {v.line()}" for v in verdicts], {"title": title, **fields}


def _audit_sections(obj) -> list:
    """Rendered (text lines, JSON section) pairs of a non-algebra audit."""

    def bundle(title, b):
        return _verdicts_section(title, b.verdicts, b.jsonable())

    kind = type(obj).__name__
    if kind == "Bimodule":
        derived = check_derived_relations(obj)
        if derived.vacuous:
            relations = (
                ["[derived_relations] vacuous (axioms fail)"],
                {"title": "derived_relations", "vacuous": True},
            )
        else:
            relations = _verdicts_section(
                "derived_relations", derived.relations,
                {"vacuous": False, "verdicts": [v.jsonable() for v in derived.relations]},
            )
        rep = induced_subadjacent_map(obj).representation
        return [
            _violations_section("axioms", derived.axioms, lambda v: f"{v.axiom} at {v.pair}"),
            relations,
            _verdicts_section("subadjacent", (rep,), rep.jsonable()),
        ]
    if kind == "MatchedPair":
        from .matched_pair import format_violation

        return [
            _violations_section("compatibility", check_matched_pair(obj), format_violation),
            bundle("induced_commassoc_pair", induced_commassoc_pair(obj)),
            bundle("induced_lie_pair", induced_lie_pair(obj)),
        ]
    if kind == "CoalgebraTable":
        from .coalgebra import opposite_coproduct

        return [
            bundle("as_given:aux", check_aux_coalgebra_identities(obj)),
            bundle("as_given:cocomm_coassoc", check_cocomm_coassoc(obj)),
            bundle("as_given:lie_coalgebra", check_lie_coalgebra(obj)),
            bundle("opposite:aux", check_aux_coalgebra_identities(opposite_coproduct(obj))),
        ]
    report = equivalence_audit(obj)
    return [(report.lines(), {"title": "equivalence", **report.jsonable()})]


def cmd_audit(args) -> int:
    if (args.input is None) == (args.model is None):
        raise InputFormatError("audit needs exactly one of a file argument or --model SPEC")
    subject = args.model if args.model is not None else args.input
    obj = _resolve_input(subject)
    claims = args.claims.split(",") if args.claims is not None else None

    if isinstance(obj, AlgebraTable):
        from .audit import audit_claims

        report = audit_claims(obj, args.orientation, claims=claims, subject=subject)
        if args.format == "json":
            _emit_json(audit_report_jsonable(report), args.out)
        else:
            _emit(audit_report_text(report), args.out)
        return 0

    if args.claims is not None or args.orientation != "auto":
        flag = "--claims" if args.claims is not None else "--orientation"
        raise InputFormatError(f"{flag} needs an algebra input")
    sections = _audit_sections(obj)
    if args.format == "json":
        payload = {"kind": "audit_report", "subject": subject,
                   "sections": [section for _, section in sections]}
        _emit_json(payload, args.out)
    else:
        lines = [f"audit: {subject}", *(line for text, _ in sections for line in text)]
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# -- construct / model -------------------------------------------------------


# kind -> (input class names, the input it needs in words, build(obj)).  Keyed
# by class name, as ``_CHECKS`` is.  The builders look ``double``, ``dualize``
# and ``dualize_co`` up in this module when they run, so a wrapper bound over
# one of those names here is what runs.
_CONSTRUCTIONS = {
    "opposite": (("AlgebraTable",), "an algebra", lambda a: a.opposite()),
    "symmetrize": (("AlgebraTable",), "an algebra", lambda a: a.symmetrize()),
    "commutator": (("AlgebraTable",), "an algebra", lambda a: a.commutator()),
    "semidirect": (("Bimodule",), "a bimodule",
                   lambda b: import_module(".bimodule", __package__).semidirect_sum(b)),
    "double": (("MatchedPair",), "a matched-pair", lambda mp: double(mp)),
    "dual": (("AlgebraTable", "CoalgebraTable"), "an algebra or coalgebra",
             lambda x: dualize(x) if isinstance(x, AlgebraTable) else dualize_co(x)),
    "bialgebra-double": (("BialgebraCandidate",), "a bialgebra_candidate",
                         lambda bc: import_module(".bialgebra", __package__).drinfeld_double(bc)),
}


def cmd_construct(args) -> int:
    obj = _resolve_input(args.input)
    kinds, needs, build = _CONSTRUCTIONS[args.kind]
    if type(obj).__name__ not in kinds:
        raise InputFormatError(f"{args.kind} needs {needs} input")
    _emit(dumps(build(obj)), args.out)
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
    k.add_argument("kind", choices=tuple(_CONSTRUCTIONS))
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
