"""Claim audit: evaluates the catalog of textbook claims on one table.

Each claim is an equation between two term sums, drawn from the identity
catalog's sides.  One sparse-join pass (``identities.evaluate_pass``)
reads every claim on a table and gives both side values and the residual
at every basis tuple where they differ; the audit records that complete
list of failing tuples in lexicographic order, and the first entry doubles
as the headline witness.  To list them all, the pass reads the first
range whole, its claims sharing their tensors; claims equal up to renaming
(``derived_1..3`` and ``right_zinbiel``; ``derived_4`` and ``left_relation``)
share one scan and one failure list, with only their variables differing.
The text and JSON of each witness value and basis tuple are formatted once
per audit, for every claim and both targets.  The orientation and the
vacuous flag are read off the pass's own Zinbiel verdicts (see
``audit_claims``).  Claims whose usual statements assume a Zinbiel table
are still evaluated when the table fails its orientation check; the report
is then marked vacuous rather than suppressed.

Both orientation relations (left_relation, right_relation) are always
evaluated side by side: their usual attribution to an orientation is
contested, and the audit reports rather than decides.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

from .algebra import AlgebraTable
from .identities import CLAIM_SIDES, catalog, difference, evaluate_pass, holds, parse_term_sum
from .reports import Verdict, format_assignment, format_vector, vector_jsonable, verdict_named


class ClaimSpec(NamedTuple):
    name: str
    lhs: str
    rhs: str
    target: str  # "product" or "symmetrized product"


# Claim list, in report order: (claim, catalog sides, target).
CLAIMS: tuple[ClaimSpec, ...] = tuple(
    ClaimSpec(name, *CLAIM_SIDES[sides], target)
    for name, sides, target in (
        ("right_zinbiel", "right_zinbiel", "product"),
        ("left_zinbiel", "left_zinbiel", "product"),
        ("left_relation", "left_relation", "product"),
        ("right_relation", "right_relation", "product"),
        ("derived_1", "derived_1", "product"),
        ("derived_2", "derived_2", "product"),
        ("derived_3", "derived_3", "product"),
        ("derived_4", "derived_4", "product"),
        ("aguiar_commutative", "commutative", "symmetrized product"),
        ("aguiar_associative", "associative", "symmetrized product"),
        ("lie_admissible", "lie_admissible", "product"),
        ("center_symmetric", "center_symmetric", "product"),
    )
)

_ORIENTATION_CLAIM = {"right": "right_zinbiel", "left": "left_zinbiel"}


class AuditReport(NamedTuple):
    subject: str
    orientation: str
    vacuous: bool
    claims: tuple[Verdict, ...]

    def verdict_for(self, name: str) -> Verdict:
        return verdict_named(self.claims, name)


@cache
def _claim_sides(lhs: str, rhs: str) -> tuple[tuple[str, ...], tuple]:
    """(variables, (lhs terms, rhs terms)) of a claim, parsed once per process."""
    sides = (parse_term_sum(lhs), parse_term_sum(rhs) if rhs else ())
    return difference(*sides).variables, sides


def _claim_scan(table: AlgebraTable, spec: ClaimSpec) -> tuple:
    """(variables, domains, sides) of the claim's scan on ``table``."""
    variables, sides = _claim_sides(spec.lhs, spec.rhs)
    return variables, (range(table.dim),) * len(variables), sides


def evaluate_claim(table: AlgebraTable, spec: ClaimSpec, evaluated: tuple | None = None) -> Verdict:
    """Verdict of lhs == rhs with the complete failing-tuple list attached.

    Witness text is the lexicographically first failure; witness data lists
    every failure.  The full list is what makes audit reports diffable
    evidence rather than spot checks; the sparse join finds it without
    visiting the tuples on which every product vanishes.  ``evaluated`` is
    the claim's ``(scale, hits)`` from a pass over ``table`` that read it,
    plus the witness memo of that audit (see ``audit_claims``): the (text,
    JSON) of each value by scale and items, the text of each tuple, and the
    (headline, failures) of each hit list, so each is formatted once per
    audit, and claims that share hits share failures.  Without it the claim
    is scanned and formatted on its own.
    """
    variables = _claim_sides(spec.lhs, spec.rhs)[0]
    if evaluated is None:
        evaluated = (*evaluate_pass(table, [_claim_scan(table, spec)])[0], ({}, {}, {}))
    scale, hits, (by_scale, places, built) = evaluated
    if not hits:
        return Verdict(spec.name, True)
    # The hits are kept with their witnesses, so no other list takes their id.
    key = (id(hits), bool(spec.rhs))
    if key not in built:
        built[key] = (hits, *_witnesses(scale, hits, bool(spec.rhs), by_scale, places))
    _, headline, failures = built[key]
    data = {"variables": list(variables), "target": spec.target,
            "failure_count": len(failures), "failures": failures}
    return Verdict(spec.name, False, headline, data)


def _witnesses(scale: int, hits: list, two_sided: bool, by_scale: dict, places: dict
               ) -> tuple[str, list[dict]]:
    """(headline, failures) of a claim's hits; ``by_scale`` and ``places``
    are the witness memo of ``evaluate_claim``."""
    shown: dict[tuple, tuple[str, list]] = by_scale.setdefault(scale, {})

    def show(value: dict) -> tuple[str, list]:
        """(text, JSON) of a scaled value, found by its items.  Side values
        may hold zeros, so a miss looks again without them before it formats."""
        key = tuple(sorted(value.items()))
        out = shown.get(key)
        if out is None:
            nonzero = tuple((k, v) for k, v in key if v)
            out = shown.get(nonzero)
            if out is None:
                scaled = dict(nonzero)
                out = shown[nonzero] = (
                    format_vector(scaled, scale=scale), vector_jsonable(scaled, scale=scale)
                )
            shown[key] = out
        return out

    failures = []
    for assignment, residual, (lhs, rhs) in hits:
        where = places.get(assignment)
        if where is None:
            where = places[assignment] = format_assignment(assignment)
        (lhs_text, lhs_json), (rhs_text, rhs_json) = show(lhs), show(rhs)
        res_text, res_json = show(residual)
        sides_text = f"at {where}: lhs = {lhs_text}, rhs = {rhs_text}"
        if not failures:
            headline = f"{sides_text}, residual = {res_text}"
        failures.append(
            {
                "tuple": list(assignment),
                "text": sides_text if two_sided else f"at {where}: residual = {res_text}",
                "lhs": lhs_json,
                "rhs": rhs_json,
                "residual": res_json,
            }
        )
    return headline, failures


def check_claim_filter(claims: list[str] | None) -> None:
    """Raise ``ValueError`` on an empty or unknown name in a claim filter."""
    unknown = set(claims or ()) - {c.name for c in CLAIMS}
    if unknown:  # "" for an empty filter, or a stray comma in one
        raise ValueError("empty claim name in the claim filter" if "" in unknown
                         else f"unknown claim(s): {', '.join(sorted(unknown))}")


def audit_claims(
    algebra: AlgebraTable,
    orientation: str,
    *,
    claims: list[str] | None = None,
    subject: str = "algebra",
) -> AuditReport:
    """Run the claim catalog against one table.

    ``orientation`` selects which Zinbiel check gates the vacuous flag:
    ``right``, ``left``, or ``auto``, which picks right if the table passes
    the right check, else left if it passes the left one, else right.  Each
    check is read off its claim's verdict; a check whose claim the filter
    leaves out is a scan of the catalog identity of that name, read slice
    by slice to stop at its first residual, and ``auto`` scans the left one
    only when the right one fails.

    The claims on one table are read in one pass of the sparse join
    (``identities.evaluate_pass``), one whole read listing every failure,
    and equal claims share one scan.  The verdicts are then built one claim
    at a time, and the pass's hits dropped after its last verdict.
    The witness memo lives for this call: every claim of both targets reads
    the values and tuples the earlier ones formatted.  The symmetrized table
    is built only when a selected claim targets it.
    """
    if orientation not in ("auto", *_ORIENTATION_CLAIM):
        raise ValueError(
            f"orientation must be 'auto', 'left' or 'right', got {orientation!r}")
    check_claim_filter(claims)
    selected = [c for c in CLAIMS if claims is None or c.name in claims]
    by_target: dict[str, list[ClaimSpec]] = {}
    for spec in selected:
        by_target.setdefault(spec.target, []).append(spec)
    verdicts: dict[str, Verdict] = {}
    memo: tuple[dict, dict, dict] = ({}, {}, {})
    for target, specs in by_target.items():
        table = algebra.symmetrize() if target == "symmetrized product" else algebra
        evaluations = evaluate_pass(table, [_claim_scan(table, spec) for spec in specs])
        evaluations.reverse()  # popped in turn, so hits go with the pass's last verdict
        for spec in specs:
            verdicts[spec.name] = evaluate_claim(table, spec, (*evaluations.pop(), memo))
        memo[2].clear()  # only the scans of one pass are shared
    results = [verdicts[spec.name] for spec in selected]

    def passes(side: str) -> bool:
        gate = _ORIENTATION_CLAIM[side]
        return verdicts[gate].holds if gate in verdicts else holds(algebra, catalog()[gate])

    if orientation == "auto":
        orientation = next((side for side in ("right", "left") if passes(side)), None)
        vacuous = orientation is None
        orientation = orientation or "right"
    else:
        vacuous = not passes(orientation)
    return AuditReport(subject, orientation, vacuous, tuple(results))


def audit_report_text(report: AuditReport) -> str:
    lines = [
        f"claim audit: {report.subject}",
        f"orientation: {report.orientation}",
        f"status: {'vacuous (orientation check fails)' if report.vacuous else 'applicable'}",
    ]
    width = max((len(v.name) for v in report.claims), default=0)
    by_name = {c.name: c for c in CLAIMS}
    for v in report.claims:
        mark = "HOLDS" if v.holds else "FAILS"
        line = f"  {v.name.ljust(width)}  {mark}"
        if not v.holds and v.witness_data:
            count = v.witness_data["failure_count"]
            line += f" ({count} failing basis tuple{'s' if count != 1 else ''})"
        if by_name[v.name].target == "symmetrized product":
            line += " (on symmetrized product)"
        lines.append(line)
        if not v.holds and v.witness_data:
            for failure in v.witness_data["failures"]:
                lines.append(f"      {failure['text']}")
    return "\n".join(lines) + "\n"


def audit_report_jsonable(report: AuditReport) -> dict:
    return {
        "kind": "audit_report",
        "subject": report.subject,
        "orientation": report.orientation,
        "vacuous": report.vacuous,
        "claims": [
            {
                "claim": v.name,
                "verdict": "holds" if v.holds else "fails",
                "witness": v.witness_data,
            }
            for v in report.claims
        ],
    }
