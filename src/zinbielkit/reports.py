"""Shared verdict container and deterministic formatting helpers.

All renderers sort their sparse data, so a report is byte-identical no matter
how the underlying computation was scheduled.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, NamedTuple

from .tensors import Matrix, Vector, format_scalar


class Verdict(NamedTuple):
    """One named yes/no finding, with an optional preformatted witness."""

    name: str
    holds: bool
    witness_text: str | None = None
    witness_data: dict | None = None

    def line(self) -> str:
        if self.holds:
            return f"{self.name}: HOLDS"
        if self.witness_text:
            return f"{self.name}: FAILS {self.witness_text}"
        return f"{self.name}: FAILS"

    def jsonable(self) -> dict:
        return {
            "name": self.name,
            "verdict": "holds" if self.holds else "fails",
            "witness": self.witness_data,
        }


class VerdictBundle(NamedTuple):
    """A named group of verdicts; holds iff every member does."""

    kind: str
    verdicts: tuple[Verdict, ...]

    @property
    def holds(self) -> bool:
        return all(v.holds for v in self.verdicts)

    def verdict_for(self, name: str) -> Verdict:
        for v in self.verdicts:
            if v.name == name:
                return v
        raise KeyError(name)

    def jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "holds": self.holds,
            "verdicts": [v.jsonable() for v in self.verdicts],
        }


def format_sum(entries, name) -> str:
    """Render sorted (key, coefficient) pairs as a signed sum of ``name(key)``,
    e.g. ``e1 + (1/2)e3 - (1/30)e5``."""
    if not entries:
        return "0"
    parts = []
    for idx, (k, val) in enumerate(entries):
        mag = abs(val)
        body = name(k) if mag == 1 else f"({format_scalar(mag)}){name(k)}"
        if idx == 0:
            parts.append(body if val > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if val > 0 else '-'} {body}")
    return " ".join(parts)


def format_vector(v: Vector | Mapping[int, Fraction], symbol: str = "e") -> str:
    """Render a sparse vector as e.g. ``e1 + (1/2)e3 - (1/30)e5``."""
    entries = sorted(v.entries.items()) if isinstance(v, Vector) else sorted(v.items())
    return format_sum(entries, lambda k: f"{symbol}{k}")


def format_assignment(assignment: tuple[int, ...], symbol: str = "e") -> str:
    return "(" + ",".join(f"{symbol}{i}" for i in assignment) + ")"


def vector_jsonable(v: Vector | Mapping[int, Fraction]) -> list:
    entries = sorted(v.entries.items()) if isinstance(v, Vector) else sorted(v.items())
    return [[k, format_scalar(val)] for k, val in entries]


def format_matrix(m: Matrix) -> str:
    if m.is_zero:
        return "0"
    return ", ".join(f"[{r},{c}]={format_scalar(v)}" for (r, c), v in m.items())


def failed_verdict(name: str, assignment, var_names, lhs, rhs, residual=None) -> Verdict:
    """The failing verdict witnessed by lhs != rhs at a basis assignment; the
    JSON witness carries ``residual`` only if it is given."""
    where = ", ".join(f"{n}=e{i}" for n, i in zip(var_names, assignment))
    text = f"at {where}: lhs = {format_vector(lhs)}, rhs = {format_vector(rhs)}"
    data = {
        "tuple": list(assignment),
        "variables": list(var_names),
        "lhs": vector_jsonable(lhs),
        "rhs": vector_jsonable(rhs),
    }
    if residual is not None:
        data["residual"] = vector_jsonable(residual)
    return Verdict(name, False, text, data)


def matrix_equality_verdict(
    name: str, pairs, var_names: tuple[str, str, str] = ("x", "y", "v")
) -> Verdict:
    """First-witness verdict for a family of matrix equalities.

    ``pairs`` yields ((i, j), lhs, rhs) in scan order; the witness is the first
    column where the matrices differ, reported as module vectors.
    """
    for (i, j), lhs, rhs in pairs:
        diff = lhs - rhs
        if not diff.is_zero:
            beta = min(c for (_, c) in diff.entries)
            return failed_verdict(name, (i, j, beta), var_names, lhs.column(beta), rhs.column(beta))
    return Verdict(name, True)


def vector_equality_verdict(name: str, triples, var_names: tuple[str, ...]) -> Verdict:
    """First-witness verdict for a family of vector equalities.

    ``triples`` yields (assignment, lhs_dict, rhs_dict) in scan order.
    """
    for assignment, lhs, rhs in triples:
        diff = dict(lhs)
        for k, v in rhs.items():
            acc = diff.get(k, 0) - v
            if acc:
                diff[k] = acc
            elif k in diff:
                del diff[k]
        diff = {k: v for k, v in diff.items() if v}
        if diff:
            return failed_verdict(name, assignment, var_names, lhs, rhs, diff)
    return Verdict(name, True)
