"""Shared verdict container and deterministic formatting helpers.

All renderers sort their sparse data, so a report is byte-identical no matter
how the underlying computation was scheduled.  Every command loads this
module, so the JSON writer has its own, ``jsonwriter``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping, NamedTuple

from .tensors import format_scalar


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
        return verdict_named(self.verdicts, name)

    def jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "holds": self.holds,
            "verdicts": [v.jsonable() for v in self.verdicts],
        }


def verdict_named(verdicts, name: str) -> Verdict:
    """The first of ``verdicts`` called ``name``; KeyError if there is none."""
    for v in verdicts:
        if v.name == name:
            return v
    raise KeyError(name)


def sorted_rows(entries: Mapping) -> list:
    """``[[*index, "p/q"], ...]`` of sparse ``{index tuple: value}`` entries,
    sorted by index: the rows of every table's JSON form."""
    return [[*key, format_scalar(v)] for key, v in sorted(entries.items())]


def scaled_scalar(value, scale: int = 1) -> str:
    """``format_scalar(value / scale)``.  With ``scale`` 1 the value may be a
    Fraction; otherwise it is an int, reduced by one gcd without a Fraction."""
    if scale == 1:
        return format_scalar(value)
    g = gcd(value, scale)
    return str(value // g) if g == scale else f"{value // g}/{scale // g}"


def format_sum(entries, name, scale: int = 1) -> str:
    """Render sorted (key, coefficient) pairs as a signed sum of ``name(key)``,
    e.g. ``e1 + (1/2)e3 - (1/30)e5``; coefficients are ``scale`` times the
    exact ones."""
    if not entries:
        return "0"
    parts = []
    for idx, (k, val) in enumerate(entries):
        mag = abs(val)
        body = name(k) if mag == scale else f"({scaled_scalar(mag, scale)}){name(k)}"
        if idx == 0:
            parts.append(body if val > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if val > 0 else '-'} {body}")
    return " ".join(parts)


def format_vector(v: Mapping[int, Fraction], scale: int = 1) -> str:
    """Render a sparse vector ``{index: coefficient}`` as e.g.
    ``e1 + (1/2)e3 - (1/30)e5``; it may hold ``scale`` times the exact
    coefficients, as ints."""
    return format_sum(sorted(v.items()), lambda k: f"e{k}", scale)


def format_assignment(assignment: tuple[int, ...]) -> str:
    return "(" + ",".join(f"e{i}" for i in assignment) + ")"


def vector_jsonable(v: Mapping[int, Fraction], scale: int = 1) -> list:
    """[[index, "p/q"], ...] of a sparse vector, ``scale`` as in format_vector."""
    return [[k, scaled_scalar(val, scale)] for k, val in sorted(v.items())]
