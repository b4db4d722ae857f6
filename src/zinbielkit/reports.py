"""Shared verdict container, deterministic formatting helpers and the JSON
writer behind every JSON output.

All renderers sort their sparse data, so a report is byte-identical no matter
how the underlying computation was scheduled.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Mapping, NamedTuple

from .tensors import Matrix, format_scalar


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


class _Unsupported(Exception):
    """A value that JsonEncoder leaves to the stdlib encoder."""


# Levels _write reports: a list of lists of scalars is memoized as one text;
# a dict is above any list that is.
_MEMOIZED, _NESTED = 2, 3

# JSON text of each scalar type, looked up by exact type: a subclass such as
# an IntEnum is left to the stdlib.
_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _write(o, parts: list, depth: int, memo: dict, orders: dict) -> int:
    """Append the indent-2 text of ``o`` at nesting ``depth`` to ``parts``.

    Returns the value's level: 0 for a scalar, one more than its deepest item
    for a list, ``_NESTED`` for a dict.  A list of level ``_MEMOIZED`` (some
    items lists of scalars, the rest scalars) is joined into one part and kept
    in ``memo`` by ``(id, depth)``, so a list object met again costs one
    append.  A list of a higher level is kept there as the span of ``parts``
    it wrote, with its level: met again at the same depth, it appends those
    parts again, the same str objects, so its text is not held twice.  No
    part of a finished span is later joined or removed, since only a list of
    level ``_MEMOIZED`` joins, and it holds no such list.  A scalar item is
    written in place, any other by a recursive call.
    A dict's keys are checked to be str, sorted and encoded once per key
    sequence, kept in ``orders``: an audit's witnesses all share one.
    """
    t = type(o)
    if t is list:
        if not o:
            parts.append("[]")
            return 1
        key = (id(o), depth)
        hit = memo.get(key)
        if type(hit) is str:
            parts.append(hit)
            return _MEMOIZED
        if hit is not None:
            start, stop, level = hit
            parts += parts[start:stop]
            return level
        start, inner = len(parts), "\n" + "  " * (depth + 1)
        head, sep, level = "[" + inner, "," + inner, 0
        for item in o:
            text = _SCALARS.get(type(item))
            if text is not None:
                parts.append(head + text(item))
            else:
                parts.append(head)
                level = max(level, _write(item, parts, depth + 1, memo, orders))
            head = sep
        parts.append("\n" + "  " * depth + "]")
        level += 1
        if level == _MEMOIZED:
            joined = "".join(parts[start:])
            del parts[start:]
            parts.append(joined)
            memo[key] = joined
        elif level > _MEMOIZED:
            memo[key] = (start, len(parts), level)
        return level
    if t is dict:
        if not o:
            parts.append("{}")
            return _NESTED
        keys = tuple(o)
        order = orders.get(keys)
        if order is None:
            if any(type(k) is not str for k in keys):
                raise _Unsupported
            order = orders[keys] = [(k, encode_basestring_ascii(k)) for k in sorted(keys)]
        inner = "\n" + "  " * (depth + 1)
        head, sep = "{" + inner, "," + inner
        for k, name in order:
            item = o[k]
            text = _SCALARS.get(type(item))
            if text is not None:
                parts.append(f"{head}{name}: {text(item)}")
            else:
                parts.append(f"{head}{name}: ")
                _write(item, parts, depth + 1, memo, orders)
            head = sep
        parts.append("\n" + "  " * depth + "}")
        return _NESTED
    text = _SCALARS.get(t)
    if text is None:
        raise _Unsupported
    parts.append(text(o))
    return 0


class JsonEncoder(json.JSONEncoder):
    """The encoder of every JSON output: ``json.dumps(obj, indent=2,
    sort_keys=True, cls=JsonEncoder)`` is byte-identical to the call without
    ``cls``.

    The stdlib uses its C encoder only when ``indent`` is None, so indented
    output goes through its pure-Python generators.  This writer appends the
    same text to one list of parts instead.  It knows dicts with str keys,
    lists, str, int, bool and None.  Any other value (a float, a tuple, an
    int key), or any other setting, hands the whole object to the stdlib.
    A list met again at the same depth is written once (see ``_write``): a
    list of lists of scalars is kept as one text, since an audit shares each
    such value list among many witnesses; a larger list, such as the failure
    list that equal claims of an audit share, as the span of parts it wrote,
    which are appended again without a copy of their text.  Lists of scalars
    are not memoized: they are mostly unique (a witness's tuple), and a memo
    entry for each kept tens of thousands of tuples alive, whose
    garbage-collector passes cost more than the memo saved.
    """

    def encode(self, o) -> str:
        settings = (self.indent, self.item_separator, self.key_separator)
        if settings != (2, ",", ": ") or not (self.sort_keys and self.ensure_ascii):
            return super().encode(o)
        parts: list[str] = []
        try:
            _write(o, parts, 0, {}, {})
        except (_Unsupported, RecursionError):
            return super().encode(o)
        return "".join(parts)
