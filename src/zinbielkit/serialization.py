"""JSON wire formats for every table kind, with canonical byte output.

Canonical form: entry lists sorted by index tuple, scalars rendered "p/q" or
"p", keys sorted, two-space indent, trailing newline.  Serializing the same
object twice (or after a round trip) yields identical bytes.  The text comes
from ``reports.JsonEncoder``, the one encoder of every JSON output, byte-
identical to ``json.dumps(indent=2, sort_keys=True)``.

All readers validate: unknown kinds, missing fields, out-of-range indices,
malformed scalars, and duplicate entries raise InputFormatError.  One reader
(``_index_rows``) takes every index-row list, so a repeated index triple is
rejected in any order and with any values, zero or not.

A kind's module (``coalgebra``, ``bimodule``, ``matched_pair``,
``bialgebra``) is imported only when a table of that kind is read; writers
are chosen by class name, so writing needs no class imported here.
``InputFormatError`` is defined in ``tensors``, which every command loads,
and is importable from here as well.
"""

from __future__ import annotations

import json
from functools import lru_cache
from typing import TYPE_CHECKING, Any

from .algebra import AlgebraTable
from .reports import JsonEncoder, sorted_rows
from .tensors import InputFormatError, Matrix, Tensor3, parse_scalar

if TYPE_CHECKING:
    from .bialgebra import BialgebraCandidate
    from .bimodule import Bimodule
    from .coalgebra import CoalgebraTable
    from .matched_pair import MatchedPair


def _require(cond: bool, message: str, *args):
    """Raise ``message``, filled with ``args`` by ``str.format``, unless
    ``cond``: the message is built only for the failure it reports."""
    if not cond:
        raise InputFormatError(message.format(*args) if args else message)


def _require_kind(obj: Any, kind: str) -> None:
    _require(isinstance(obj, dict), "{} payload must be an object", kind)
    _require(obj.get("kind") == kind, "expected kind \"{}\"", kind)


def _as_dim(obj: Any, field: str) -> int:
    _require(isinstance(obj, int) and not isinstance(obj, bool) and obj >= 0,
             "{} must be a nonnegative integer", field)
    return obj


def _as_index(obj: Any, bound: int, field: str) -> int:
    _require(isinstance(obj, int) and not isinstance(obj, bool), "{} must be an integer", field)
    _require(0 <= obj < bound, "{} {} out of range [0,{})", field, obj, bound)
    return obj


# Each distinct scalar string is parsed once; a payload repeats few of them.
_parse_scalar = lru_cache(maxsize=256)(parse_scalar)


def _as_scalar(obj: Any, field: str):
    _require(isinstance(obj, str), "{} must be a scalar string like \"p/q\"", field)
    try:
        return _parse_scalar(obj)
    except ValueError as exc:
        raise InputFormatError(f"{field}: {exc}") from None


def _index_rows(obj: Any, field: str, bounds: tuple, names: tuple) -> dict:
    """The ``[i, j, k, "p/q"]`` rows of the list ``field`` as ``{(i, j, k):
    value}``, zeros kept; each index is checked against its entry of
    ``bounds`` and named by its entry of ``names``.  Any repeated index
    triple is an error, whatever its values."""
    _require(isinstance(obj, list), "{} must be a list", field)
    (b0, b1, b2), (n0, n1, n2), value = bounds, names, f"{field} value"
    entries = {}
    for row in obj:
        _require(isinstance(row, list) and len(row) == 4, "{} rows must be 4-element lists", field)
        key = (_as_index(row[0], b0, n0), _as_index(row[1], b1, n1), _as_index(row[2], b2, n2))
        v = _as_scalar(row[3], value)
        _require(key not in entries, "duplicate {} entry ({},{},{})", field, *key)
        entries[key] = v
    return entries


def algebra_jsonable(a: AlgebraTable) -> dict:
    return {
        "kind": "algebra",
        "dim": a.dim,
        "basis": list(a.basis_labels),
        "structure": sorted_rows(a.c.entries),
    }


def algebra_from_jsonable(obj: Any) -> AlgebraTable:
    _require_kind(obj, "algebra")
    dim = _as_dim(obj.get("dim"), "dim")
    basis = obj.get("basis")
    _require(isinstance(basis, list) and len(basis) == dim, "basis must list dim labels")
    _require(all(isinstance(b, str) for b in basis), "basis labels must be strings")
    entries = _index_rows(obj.get("structure"), "structure", (dim,) * 3, ("structure index",) * 3)
    return AlgebraTable(dim, tuple(basis), Tensor3(dim, dim, dim, entries))


def coalgebra_jsonable(c: CoalgebraTable) -> dict:
    return {
        "kind": "coalgebra",
        "dim": c.dim,
        "coproduct": sorted_rows(c.d.entries),
    }


def coalgebra_from_jsonable(obj: Any) -> CoalgebraTable:
    from .coalgebra import CoalgebraTable

    _require_kind(obj, "coalgebra")
    dim = _as_dim(obj.get("dim"), "dim")
    entries = _index_rows(obj.get("coproduct"), "coproduct", (dim,) * 3, ("coproduct index",) * 3)
    return CoalgebraTable(dim, Tensor3(dim, dim, dim, entries))


def _maps_jsonable(maps: tuple[Matrix, ...]) -> list:
    return sorted_rows({(i, *key): v for i, m in enumerate(maps) for key, v in m.entries.items()})


def _maps_from_jsonable(obj: Any, count: int, rows: int, field: str) -> tuple[Matrix, ...]:
    names = (f"{field} family index", f"{field} row", f"{field} column")
    acc: list[dict] = [{} for _ in range(count)]
    for (idx, r, c), v in _index_rows(obj, field, (count, rows, rows), names).items():
        acc[idx][r, c] = v
    return tuple(Matrix(rows, rows, entries) for entries in acc)


def bimodule_jsonable(b: Bimodule) -> dict:
    return {
        "kind": "bimodule",
        "algebra": algebra_jsonable(b.base),
        "v_dim": b.v_dim,
        "l": _maps_jsonable(b.left_maps),
        "r": _maps_jsonable(b.right_maps),
    }


def bimodule_from_jsonable(obj: Any) -> Bimodule:
    from .bimodule import Bimodule

    _require_kind(obj, "bimodule")
    base = algebra_from_jsonable(obj.get("algebra"))
    v_dim = _as_dim(obj.get("v_dim"), "v_dim")
    left = _maps_from_jsonable(obj.get("l"), base.dim, v_dim, "l")
    right = _maps_from_jsonable(obj.get("r"), base.dim, v_dim, "r")
    return Bimodule(base, v_dim, left, right)


def matched_pair_jsonable(mp: MatchedPair) -> dict:
    return {
        "kind": "matched_pair",
        "A": algebra_jsonable(mp.a),
        "B": algebra_jsonable(mp.b),
        "lA": _maps_jsonable(mp.la),
        "rA": _maps_jsonable(mp.ra),
        "lB": _maps_jsonable(mp.lb),
        "rB": _maps_jsonable(mp.rb),
    }


def matched_pair_from_jsonable(obj: Any) -> MatchedPair:
    from .matched_pair import MatchedPair

    _require_kind(obj, "matched_pair")
    a = algebra_from_jsonable(obj.get("A"))
    b = algebra_from_jsonable(obj.get("B"))
    la = _maps_from_jsonable(obj.get("lA"), a.dim, b.dim, "lA")
    ra = _maps_from_jsonable(obj.get("rA"), a.dim, b.dim, "rA")
    lb = _maps_from_jsonable(obj.get("lB"), b.dim, a.dim, "lB")
    rb = _maps_from_jsonable(obj.get("rB"), b.dim, a.dim, "rB")
    return MatchedPair(a, b, la, ra, lb, rb)


def bialgebra_candidate_jsonable(bc: BialgebraCandidate) -> dict:
    return {
        "kind": "bialgebra_candidate",
        "A": algebra_jsonable(bc.a),
        "Astar": algebra_jsonable(bc.astar),
    }


def bialgebra_candidate_from_jsonable(obj: Any) -> BialgebraCandidate:
    from .bialgebra import BialgebraCandidate

    _require_kind(obj, "bialgebra_candidate")
    return BialgebraCandidate(
        algebra_from_jsonable(obj.get("A")), algebra_from_jsonable(obj.get("Astar"))
    )


# Keyed by class name, so that no kind's module is imported to write another.
_WRITERS = {
    "AlgebraTable": algebra_jsonable,
    "CoalgebraTable": coalgebra_jsonable,
    "Bimodule": bimodule_jsonable,
    "MatchedPair": matched_pair_jsonable,
    "BialgebraCandidate": bialgebra_candidate_jsonable,
}

_READERS = {
    "algebra": algebra_from_jsonable,
    "coalgebra": coalgebra_from_jsonable,
    "bimodule": bimodule_from_jsonable,
    "matched_pair": matched_pair_from_jsonable,
    "bialgebra_candidate": bialgebra_candidate_from_jsonable,
}


def to_jsonable(obj) -> dict:
    writer = _WRITERS.get(type(obj).__name__)
    if writer is None:
        raise TypeError(f"no JSON form for {type(obj).__name__}")
    return writer(obj)


def from_jsonable(obj: Any):
    _require(isinstance(obj, dict), "payload must be a JSON object")
    kind = obj.get("kind")
    reader = _READERS.get(kind) if isinstance(kind, str) else None
    _require(reader is not None, "unknown kind {!r}", kind)
    return reader(obj)


def dumps(obj) -> str:
    return json.dumps(to_jsonable(obj), indent=2, sort_keys=True, cls=JsonEncoder) + "\n"


def loads(text: str):
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise InputFormatError("JSON nested too deeply") from None
    except ValueError:  # an integer past the interpreter's limit on str -> int digits
        raise InputFormatError("JSON integer is too long") from None
    return from_jsonable(payload)


def load_path(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return loads(fh.read())
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None


def dump_path(path, obj):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
