"""The JSON writer, in a module that only a command writing JSON compiles."""

import json
from json.encoder import encode_basestring_ascii


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
    A list met again at the same depth is written once (see ``_write``), as
    an audit shares value lists among witnesses and failure lists among
    equal claims.  Lists of scalars are not memoized: they are mostly unique
    (a witness's tuple), and a memo entry for each kept tens of thousands of
    tuples alive, whose garbage-collector passes cost more than it saved.
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
