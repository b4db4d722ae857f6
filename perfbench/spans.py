"""Spans around the program's layers, recorded from outside the program.

Each layer is named after its module.  A layer is timed by replacing its
public functions with a wrapper under the name the caller looks up, e.g.
``zinbielkit.cli.evaluate`` or ``zinbielkit.audit.evaluate_claim``.  A span
keeps (layer, start, end, parent, command id) in memory; self times are
computed after the run.  A span opened on a worker thread with no open span
of its own takes the command's root span as parent.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import threading
import time
from typing import NamedTuple

# Root spans: one per command, around cli.main or the script's main.
ROOT_LAYERS = ("cli.self", "scripts.self")

LAYERS = ROOT_LAYERS + (
    "models.build",
    "serialization.load",
    "serialization.dump",
    "identities.parse",
    "identities.evaluate",
    "algebra.scan",
    "algebra.derive",
    "audit.evaluate_claim",
    "audit.text",
    "audit.json",
    "reports.format",
    "bimodule.check",
    "matched_pair.check",
    "matched_pair.induced",
    "matched_pair.double",
    "coalgebra.check",
    "bialgebra.equivalence",
    "bialgebra.manin",
)

# Work counts, each with the layer that counts it; a count must repeat
# exactly for the same inputs.
COUNTS = {
    "models.nnz": "models.build",
    "serialization.bytes_in": "serialization.load",
    "serialization.bytes_out": "serialization.dump",
    "identities.evaluate.tuples": "identities.evaluate",
    "identities.evaluate.residuals": "identities.evaluate",
    "audit.tuples": "audit.evaluate_claim",
    "audit.failures": "audit.evaluate_claim",
    "matched_pair.violations": "matched_pair.check",
}

_NAME = re.compile(r"[A-Za-z_]\w*")


def _nnz(args, result):
    return {"models.nnz": len(result.c.entries)}


def _load(args, result):
    return {"serialization.bytes_in": os.path.getsize(args[0])}


def _dump(args, result):
    return {"serialization.bytes_out": len(result.encode("utf-8"))}


def _evaluate(args, result):
    algebra, identity = args[0], args[1]
    return {
        "identities.evaluate.tuples": algebra.dim ** len(identity.variables),
        "identities.evaluate.residuals": len(result),
    }


def _claim(args, result):
    table, spec = args[0], args[1]
    nvars = len(set(_NAME.findall(spec.lhs + " " + spec.rhs)))
    failures = (result.witness_data or {}).get("failure_count", 0) if not result.holds else 0
    return {"audit.tuples": table.dim**nvars, "audit.failures": failures}


def _violations(args, result):
    return {"matched_pair.violations": len(result)}


_SCRIPT = "run_claim_audit"

# (module, attribute, layer, counter).  The module ``run_claim_audit`` is the
# script as loaded by the replay; ``AlgebraTable`` methods are patched on the
# class, which is where ``obj.symmetrize()`` looks them up.
PATCHES = (
    ("zinbielkit.cli", "trunc_integration", "models.build", _nnz),
    ("zinbielkit.cli", "free_halfshuffle", "models.build", _nnz),
    ("zinbielkit.fuzz", "trunc_integration", "models.build", _nnz),
    ("zinbielkit.fuzz", "free_halfshuffle", "models.build", _nnz),
    ("zinbielkit.cli", "load_path", "serialization.load", _load),
    ("zinbielkit.cli", "dumps", "serialization.dump", _dump),
    ("zinbielkit.cli", "parse_identity", "identities.parse", None),
    ("zinbielkit.identities", "parse_identity", "identities.parse", None),
    ("zinbielkit.audit", "parse_term_sum", "identities.parse", None),
    ("zinbielkit.cli", "evaluate", "identities.evaluate", _evaluate),
    ("zinbielkit.cli", "right_zinbiel_residuals", "algebra.scan", None),
    ("zinbielkit.cli", "left_zinbiel_residuals", "algebra.scan", None),
    ("zinbielkit.matched_pair", "right_zinbiel_residuals", "algebra.scan", None),
    ("zinbielkit.bialgebra", "right_zinbiel_residuals", "algebra.scan", None),
    (_SCRIPT, "right_zinbiel_residuals", "algebra.scan", None),
    (_SCRIPT, "left_zinbiel_residuals", "algebra.scan", None),
    ("zinbielkit.algebra.AlgebraTable", "symmetrize", "algebra.derive", None),
    ("zinbielkit.algebra.AlgebraTable", "opposite", "algebra.derive", None),
    ("zinbielkit.algebra.AlgebraTable", "commutator", "algebra.derive", None),
    ("zinbielkit.audit", "evaluate_claim", "audit.evaluate_claim", _claim),
    ("zinbielkit.matched_pair", "evaluate_claim", "audit.evaluate_claim", _claim),
    ("zinbielkit.audit", "format_vector", "reports.format", None),
    ("zinbielkit.audit", "format_assignment", "reports.format", None),
    ("zinbielkit.audit", "vector_jsonable", "reports.format", None),
    ("zinbielkit.cli", "format_vector", "reports.format", None),
    ("zinbielkit.cli", "format_assignment", "reports.format", None),
    ("zinbielkit.cli", "vector_jsonable", "reports.format", None),
    ("zinbielkit.cli", "audit_report_text", "audit.text", None),
    (_SCRIPT, "audit_report_text", "audit.text", None),
    ("zinbielkit.cli", "audit_report_jsonable", "audit.json", None),
    (_SCRIPT, "audit_report_jsonable", "audit.json", None),
    ("zinbielkit.cli", "json.dumps", "audit.json", None),
    (_SCRIPT, "json.dumps", "audit.json", None),
    ("zinbielkit.cli", "check_bimodule", "bimodule.check", None),
    ("zinbielkit.cli", "check_derived_relations", "bimodule.check", None),
    ("zinbielkit.cli", "induced_subadjacent_map", "bimodule.check", None),
    ("zinbielkit.matched_pair", "check_bimodule", "bimodule.check", None),
    ("zinbielkit.cli", "check_matched_pair", "matched_pair.check", _violations),
    ("zinbielkit.bialgebra", "check_matched_pair", "matched_pair.check", _violations),
    ("zinbielkit.cli", "induced_commassoc_pair", "matched_pair.induced", None),
    ("zinbielkit.cli", "induced_lie_pair", "matched_pair.induced", None),
    ("zinbielkit.cli", "double", "matched_pair.double", None),
    ("zinbielkit.bialgebra", "double", "matched_pair.double", None),
    ("zinbielkit.cli", "check_co_right", "coalgebra.check", None),
    ("zinbielkit.cli", "check_co_left", "coalgebra.check", None),
    ("zinbielkit.cli", "check_aux_coalgebra_identities", "coalgebra.check", None),
    ("zinbielkit.cli", "check_cocomm_coassoc", "coalgebra.check", None),
    ("zinbielkit.cli", "check_lie_coalgebra", "coalgebra.check", None),
    ("zinbielkit.cli", "dualize", "coalgebra.check", None),
    ("zinbielkit.cli", "dualize_co", "coalgebra.check", None),
    ("zinbielkit.bialgebra", "dualize", "coalgebra.check", None),
    ("zinbielkit.bialgebra", "dualize_co", "coalgebra.check", None),
    ("zinbielkit.cli", "equivalence_audit", "bialgebra.equivalence", None),
    ("zinbielkit.cli", "check_manin_triple", "bialgebra.manin", None),
    ("zinbielkit.bialgebra", "check_manin_triple", "bialgebra.manin", None),
)


class Span(NamedTuple):
    sid: int
    layer: str
    start: float
    end: float
    parent: int | None
    command: int
    error: bool
    counts: dict | None


class _JsonShim:
    """Stands in for a module's ``json`` global so ``json.dumps`` is timed."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Records spans for the commands run between ``install`` and ``remove``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._root: int | None = None
        self._command = -1
        self._undo: list = []
        self.incomplete: set[str] = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, sid: int, layer: str, parent, fn, args, kwargs, count):
        stack = self._stack()
        stack.append(sid)
        result, ok = None, False
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            stack.pop()
            counts = count(args, result) if ok and count else None
            self.spans.append(Span(sid, layer, start, end, parent, self._command, not ok, counts))

    def wrap(self, layer: str, fn, count=None):
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._root
            return self._call(next(self._ids), layer, parent, fn, args, kwargs, count)

        return traced

    def run_command(self, layer: str, command: int, fn, *args):
        """Call ``fn(*args)`` as the root span of command ``command``."""
        self._command = command
        self._root = next(self._ids)
        try:
            return self._call(self._root, layer, None, fn, args, {}, None)
        finally:
            self._root = None

    def install(self, modules: dict):
        """Patch every target found in ``modules`` (name -> module object).

        A layer with a target that is not found lands in ``incomplete``: the
        program no longer calls it where the benchmark looks, so its calls
        and counts are partial.
        """
        for module_name, attr, layer, count in PATCHES:
            owner = _resolve(modules, module_name)
            name = "json" if attr == "json.dumps" else attr
            original = getattr(owner, "__dict__", {}).get(name)
            if original is None:
                self.incomplete.add(layer)
                continue
            self._undo.append((owner, name, original))
            if attr == "json.dumps":
                setattr(owner, name, _JsonShim(self.wrap(layer, original.dumps, count)))
            else:
                setattr(owner, name, self.wrap(layer, original, count))

    def remove(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def _resolve(modules: dict, dotted: str):
    if dotted in modules:
        return modules[dotted]
    head, _, tail = dotted.rpartition(".")
    owner = modules.get(head)
    return getattr(owner, tail, None) if owner is not None else None


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per layer: span durations minus the union of their children's spans."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        kids = [(max(a, s.start), min(b, s.end)) for a, b in children.get(s.sid, ())]
        out[s.layer] += (s.end - s.start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """``<layer>_s`` self time, ``<layer>.calls`` and ``<layer>.errors``."""
    out: dict[str, float] = {}
    for layer, seconds in self_times(spans).items():
        out[f"{layer}_s"] = seconds
        out[f"{layer}.calls"] = 0
        out[f"{layer}.errors"] = 0
    for s in spans:
        out[f"{s.layer}.calls"] += 1
        out[f"{s.layer}.errors"] += s.error
    return out


def command_counts(spans: list[Span]) -> dict[int, dict[str, int]]:
    """Per command id: the summed work counts, zeros left out."""
    out: dict[int, dict[str, int]] = {}
    for s in spans:
        if s.counts:
            acc = out.setdefault(s.command, {})
            for key, value in s.counts.items():
                if value:
                    acc[key] = acc.get(key, 0) + value
    return out
