"""No two library functions share one body up to renaming and arithmetic."""

import ast
import copy
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "zinbielkit"

# Bodies of fewer statement lines than this, docstring aside, are left alone:
# a one-statement delegation such as ``return self._with_swapped(operator.add)``
# is not a copy, however many lines its arguments are wrapped over.
MIN_LINES = 3


class _Normalizer(ast.NodeTransformer):
    """Renames every name, keyword and attribute to its first-appearance
    index, and every ``+ - * /`` to ``+``, so two bodies compare equal when
    they differ only in those."""

    def __init__(self):
        self.index: dict[str, str] = {}

    def rename(self, name):
        return name if name is None else self.index.setdefault(name, f"n{len(self.index)}")

    def generic_visit(self, node):
        for field in ("id", "arg", "attr", "name", "asname"):
            if isinstance(getattr(node, field, None), str):
                setattr(node, field, self.rename(getattr(node, field)))
        if isinstance(getattr(node, "names", None), list):
            node.names = [self.rename(n) if isinstance(n, str) else n for n in node.names]
        if isinstance(getattr(node, "op", None), (ast.Add, ast.Sub, ast.Mult, ast.Div)):
            node.op = ast.Add()
        return super().generic_visit(node)


def _bodies():
    """(normalized body, 'module.py:qualname') of each function whose body,
    docstring aside, starts statements on at least ``MIN_LINES`` lines."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        stack = [(tree, "")]
        while stack:
            node, prefix = stack.pop()
            for child in ast.iter_child_nodes(node):
                scope = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                qualname = f"{prefix}{child.name}" if scope else prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    body = child.body
                    if ast.get_docstring(child) is not None:
                        body = body[1:]
                    module = ast.Module(body, [])
                    lines = {n.lineno for n in ast.walk(module) if isinstance(n, ast.stmt)}
                    if len(lines) >= MIN_LINES:
                        normalized = _Normalizer().visit(copy.deepcopy(module))
                        yield ast.dump(normalized), f"{path.name}:{qualname}"
                stack.append((child, f"{qualname}." if scope else prefix))


def duplicate_bodies() -> list[list[str]]:
    """Groups of two or more functions with equal normalized bodies."""
    groups: dict[str, list[str]] = {}
    for dump, where in _bodies():
        groups.setdefault(dump, []).append(where)
    return sorted(sorted(names) for names in groups.values() if len(names) > 1)


def test_no_two_functions_share_a_body():
    assert duplicate_bodies() == []
