"""Every law the library checks is written once, as a row of ``identities.LAWS``."""

import ast
import re
from itertools import combinations, permutations
from pathlib import Path

from zinbielkit.identities import LAWS, _plan, parse_sides, parse_term_sum

SRC = Path(__file__).resolve().parent.parent / "src" / "zinbielkit"


def _is_laws(node) -> bool:
    target = node.target if isinstance(node, ast.AnnAssign) else None
    if isinstance(node, ast.Assign) and len(node.targets) == 1:
        target = node.targets[0]
    return isinstance(target, ast.Name) and target.id == "LAWS"


def law_constants_outside_the_table(src: Path = SRC) -> list[tuple[str, str]]:
    """('module.py:line', text) of each string constant of the library that
    parses as a term sum with a product and is not written in ``LAWS``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        table = {id(n) for node in ast.walk(tree) if _is_laws(node) for n in ast.walk(node)}
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
                continue
            if id(node) in table:
                continue
            try:
                terms = parse_term_sum(node.value)
            except ValueError:
                continue
            if any(isinstance(t, tuple) for _, t in terms):
                found.append((f"{path.name}:{node.lineno}", node.value))
    return found


def test_no_law_is_written_outside_the_table():
    assert law_constants_outside_the_table() == []


def _forms(lhs: str, rhs: str) -> set:
    """The canonical forms (``identities._plan``) of lhs - rhs under every
    order of its variables and both signs."""
    identity = parse_sides(lhs, rhs)
    return {
        _plan(order, (tuple((sign * c, t) for c, t in identity.terms),))[2]
        for order in permutations(identity.variables)
        for sign in (1, -1)
    }


def test_no_two_laws_are_equal_up_to_renaming_and_sign():
    assert len(LAWS) == 16
    forms = {name: _forms(*sides) for name, sides in LAWS.items()}
    assert [(a, b) for a, b in combinations(forms, 2) if forms[a] & forms[b]] == []


def test_every_law_is_written_over_x_y_and_z():
    # law_sides renames by str.translate, letter by letter, so a row may hold
    # no name but x, y and z, each used once per term.
    for name, (lhs, rhs) in LAWS.items():
        assert set(re.findall(r"[A-Za-z_]\w*", f"{lhs} {rhs}")) <= {"x", "y", "z"}, name
        identity = parse_sides(lhs, rhs)
        assert set(identity.variables) in ({"x", "y"}, {"x", "y", "z"}), name
        _plan(identity.variables, (identity.terms,))  # raises on a term that misses a variable
