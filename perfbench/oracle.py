"""Seeded multilinear identities and an independent evaluator for them.

``random_identity`` draws the identities the benchmark feeds to
``zinbielkit check TABLE EXPR``; the program sees only the rendered text.
``expected_check`` computes what that command must print.  It joins nonzero
structure constants tree by tree instead of walking every basis tuple, so it
shares no evaluation code with the program it checks.
"""

from __future__ import annotations

import random
from fractions import Fraction

VARIABLES = ("x", "y", "z", "w")
COEFFICIENTS = (-3, -2, -1, 1, 2, 3)


def tree_shapes(n: int) -> list:
    """Every binary tree with ``n`` leaves; leaves are ``None``."""
    if n == 1:
        return [None]
    return [(left, right) for cut in range(1, n)
            for left in tree_shapes(cut) for right in tree_shapes(n - cut)]


def _fill(shape, names: list[str]):
    if shape is None:
        return names.pop()
    left = _fill(shape[0], names)
    return (left, _fill(shape[1], names))


def render_tree(tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"({render_tree(tree[0])} {render_tree(tree[1])})"


def render(terms) -> str:
    parts = []
    for idx, (coeff, tree) in enumerate(terms):
        body = render_tree(tree) if abs(coeff) == 1 else f"{abs(coeff)} * {render_tree(tree)}"
        if idx == 0:
            parts.append(body)
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)


def random_identity(rng: random.Random, degree: int):
    """(text, terms) of a random multilinear identity of degree 3 or 4.

    Every tree shape of the degree is a term (each twice for degree 3), over
    its own random permutation of the variables and with a small nonzero
    integer coefficient, in random order.  The program scans every basis
    tuple for every term, so a term's cost depends on its shape alone and the
    work is the same for every seed.  The first coefficient is kept positive
    so the text never starts with '-', which argparse would read as an option.
    """
    shapes = tree_shapes(degree) * (2 if degree == 3 else 1)
    rng.shuffle(shapes)
    terms = []
    for shape in shapes:
        names = list(VARIABLES[:degree])
        rng.shuffle(names)
        terms.append((rng.choice(COEFFICIENTS), _fill(shape, names)))
    if terms[0][0] < 0:
        terms = [(-c, t) for c, t in terms]
    return render(terms), terms


def _leaves(tree) -> list[str]:
    if isinstance(tree, str):
        return [tree]
    return _leaves(tree[0]) + _leaves(tree[1])


def _add(acc: dict, vec: dict, scale):
    for k, v in vec.items():
        s = acc.get(k, 0) + scale * v
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def _tree_tensor(tree, products: dict, dim: int) -> dict:
    """Leaf-ordered basis tuple -> nonzero value of the tree on it."""
    if isinstance(tree, str):
        return {(i,): {i: Fraction(1)} for i in range(dim)}
    left = _tree_tensor(tree[0], products, dim)
    right = _tree_tensor(tree[1], products, dim)
    out = {}
    for a, va in left.items():
        for b, vb in right.items():
            acc: dict = {}
            for i, x in va.items():
                for j, y in vb.items():
                    for k, c in products.get((i, j), ()):
                        s = acc.get(k, 0) + x * y * c
                        if s:
                            acc[k] = s
                        else:
                            acc.pop(k, None)
            if acc:
                out[a + b] = acc
    return out


def residuals(structure, dim: int, terms) -> dict:
    """Basis assignment (variables in first-appearance order) -> residual."""
    products: dict = {}
    for i, j, k, c in structure:
        products.setdefault((i, j), []).append((k, Fraction(c)))
    order: dict[str, int] = {}
    for _, tree in terms:
        for name in _leaves(tree):
            order.setdefault(name, len(order))
    acc: dict = {}
    for coeff, tree in terms:
        slots = [order[name] for name in _leaves(tree)]
        for key, vec in _tree_tensor(tree, products, dim).items():
            assignment = [0] * len(order)
            for slot, idx in zip(slots, key):
                assignment[slot] = idx
            _add(acc.setdefault(tuple(assignment), {}), vec, coeff)
    return {a: v for a, v in acc.items() if v}


def _format_vector(vec: dict) -> str:
    parts = []
    for idx, (k, val) in enumerate(sorted(vec.items())):
        mag = abs(val)
        body = f"e{k}" if mag == 1 else f"({mag})e{k}"
        if idx == 0:
            parts.append(body if val > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if val > 0 else '-'} {body}")
    return " ".join(parts)


def expected_check(spec: str, text: str, structure, dim: int, terms):
    """(exit code, stdout bytes, residual count) of ``check SPEC TEXT``."""
    found = residuals(structure, dim, terms)
    if not found:
        return 0, f"{text}: HOLDS ({spec})\n".encode(), 0
    first = min(found)
    where = "(" + ",".join(f"e{i}" for i in first) + ")"
    out = (
        f"{text}: FAILS ({spec}) violations={len(found)}\n"
        f"  at {where}: residual = {_format_vector(found[first])}\n"
    )
    return 1, out.encode(), len(found)
