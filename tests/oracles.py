"""Independent oracles the test suite trusts over the engine under test.

Each oracle recomputes a quantity by a different route than the library:
monomial products by literal symbolic integration, shuffle products by a
path-counting recursion over candidate words, identity defects by direct
dictionary arithmetic on the raw structure-constant entries, identity sums
by the per-tuple scan the library's sparse join replaced.  Agreement is
always exact; there are no tolerances anywhere.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product

import sympy

X, T = sympy.symbols("X t")


def _poly_dict(expr, n: int) -> dict[int, Fraction]:
    """Coefficients of a polynomial in X, truncated above degree n."""
    expr = sympy.expand(expr)
    if expr == 0:
        return {}
    out: dict[int, Fraction] = {}
    poly = sympy.Poly(expr, X)
    for (k,), coeff in poly.terms():
        if k <= n:
            out[int(k)] = Fraction(sympy.Rational(coeff).p, sympy.Rational(coeff).q)
    return out


def right_integration_product(i: int, j: int, n: int) -> dict[int, Fraction]:
    """X^i * X^j where the product multiplies by the integral of the left arg."""
    return _poly_dict(X**j * sympy.integrate(T**i, (T, 0, X)), n)


def left_integration_product(i: int, j: int, n: int) -> dict[int, Fraction]:
    """X^i o X^j = integral of (t^j d/dt t^i); zero when i = 0."""
    return _poly_dict(sympy.integrate(T**j * sympy.diff(T**i, T), (T, 0, X)), n)


def interleaving_count(u: tuple, v: tuple, w: tuple) -> int:
    """Number of ways to interleave u and v (orders kept) yielding w."""
    if len(w) != len(u) + len(v):
        return 0

    @lru_cache(maxsize=None)
    def go(a: int, b: int) -> int:
        k = a + b
        if k == len(w):
            return 1
        total = 0
        if a < len(u) and u[a] == w[k]:
            total += go(a + 1, b)
        if b < len(v) and v[b] == w[k]:
            total += go(a, b + 1)
        return total

    return go(0, 0)


def halfshuffle_product(u: tuple, v: tuple, max_len: int) -> dict[tuple, int]:
    """Word product: shuffle u into all-but-last of v, reattach v's tail.

    Candidate result words are enumerated as distinct permutations of the
    combined letters, then weighted by the interleaving count.  Slower than
    the library's recursion but shares no code with it.
    """
    if len(u) + len(v) > max_len:
        return {}
    head, tail = v[:-1], v[-1]
    out: dict[tuple, int] = {}
    for w in set(permutations(u + head)):
        count = interleaving_count(u, head, w)
        if count:
            out[w + (tail,)] = count
    return out


# -- raw-entry arithmetic on structure constants ------------------------------


def table_product(table, x: dict, y: dict) -> dict:
    """x*y from the raw entry dict, bypassing AlgebraTable.multiply."""
    out: dict[int, Fraction] = {}
    for (i, j, k), c in table.c.entries.items():
        xi = x.get(i)
        yj = y.get(j)
        if xi and yj:
            s = out.get(k, Fraction(0)) + xi * yj * c
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _basis(i: int) -> dict:
    return {i: Fraction(1)}


def _sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) - v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        s = out.get(k, Fraction(0)) + v
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


def associator(table, i: int, j: int, k: int) -> dict:
    """(e_i e_j) e_k - e_i (e_j e_k) on raw entries."""
    x, y, z = _basis(i), _basis(j), _basis(k)
    return _sub(
        table_product(table, table_product(table, x, y), z),
        table_product(table, x, table_product(table, y, z)),
    )


def center_defect(table, i: int, j: int, k: int) -> dict:
    """Associator minus the outer-swapped associator."""
    return _sub(associator(table, i, j, k), associator(table, k, j, i))


def bracket(table, x: dict, y: dict) -> dict:
    return _sub(table_product(table, x, y), table_product(table, y, x))


def jacobiator(table, i: int, j: int, k: int) -> dict:
    """Sum of x[y,z] nestings of the commutator, inner-bracket convention."""
    x, y, z = _basis(i), _basis(j), _basis(k)
    total: dict[int, Fraction] = {}
    for a, b, c in ((x, y, z), (y, z, x), (z, x, y)):
        term = bracket(table, a, bracket(table, b, c))
        for idx, v in term.items():
            s = total.get(idx, Fraction(0)) + v
            if s:
                total[idx] = s
            else:
                total.pop(idx, None)
    return total


def right_zinbiel_defect(table, i: int, j: int, k: int) -> dict:
    """x(yz) - (xy)z - (yx)z on basis vectors, raw-entry route."""
    x, y, z = _basis(i), _basis(j), _basis(k)
    lhs = table_product(table, x, table_product(table, y, z))
    rhs = _add(
        table_product(table, table_product(table, x, y), z),
        table_product(table, table_product(table, y, x), z),
    )
    return _sub(lhs, rhs)


def left_zinbiel_defect(table, i: int, j: int, k: int) -> dict:
    """(xy)z - x(yz) - x(zy) on basis vectors, raw-entry route."""
    x, y, z = _basis(i), _basis(j), _basis(k)
    lhs = table_product(table, table_product(table, x, y), z)
    rhs = _add(
        table_product(table, x, table_product(table, y, z)),
        table_product(table, x, table_product(table, z, y)),
    )
    return _sub(lhs, rhs)


# -- reference identity scan ---------------------------------------------------


def _compile_tree(tree, variables, algebra):
    """Evaluator of one product tree: basis assignment -> raw coefficient dict."""
    if isinstance(tree, str):
        p = variables.index(tree)
        return lambda a: {a[p]: Fraction(1)}
    left, right = tree
    fx, fy = _compile_tree(left, variables, algebra), _compile_tree(right, variables, algebra)
    return lambda a: algebra.multiply_raw(fx(a), fy(a))


def compile_terms(algebra, variables, terms):
    """Evaluator of a term sum: basis assignment -> raw coefficient dict."""
    compiled = [(coeff, _compile_tree(tree, variables, algebra)) for coeff, tree in terms]

    def at(assignment):
        acc: dict[int, Fraction] = {}
        for coeff, tree_at in compiled:
            for k, v in tree_at(assignment).items():
                s = acc.get(k, Fraction(0)) + coeff * v
                if s:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        return acc

    return at


def reference_evaluate(algebra, identity, first_only=False) -> list:
    """[(assignment, residual dict)] by visiting every one of the dim^vars
    basis tuples in lexicographic order and evaluating each term there."""
    at = compile_terms(algebra, identity.variables, identity.terms)
    out = []
    for assignment in product(range(algebra.dim), repeat=len(identity.variables)):
        acc = at(assignment)
        if acc:
            out.append((assignment, acc))
            if first_only:
                break
    return out
