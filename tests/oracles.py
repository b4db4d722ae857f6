"""Independent oracles the test suite trusts over the engine under test.

Each oracle recomputes a quantity by a different route than the library:
monomial products by literal symbolic integration, shuffle products by a
path-counting recursion over candidate words, identity defects by direct
dictionary arithmetic on the raw structure-constant entries, identity sums
by the per-tuple scan the library's sparse join replaced, the
structural checks by the full-table scans their indexed kernels replaced,
and the coalgebra checks by the composition calculus of coproducts that
their transposed identities replaced.  The change-of-basis helpers move a
table and its residuals to another basis, so the engine is compared with
itself on a second, dense input.
Agreement is always exact; there are no tolerances anywhere.  The module
also holds the few helpers that only tests call, so that the library does
not compile them on every command.
"""

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import permutations, product

import sympy

from zinbielkit.algebra import algebra_from_entries
from zinbielkit.audit import ClaimSpec, evaluate_claim
from zinbielkit.bimodule import _AXIOMS, Bimodule, SubadjacentReport, failed_verdict
from zinbielkit.coalgebra import (
    CoalgebraViolation, coalgebra_from_entries, format_triples,
)
from zinbielkit.matched_pair import MatchedPairViolation
from zinbielkit.identities import CLAIM_SIDES, catalog
from zinbielkit.reports import Verdict, VerdictBundle, format_scalar, sorted_rows
from zinbielkit.tensors import Matrix

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
    """x*y from the raw entry dict, bypassing the table's own product index."""
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


def basis_products(table) -> dict:
    """(i, j) -> {k: c[i, j, k]} over the nonzero pairs, read from the raw
    entries: a reference builds it once per table, and so shares no
    product code with the library it checks."""
    out: dict = {}
    for (i, j, k), v in table.c.entries.items():
        out.setdefault((i, j), {})[k] = v
    return out


def indexed_product(products: dict, x: dict, y: dict) -> dict:
    """x*y of raw coefficient dicts through a ``basis_products`` index."""
    out: dict[int, Fraction] = {}
    for i, xv in x.items():
        for j, yv in y.items():
            terms = products.get((i, j))
            if not terms:
                continue
            s = xv * yv
            for k, c in terms.items():
                if k not in out:
                    out[k] = s * c
                elif acc := out[k] + s * c:
                    out[k] = acc
                else:
                    del out[k]
    return out


def algebra_powers(table, top: int) -> list[int]:
    """dim A^k for k = 1..top, where A^1 = A and A^k is the span of the
    products A^i A^j over i + j = k.  Each power is reduced to a basis by
    sympy's row echelon form; the products are read from the raw entries."""
    products = basis_products(table)
    spans = {1: [_basis(i) for i in range(table.dim)]}
    for k in range(2, top + 1):
        rows = [indexed_product(products, x, y)
                for i in range(1, k) for x in spans[i] for y in spans[k - i]]
        rows = [row for row in rows if row]
        if not rows:
            spans[k] = []
            continue
        echelon, pivots = sympy.Matrix([[row.get(c, 0) for c in range(table.dim)]
                                        for row in rows]).rref()
        spans[k] = [{c: Fraction(int(v.p), int(v.q)) for c, v in enumerate(echelon.row(r)) if v}
                    for r in range(len(pivots))]
    return [len(spans[k]) for k in range(1, top + 1)]


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


def _compile_tree(tree, variables, products):
    """Evaluator of one product tree: basis assignment -> raw coefficient dict."""
    if isinstance(tree, str):
        p = variables.index(tree)
        return lambda a: {a[p]: Fraction(1)}
    left, right = tree
    fx, fy = _compile_tree(left, variables, products), _compile_tree(right, variables, products)
    return lambda a: indexed_product(products, fx(a), fy(a))


def compile_terms(algebra, variables, terms):
    """Evaluator of a term sum: basis assignment -> raw coefficient dict."""
    products = basis_products(algebra)
    compiled = [(coeff, _compile_tree(tree, variables, products)) for coeff, tree in terms]

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


def reference_pick_orientation(algebra, requested: str) -> str:
    """The audit orientation as the command line picked it before the audit
    read it off its own claims: ``requested`` unless it is ``auto``, else a
    first-witness scan per Zinbiel check, right first, and right if both
    fail."""
    if requested != "auto":
        return requested
    for orientation in ("right", "left"):
        if not reference_evaluate(algebra, catalog()[f"{orientation}_zinbiel"], first_only=True):
            return orientation
    return "right"


# -- reference structural kernels ------------------------------------------------
#
# The full-table scans the structural checkers used before they read matrices
# by column, coproducts by basis index and the pairing by row.


def reference_apply(matrix, coeffs) -> dict:
    """Matrix times a raw coefficient dict, by a scan over every entry."""
    out: dict[int, Fraction] = {}
    for (r, c), v in matrix.entries.items():
        x = coeffs.get(c)
        if x is not None:
            out[r] = out.get(r, Fraction(0)) + v * x
    return {k: v for k, v in out.items() if v != 0}


def reference_matmul(left, right) -> dict:
    """Entries of ``left @ right``, by a scan over every pair of entries."""
    out: dict[tuple[int, int], Fraction] = {}
    for (r, k), v1 in left.entries.items():
        for (kk, c), v2 in right.entries.items():
            if k == kk:
                out[(r, c)] = out.get((r, c), Fraction(0)) + v1 * v2
    return {key: v for key, v in out.items() if v}


def reference_delta(coalgebra, k: int, *, swap: bool = False) -> dict:
    """Delta(e_k) (tau o Delta(e_k) with ``swap``), by a scan over every entry."""
    out: dict[tuple[int, int], Fraction] = {}
    for (kk, i, j), v in coalgebra.d.entries.items():
        if kk == k:
            out[(j, i) if swap else (i, j)] = v
    return out


def _mat_sum(terms, rows, cols):
    """sum of sign * matrix entries over ``terms`` = [(sign, entries dict)]."""
    out: dict = {}
    for sign, entries in terms:
        for key, v in entries.items():
            out[key] = out.get(key, Fraction(0)) + sign * v
    return Matrix(rows, cols, out)


def _family_at(family, coeffs):
    """Coefficient-weighted sum of a matrix family, as an entries dict."""
    out: dict = {}
    for i, s in coeffs.items():
        for key, v in family[i].entries.items():
            out[key] = out.get(key, Fraction(0)) + s * v
    return {key: v for key, v in out.items() if v}


def _commutator(left, right) -> Matrix:
    """left right - right left, from two full-scan products."""
    return _mat_sum(
        [(1, reference_matmul(left, right)), (-1, reference_matmul(right, left))],
        left.rows, left.cols,
    )


def _matrix_equality_verdict(name, pairs, var_names=("x", "y", "v")) -> Verdict:
    """First-witness verdict of matrix equalities: ``pairs`` yields ((i, j),
    lhs, rhs) in scan order, and the witness is the first column where the
    two differ, as module vectors."""
    for (i, j), lhs, rhs in pairs:
        diff = _sub(lhs.entries, rhs.entries)
        if diff:
            beta = min(c for _, c in diff)
            lhs_col, rhs_col = ({r: v for (r, c), v in m.entries.items() if c == beta}
                                for m in (lhs, rhs))
            return failed_verdict(name, (i, j, beta), var_names, lhs_col, rhs_col)
    return Verdict(name, True)


def _vector_equality_verdict(name, triples, var_names) -> Verdict:
    """First-witness verdict of vector equalities: ``triples`` yields
    (assignment, lhs, rhs) in scan order, and the witness carries the residual."""
    for assignment, lhs, rhs in triples:
        diff = _sub(lhs, rhs)
        if diff:
            return failed_verdict(name, assignment, var_names, lhs, rhs, diff)
    return Verdict(name, True)


def reference_check_bimodule(b) -> list:
    """(axiom, (i, j), residual Matrix) for every violated axiom, in
    (axiom, i, j) order, each residual recomputed from full scans."""
    n, m = b.base.dim, b.v_dim
    left, right = b.left_maps, b.right_maps
    found = {axiom: [] for axiom in _AXIOMS}
    products = basis_products(b.base)
    for i in range(n):
        for j in range(n):
            prod_ij = products.get((i, j), {})
            prod_ji = products.get((j, i), {})
            r_ij = _family_at(right, prod_ij)
            residuals = (
                _mat_sum(
                    [(1, reference_matmul(left[i], left[j])),
                     (-1, _family_at(left, prod_ij)),
                     (-1, _family_at(left, prod_ji))],
                    m, m,
                ),
                _mat_sum([(1, reference_matmul(left[i], right[j])), (-1, r_ij)], m, m),
                _mat_sum(
                    [(1, r_ij),
                     (-1, reference_matmul(right[j], right[i])),
                     (-1, reference_matmul(right[j], left[i]))],
                    m, m,
                ),
            )
            for axiom, residual in zip(_AXIOMS, residuals):
                if not residual.is_zero:
                    found[axiom].append(((i, j), residual))
    return [(axiom, pair, res) for axiom in _AXIOMS for pair, res in found[axiom]]


def reference_check_derived_relations(b) -> tuple:
    """The three derived-relation verdicts, from the action matrices pair by
    pair: l_{x.y} against r_y l_x and l_x r_y, and r_x r_y against r_y r_x."""
    n, m = b.base.dim, b.v_dim
    left, right = b.left_maps, b.right_maps
    products = basis_products(b.base)

    def pairs(rhs_of):
        for i in range(n):
            for j in range(n):
                lhs = Matrix(m, m, _family_at(left, products.get((i, j), {})))
                yield (i, j), lhs, Matrix(m, m, rhs_of(i, j))

    return (
        _matrix_equality_verdict(
            "left_of_product_l_then_r", pairs(lambda i, j: reference_matmul(right[j], left[i]))
        ),
        _matrix_equality_verdict(
            "left_of_product_r_then_l", pairs(lambda i, j: reference_matmul(left[i], right[j]))
        ),
        _matrix_equality_verdict(
            "right_maps_commute",
            (((i, j), Matrix(m, m, reference_matmul(right[i], right[j])),
              Matrix(m, m, reference_matmul(right[j], right[i])))
             for i in range(n) for j in range(n)),
        ),
    )


def _apply_family(family, coeffs: dict, vec: dict) -> dict:
    """sum_k coeffs[k] * (family[k] applied to vec), by full scans."""
    out: dict[int, Fraction] = {}
    for k, s in coeffs.items():
        for m, v in reference_apply(family[k], vec).items():
            acc = out.get(m, 0) + s * v
            if acc:
                out[m] = acc
            elif m in out:
                del out[m]
    return out


def reference_sum_table(a, b, labels, la=(), ra=(), lb=(), rb=()):
    """The table on A + B whose product is

        (x+a)(y+b) = (x.y + lb(a)y + rb(b)x) + (a o b + la(x)b + ra(y)a),

    written out on every pair of basis vectors by full scans.  la and ra are
    indexed by A's basis and act on B, lb and rb the other way; an empty
    family is zero.  ``labels`` name B's basis."""
    n = a.dim

    def split(s):
        return (_basis(s), {}) if s < n else ({}, _basis(s - n))

    def act(family, coeffs, vec):
        return _apply_family(family, coeffs, vec) if family else {}

    entries = []
    for s, t in product(range(n + b.dim), repeat=2):
        (x, u), (y, w) = split(s), split(t)
        on_a = _add(_add(table_product(a, x, y), act(lb, u, y)), act(rb, w, x))
        on_b = _add(_add(table_product(b, u, w), act(la, x, w)), act(ra, y, u))
        entries += [(s, t, k, v) for k, v in on_a.items()]
        entries += [(s, t, n + k, v) for k, v in on_b.items()]
    return algebra_from_entries(n + b.dim, entries, a.basis_labels + tuple(labels))


def _sub_all(lhs: dict, *others: dict) -> dict:
    out = dict(lhs)
    for other in others:
        out = _sub(out, other)
    return out


def reference_check_matched_pair(mp) -> list:
    """The matched-pair violations, in the library's order, from full scans:
    [MatchedPairViolation] with the same condition, where and residual."""
    out = []
    for name, table in (("base_a", mp.a), ("base_b", mp.b)):
        for i, j, k in product(range(table.dim), repeat=3):
            r = right_zinbiel_defect(table, i, j, k)
            if r:
                out.append(MatchedPairViolation(f"{name}_right_zinbiel", (i, j, k), r))
    for side, bm in (
        ("action_on_b", Bimodule(mp.a, mp.b.dim, mp.la, mp.ra)),
        ("action_on_a", Bimodule(mp.b, mp.a.dim, mp.lb, mp.rb)),
    ):
        for axiom, pair, residual in reference_check_bimodule(bm):
            out.append(MatchedPairViolation(f"{side}:{axiom}", pair, residual))

    A, B = mp.a, mp.b
    n, p = A.dim, B.dim
    e = _basis

    def plus(f, g, k):
        return _mat_sum([(1, f[k].entries), (1, g[k].entries)], f[k].rows, f[k].cols)

    # compat_rb: rb(a)(x.y + y.x) = x.(rb(a)y) + rb(la(y)a)x     over (x, y, a)
    for x in range(n):
        for y in range(n):
            sym = _add(table_product(A, e(x), e(y)), table_product(A, e(y), e(x)))
            for a in range(p):
                r = _sub_all(
                    reference_apply(mp.rb[a], sym),
                    table_product(A, e(x), reference_apply(mp.rb[a], e(y))),
                    _apply_family(mp.rb, reference_apply(mp.la[y], e(a)), e(x)),
                )
                if r:
                    out.append(MatchedPairViolation("compat_rb", (x, y, a), r))

    # compat_ra: ra(x)(a o b + b o a) = a o (ra(x)b) + ra(lb(b)x)a   over (a, b, x)
    for a in range(p):
        for b in range(p):
            sym = _add(table_product(B, e(a), e(b)), table_product(B, e(b), e(a)))
            for x in range(n):
                r = _sub_all(
                    reference_apply(mp.ra[x], sym),
                    table_product(B, e(a), reference_apply(mp.ra[x], e(b))),
                    _apply_family(mp.ra, reference_apply(mp.lb[b], e(x)), e(a)),
                )
                if r:
                    out.append(MatchedPairViolation("compat_ra", (a, b, x), r))

    # compat_lb_1: lb(a)(x.y) = ((lb+rb)(a)x).y + lb((la+ra)(x)a)y  over (x, y, a)
    # compat_lb_2: lb(a)(x.y) = x.(lb(a)y) + rb(ra(y)a)x
    for x in range(n):
        for y in range(n):
            prod = table_product(A, e(x), e(y))
            for a in range(p):
                lhs = reference_apply(mp.lb[a], prod)
                r1 = _sub_all(
                    lhs,
                    table_product(A, reference_apply(plus(mp.lb, mp.rb, a), e(x)), e(y)),
                    _apply_family(mp.lb, reference_apply(plus(mp.la, mp.ra, x), e(a)), e(y)),
                )
                if r1:
                    out.append(MatchedPairViolation("compat_lb_1", (x, y, a), r1))
                r2 = _sub_all(
                    lhs,
                    table_product(A, e(x), reference_apply(mp.lb[a], e(y))),
                    _apply_family(mp.rb, reference_apply(mp.ra[y], e(a)), e(x)),
                )
                if r2:
                    out.append(MatchedPairViolation("compat_lb_2", (x, y, a), r2))

    # compat_la_1: la(x)(a o b) = la((lb+rb)(a)x)b + ((la+ra)(x)a) o b  over (a, b, x)
    # compat_la_2: la(x)(a o b) = a o (la(x)b) + ra(rb(b)x)a
    for a in range(p):
        for b in range(p):
            prod = table_product(B, e(a), e(b))
            for x in range(n):
                lhs = reference_apply(mp.la[x], prod)
                r1 = _sub_all(
                    lhs,
                    _apply_family(mp.la, reference_apply(plus(mp.lb, mp.rb, a), e(x)), e(b)),
                    table_product(B, reference_apply(plus(mp.la, mp.ra, x), e(a)), e(b)),
                )
                if r1:
                    out.append(MatchedPairViolation("compat_la_1", (a, b, x), r1))
                r2 = _sub_all(
                    lhs,
                    table_product(B, e(a), reference_apply(mp.la[x], e(b))),
                    _apply_family(mp.ra, reference_apply(mp.rb[b], e(x)), e(a)),
                )
                if r2:
                    out.append(MatchedPairViolation("compat_la_2", (a, b, x), r2))

    return out


# -- reference pair checks ------------------------------------------------------
#
# The commutative-associative and Lie pair checks and the sub-adjacent
# bracket check with every law written out once per side, each side its own
# loop.  Action columns are read by applying the matrix to a basis vector.


def _action_columns(family) -> list[list[dict]]:
    return [[reference_apply(m, _basis(j)) for j in range(m.cols)] for m in family]


def _action_combine(columns, coeffs: dict, j: int) -> dict:
    out: dict[int, Fraction] = {}
    for k, s in coeffs.items():
        for m, v in columns[k][j].items():
            out = _add(out, {m: s * v})
    return out


def reference_commassoc_matched_pair(g, h, mu, rho) -> VerdictBundle:
    commutative, associative = CLAIM_SIDES["commutative"], CLAIM_SIDES["associative"]
    verdicts = [
        evaluate_claim(g, ClaimSpec("g_commutative", *commutative, "product")),
        evaluate_claim(g, ClaimSpec("g_associative", *associative, "product")),
        evaluate_claim(h, ClaimSpec("h_commutative", *commutative, "product")),
        evaluate_claim(h, ClaimSpec("h_associative", *associative, "product")),
    ]

    def mu_rep():
        products = basis_products(g)
        for i in range(g.dim):
            for j in range(g.dim):
                coeffs = products.get((i, j), {})
                lhs = Matrix(h.dim, h.dim, _family_at(mu, coeffs))
                yield (i, j), lhs, Matrix(h.dim, h.dim, reference_matmul(mu[i], mu[j]))

    def rho_rep():
        products = basis_products(h)
        for i in range(h.dim):
            for j in range(h.dim):
                coeffs = products.get((i, j), {})
                lhs = Matrix(g.dim, g.dim, _family_at(rho, coeffs))
                yield (i, j), lhs, Matrix(g.dim, g.dim, reference_matmul(rho[i], rho[j]))

    verdicts.append(_matrix_equality_verdict("mu_representation", mu_rep(), ("x", "y", "v")))
    verdicts.append(_matrix_equality_verdict("rho_representation", rho_rep(), ("a", "b", "v")))

    e = _basis
    mu_at, rho_at = _action_columns(mu), _action_columns(rho)

    # mu(x)(a o b) = (mu(x)a) o b + mu(rho(a)x)b       over (x, a, b)
    def compat_mu():
        for x in range(g.dim):
            for a in range(h.dim):
                for b in range(h.dim):
                    lhs = reference_apply(mu[x], table_product(h, e(a), e(b)))
                    rhs = _add(
                        table_product(h, mu_at[x][a], e(b)),
                        _action_combine(mu_at, rho_at[a][x], b),
                    )
                    yield (x, a, b), lhs, rhs

    # rho(a)(x.y) = (rho(a)x).y + rho(mu(x)a)y          over (a, x, y)
    def compat_rho():
        for a in range(h.dim):
            for x in range(g.dim):
                for y in range(g.dim):
                    lhs = reference_apply(rho[a], table_product(g, e(x), e(y)))
                    rhs = _add(
                        table_product(g, rho_at[a][x], e(y)),
                        _action_combine(rho_at, mu_at[x][a], y),
                    )
                    yield (a, x, y), lhs, rhs

    verdicts.append(_vector_equality_verdict("compat_mu", compat_mu(), ("x", "a", "b")))
    verdicts.append(_vector_equality_verdict("compat_rho", compat_rho(), ("a", "x", "y")))
    return VerdictBundle("commutative_associative_pair", tuple(verdicts))


def reference_lie_matched_pair(g, h, rho, mu) -> VerdictBundle:
    jacobi = CLAIM_SIDES["jacobi"]
    verdicts = [
        evaluate_claim(g, ClaimSpec("g_antisymmetric", "(x y)", "- (y x)", "product")),
        evaluate_claim(g, ClaimSpec("g_jacobi", *jacobi, "product")),
        evaluate_claim(h, ClaimSpec("h_antisymmetric", "(x y)", "- (y x)", "product")),
        evaluate_claim(h, ClaimSpec("h_jacobi", *jacobi, "product")),
    ]

    def rho_rep():
        products = basis_products(g)
        for i in range(g.dim):
            for j in range(g.dim):
                coeffs = products.get((i, j), {})
                lhs = Matrix(h.dim, h.dim, _family_at(rho, coeffs))
                yield (i, j), lhs, _commutator(rho[i], rho[j])

    def mu_rep():
        products = basis_products(h)
        for i in range(h.dim):
            for j in range(h.dim):
                coeffs = products.get((i, j), {})
                lhs = Matrix(g.dim, g.dim, _family_at(mu, coeffs))
                yield (i, j), lhs, _commutator(mu[i], mu[j])

    verdicts.append(_matrix_equality_verdict("rho_representation", rho_rep(), ("x", "y", "v")))
    verdicts.append(_matrix_equality_verdict("mu_representation", mu_rep(), ("a", "b", "v")))

    e = _basis
    rho_at, mu_at = _action_columns(rho), _action_columns(mu)

    # rho(x)[a,b] + rho(mu(a)x)b - rho(mu(b)x)a = [rho(x)a, b] + [a, rho(x)b]
    def compat_h():
        for x in range(g.dim):
            for a in range(h.dim):
                for b in range(h.dim):
                    lhs = _sub(
                        _add(
                            reference_apply(rho[x], table_product(h, e(a), e(b))),
                            _action_combine(rho_at, mu_at[a][x], b),
                        ),
                        _action_combine(rho_at, mu_at[b][x], a),
                    )
                    rhs = _add(
                        table_product(h, rho_at[x][a], e(b)),
                        table_product(h, e(a), rho_at[x][b]),
                    )
                    yield (x, a, b), lhs, rhs

    # mu(a)[x,y] + mu(rho(x)a)y - mu(rho(y)a)x = [mu(a)x, y] + [x, mu(a)y]
    def compat_g():
        for a in range(h.dim):
            for x in range(g.dim):
                for y in range(g.dim):
                    lhs = _sub(
                        _add(
                            reference_apply(mu[a], table_product(g, e(x), e(y))),
                            _action_combine(mu_at, rho_at[x][a], y),
                        ),
                        _action_combine(mu_at, rho_at[y][a], x),
                    )
                    rhs = _add(
                        table_product(g, mu_at[a][x], e(y)),
                        table_product(g, e(x), mu_at[a][y]),
                    )
                    yield (a, x, y), lhs, rhs

    verdicts.append(_vector_equality_verdict("compat_on_h", compat_h(), ("x", "a", "b")))
    verdicts.append(_vector_equality_verdict("compat_on_g", compat_g(), ("a", "x", "y")))
    return VerdictBundle("lie_pair", tuple(verdicts))


def reference_induced_commassoc_pair(mp) -> VerdictBundle:
    return reference_commassoc_matched_pair(
        mp.a.symmetrize(),
        mp.b.symmetrize(),
        tuple(mp.la[i] + mp.ra[i] for i in range(mp.a.dim)),
        tuple(mp.lb[i] + mp.rb[i] for i in range(mp.b.dim)),
    )


def reference_induced_lie_pair(mp) -> VerdictBundle:
    return reference_lie_matched_pair(
        mp.a.commutator(),
        mp.b.commutator(),
        tuple(mp.la[i] - mp.ra[i] for i in range(mp.a.dim)),
        tuple(mp.lb[i] - mp.rb[i] for i in range(mp.b.dim)),
    )


def reference_lie_difference_actions(table) -> tuple:
    """-(L_i - R_i)^T for each basis vector e_i, entrywise from the structure
    constants: with L_i e_j = e_i e_j and R_i e_j = e_j e_i, its (j, k)
    entry is c_ji^k - c_ij^k.  No matrix arithmetic."""
    c, n = table.c.entries, table.dim
    return tuple(
        Matrix(n, n, {(j, k): c.get((j, i, k), 0) - c.get((i, j, k), 0)
                      for j in range(n) for k in range(n)})
        for i in range(n)
    )


def reference_induced_subadjacent_map(b) -> SubadjacentReport:
    n = b.base.dim
    maps = tuple(b.left_maps[i] - b.right_maps[i] for i in range(n))
    bracket = b.base.commutator()

    products = basis_products(bracket)

    def pairs():
        for i in range(n):
            for j in range(n):
                coeffs = products.get((i, j), {})
                lhs = Matrix(b.v_dim, b.v_dim, _family_at(maps, coeffs))
                yield (i, j), lhs, _commutator(maps[i], maps[j])

    return SubadjacentReport(maps, _matrix_equality_verdict("bracket_representation", pairs()))


def reference_rank(m) -> int:
    """The rank of a ``Matrix`` by sympy's elimination over the rationals.
    ``to_DM()`` ranks in sympy's exact domain QQ: the generic ``rank()``
    takes seconds per dense 26 x 26 form."""
    values = [m.get(r, c) for r in range(m.rows) for c in range(m.cols)]
    entries = [sympy.Rational(q.numerator, q.denominator) for q in values]
    return sympy.Matrix(m.rows, m.cols, entries).to_DM().rank()


def reference_check_form(a, form):
    """The bilinear-form verdicts as ``bialgebra.check_form`` gave them when
    the invariance check summed ``g.get`` over all dim^3 tuples, each basis
    product taken once from the dense ``table_product``; the rank is
    sympy's, not the library's."""
    g = form.g
    sym = Verdict("symmetric", True)
    for (i, j), v in sorted(g.entries.items()):
        if g.get(j, i) != v:
            sym = Verdict(
                "symmetric",
                False,
                f"at (e{i},e{j}): {format_scalar(v)} vs {format_scalar(g.get(j, i))}",
                {"tuple": [i, j], "lhs": format_scalar(v), "rhs": format_scalar(g.get(j, i))},
            )
            break

    inv = Verdict("invariant", True)
    products = {(i, j): table_product(a, _basis(i), _basis(j))
                for i, j in product(range(a.dim), repeat=2)}
    for i, j, l in product(range(a.dim), repeat=3):
        lhs = sum((v * g.get(k, l) for k, v in products[i, j].items()), Fraction(0))
        rhs = sum((v * g.get(i, m) for m, v in products[j, l].items()), Fraction(0))
        if lhs != rhs:
            inv = Verdict(
                "invariant",
                False,
                f"at (e{i},e{j},e{l}): B(xy,z) = {format_scalar(lhs)}, "
                f"B(x,yz) = {format_scalar(rhs)}",
                {"tuple": [i, j, l], "lhs": format_scalar(lhs), "rhs": format_scalar(rhs)},
            )
            break

    r = reference_rank(g)
    nondeg = (
        Verdict("nondegenerate", True)
        if r == form.dim
        else Verdict(
            "nondegenerate", False, f"rank {r} < dim {form.dim}", {"rank": r, "dim": form.dim}
        )
    )
    return VerdictBundle("bilinear_form", (sym, inv, nondeg))


# -- reference composition calculus ---------------------------------------------
#
# The coalgebra checks as the library computed them before they ran on the
# identity engine: a composite like (tau (x) id) o (Delta (x) id) o
# (tau o Delta) is evaluated per basis vector, starting from the 2-leg tensor
# of the inner coproduct, expanding one leg with a coproduct, then permuting
# legs.  All tensors are sparse dicts; nothing here reads the dual table.


def _expand0(two: dict, c, *, swap: bool = False) -> dict:
    """Apply Delta (or tau o Delta) to the first leg: (F (x) id)."""
    out: dict = {}
    for (m, j), v in two.items():
        for (i, i2), w in reference_delta(c, m, swap=swap).items():
            key = (i, i2, j)
            out[key] = out.get(key, Fraction(0)) + v * w
    return {key: v for key, v in out.items() if v}


def _expand1(two: dict, c, *, swap: bool = False) -> dict:
    """Apply Delta (or tau o Delta) to the second leg: (id (x) F)."""
    out: dict = {}
    for (i, m), v in two.items():
        for (j, l), w in reference_delta(c, m, swap=swap).items():
            key = (i, j, l)
            out[key] = out.get(key, Fraction(0)) + v * w
    return {key: v for key, v in out.items() if v}


def _swap01(t: dict) -> dict:
    return {(j, i, l): v for (i, j, l), v in t.items()}


def _swap12(t: dict) -> dict:
    return {(i, l, j): v for (i, j, l), v in t.items()}


class _Composites:
    """The composites of Delta and tau at one basis vector e_k, each built
    on first use and shared by every identity that reads it."""

    def __init__(self, c, k: int):
        self.c = c
        self.d, self.dt = reference_delta(c, k), reference_delta(c, k, swap=True)

    @cached_property
    def id_delta(self) -> dict:  # (id (x) Delta) o Delta
        return _expand1(self.d, self.c)

    @cached_property
    def delta_id(self) -> dict:  # (Delta (x) id) o Delta
        return _expand0(self.d, self.c)

    @cached_property
    def tdelta_id(self) -> dict:  # ((tau o Delta) (x) id) o Delta
        return _expand0(self.d, self.c, swap=True)

    @cached_property
    def id_tdelta(self) -> dict:  # (id (x) (tau o Delta)) o Delta
        return _expand1(self.d, self.c, swap=True)

    @cached_property
    def id_delta_t(self) -> dict:  # (id (x) Delta) o (tau o Delta)
        return _expand1(self.dt, self.c)

    @cached_property
    def delta_id_t(self) -> dict:  # (Delta (x) id) o (tau o Delta)
        return _expand0(self.dt, self.c)

    @cached_property
    def id_tdelta_t(self) -> dict:  # (id (x) (tau o Delta)) o (tau o Delta)
        return _expand1(self.dt, self.c, swap=True)

    @cached_property
    def tdelta_id_t(self) -> dict:  # ((tau o Delta) (x) id) o (tau o Delta)
        return _expand0(self.dt, self.c, swap=True)

    @cached_property
    def derived_rhs(self) -> dict:
        # (id (x) tau) o (Delta (x) id) o Delta
        #   + (tau (x) id) o (id (x) (tau o Delta)) o (tau o Delta)
        return _add(_swap12(self.delta_id), _swap01(self.id_tdelta_t))

    def two_leg(self, sign: int) -> dict:
        """Delta + sign * (tau o Delta), keyed (i, j, 0) like a 3-leg residual."""
        out = _add(self.d, {key: sign * v for key, v in self.dt.items()})
        return {(i, j, 0): v for (i, j), v in out.items()}


# check -> residual at one basis vector, from its composites
REFERENCE_CO_CHECKS = {
    "co_right": lambda x: _sub(_sub(x.id_delta, x.delta_id), x.tdelta_id),
    "co_left": lambda x: _sub(_sub(x.delta_id, x.id_delta), x.id_tdelta),
    "cocommutative": lambda x: x.two_leg(-1),
    "coassociative": lambda x: _sub(x.delta_id, x.id_delta),
    "antisymmetric": lambda x: x.two_leg(1),
    # (id (x) Delta) o Delta + (id (x) tau) o (Delta (x) id) o Delta
    #   - (Delta (x) id) o Delta
    "co_jacobi": lambda x: _sub(_add(x.id_delta, _swap12(x.delta_id)), x.delta_id),
    "co_right_relation_a": lambda x: _sub(x.id_delta, _swap01(x.id_delta)),
    "co_right_relation_b": lambda x: _sub(x.id_delta, _swap01(x.delta_id_t)),
    "co_left_relation_a": lambda x: _sub(x.delta_id, _swap12(x.delta_id)),
    "co_left_relation_b": lambda x: _sub(x.delta_id, _swap12(x.id_delta_t)),
    "co_derived_1": lambda x: _sub(x.id_tdelta, x.derived_rhs),
    "co_derived_2": lambda x: _sub(x.delta_id_t, x.derived_rhs),
    "co_derived_3": lambda x: _sub(x.tdelta_id_t, _add(x.id_delta_t, x.id_tdelta_t)),
}

REFERENCE_AUX = (
    "co_right_relation_a", "co_right_relation_b", "co_left_relation_a",
    "co_left_relation_b", "co_derived_1", "co_derived_2", "co_derived_3",
)


def reference_co_residuals(c, name: str, first_only: bool = False) -> list:
    """[(k, residual)] of one check, one basis vector at a time."""
    out = []
    for k in range(c.dim):
        r = REFERENCE_CO_CHECKS[name](_Composites(c, k))
        if r:
            out.append((k, r))
            if first_only:
                break
    return out


def reference_check_co(c, name: str, first_only: bool = False) -> list:
    """check_co_right / check_co_left for ``name`` "co_right" / "co_left",
    and ``coalgebra.read_co_check`` for any check name."""
    return [CoalgebraViolation(k, r) for k, r in reference_co_residuals(c, name, first_only)]


def _co_verdict(name: str, first) -> Verdict:
    if first is None:
        return Verdict(name, True)
    k, r = first
    return Verdict(name, False, f"at e{k}: residual = {format_triples(r)}",
                   {"basis_index": k, "residual": sorted_rows(r)})


def reference_co_bundle(c, title: str, names) -> VerdictBundle:
    """A co-check bundle with one scan per check."""
    verdicts = []
    for name in names:
        hits = reference_co_residuals(c, name, first_only=True)
        verdicts.append(_co_verdict(name, hits[0] if hits else None))
    return VerdictBundle(title, tuple(verdicts))


def reference_aux_joint_scan(c) -> VerdictBundle:
    """The aux bundle by one pass over the basis for all seven identities,
    which share the composites at each basis vector; an identity is no
    longer evaluated after its first violation."""
    first: dict = {}
    for k in range(c.dim):
        x = _Composites(c, k)
        for name in REFERENCE_AUX:
            if name not in first:
                r = REFERENCE_CO_CHECKS[name](x)
                if r:
                    first[name] = (k, r)
        if len(first) == len(REFERENCE_AUX):
            break
    return VerdictBundle(
        "aux_coalgebra_identities",
        tuple(_co_verdict(name, first.get(name)) for name in REFERENCE_AUX),
    )


# -- helpers only the tests call ----------------------------------------------


def gap_counterexample():
    """Coproduct whose symmetrization is zero (so trivially cocommutative and
    coassociative) while the coproduct itself passes neither orientation."""
    return coalgebra_from_entries(2, [(0, 0, 1, 1), (0, 1, 0, -1)])


def render_tree(tree) -> str:
    if isinstance(tree, str):
        return tree
    return f"({render_tree(tree[0])} {render_tree(tree[1])})"


def render_identity(identity) -> str:
    """Canonical source text; parse_identity(render_identity(i)) == i."""
    parts = []
    for idx, (coeff, tree) in enumerate(identity.terms):
        mag = abs(coeff)
        body = render_tree(tree) if mag == 1 else f"{mag} * {render_tree(tree)}"
        if idx == 0:
            parts.append(body if coeff > 0 else f"- {body}")
        else:
            parts.append(f"{'+' if coeff > 0 else '-'} {body}")
    return " ".join(parts)


def catalog_source(name: str) -> str:
    """Canonical source text of the catalog identity ``name``."""
    return render_identity(catalog()[name])


def pair_basis(form, i: int, j: int) -> Fraction:
    """B(e_i, e_j) of a bilinear form table."""
    return form.g.get(i, j)


def coproduct_basis(coalgebra, k: int) -> dict:
    """Delta(e_k) as {(i, j): coefficient} over the nonzero entries."""
    return {(i, j): v for (kk, i, j), v in coalgebra.d.entries.items() if kk == k}


# -- change of basis -----------------------------------------------------------


def elementary_product(dim: int, moves) -> tuple[Matrix, Matrix]:
    """(P, P⁻¹) for P the product of the elementary matrices I + c E_ij of
    ``moves`` ``[(i, j, c), ...]`` (i != j), in order; both are integral,
    since (I + c E_ij)⁻¹ = I - c E_ij."""
    p = [[int(r == s) for s in range(dim)] for r in range(dim)]
    p_inv = [row[:] for row in p]
    for i, j, c in moves:
        for r in range(dim):  # P <- P (I + c E_ij): column j += c column i
            p[r][j] += c * p[r][i]
        p_inv[i] = [a - c * b for a, b in zip(p_inv[i], p_inv[j])]  # (I - c E_ij) P⁻¹
    return tuple(Matrix(dim, dim, {(r, s): Fraction(v) for r, row in enumerate(m)
                                   for s, v in enumerate(row) if v}) for m in (p, p_inv))


def transported_table(table, p: Matrix, p_inv: Matrix):
    """The table in the basis P e_0, ..., P e_{dim-1}:
    e_i *' e_j = P⁻¹ (P e_i * P e_j), with default labels."""
    entries = []
    for i, j in product(range(table.dim), repeat=2):
        prod: dict = {}
        for (a, b, k), v in table.c.entries.items():
            w = p.get(a, i) * p.get(b, j)
            if w:
                prod[k] = prod.get(k, 0) + w * v
        entries += [(i, j, k, v) for k, v in reference_apply(p_inv, prod).items()]
    return algebra_from_entries(table.dim, entries)


def transported_residuals(residuals, p: Matrix, p_inv: Matrix) -> list:
    """R'(e_i, e_j, ...) = P⁻¹ R(P e_i, P e_j, ...) on every basis tuple, from
    R's residual list ``[(assignment, {index: Fraction})]``, P applied to one
    argument at a time; the nonzero ones, in lexicographic order, in the
    shape of ``identities.evaluate``."""
    moved = dict(residuals)
    for axis in range(len(residuals[0][0]) if residuals else 0):
        step: dict = {}
        for a, vec in moved.items():
            for (x, y), w in p.entries.items():
                if x == a[axis]:
                    acc = step.setdefault((*a[:axis], y, *a[axis + 1:]), {})
                    for k, v in vec.items():
                        acc[k] = acc.get(k, 0) + w * v
        moved = step
    out = [(t, reference_apply(p_inv, vec)) for t, vec in sorted(moved.items())]
    return [(t, vec) for t, vec in out if vec]
