"""Matched pairs of tables and the double construction.

A matched pair carries two tables A (product written x.y) and B (written
a o b) plus four matrix families: la/ra make B an A-bimodule, lb/rb make A a
B-bimodule.  ``check_matched_pair`` verifies, as prerequisite conditions,
that both tables pass the right-orientation Zinbiel check and that both
action pairs pass the bimodule axioms, then the six mixed compatibility
equalities.  Together these are exactly equivalent to the double

    (x+a) * (y+b) = (x.y + lb(a)y + rb(b)x) + (a o b + la(x)b + ra(y)a)

passing the right-orientation Zinbiel check, which is how the equivalence is
fuzz-tested.

The base-table prerequisite is part of the check on purpose: with all maps
zero the double degenerates to the direct sum, so "matched pair" must imply
both summands are Zinbiel for the equivalence to be exact.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraTable, algebra_from_entries
from .audit import ClaimSpec, evaluate_claim
from .bimodule import Bimodule, check_bimodule
from .identities import CLAIM_SIDES, log_debug, right_zinbiel_residuals
from .reports import (
    VerdictBundle,
    format_matrix,
    format_vector,
    matrix_equality_verdict,
    vector_equality_verdict,
)
from .tensors import ONE, ZERO, DimensionMismatch, Frozen, Matrix, linear_combination


class MatchedPair(Frozen):
    a: AlgebraTable
    b: AlgebraTable
    la: tuple[Matrix, ...]  # A-indexed, act on B
    ra: tuple[Matrix, ...]
    lb: tuple[Matrix, ...]  # B-indexed, act on A
    rb: tuple[Matrix, ...]

    def __init__(self, a: AlgebraTable, b: AlgebraTable, la: tuple, ra: tuple, lb: tuple, rb: tuple):
        self.__dict__.update(a=a, b=b, la=la, ra=ra, lb=lb, rb=rb)
        n, p = self.a.dim, self.b.dim
        if len(self.la) != n or len(self.ra) != n:
            raise DimensionMismatch("need one la/ra matrix per basis vector of A")
        if len(self.lb) != p or len(self.rb) != p:
            raise DimensionMismatch("need one lb/rb matrix per basis vector of B")
        for m in (*self.la, *self.ra):
            if (m.rows, m.cols) != (p, p):
                raise DimensionMismatch("la/ra matrices must be dim(B) x dim(B)")
        for m in (*self.lb, *self.rb):
            if (m.rows, m.cols) != (n, n):
                raise DimensionMismatch("lb/rb matrices must be dim(A) x dim(A)")


def zero_matched_pair(a: AlgebraTable, b: AlgebraTable) -> MatchedPair:
    zp = Matrix.zero(b.dim, b.dim)
    zn = Matrix.zero(a.dim, a.dim)
    return MatchedPair(a, b, (zp,) * a.dim, (zp,) * a.dim, (zn,) * b.dim, (zn,) * b.dim)


def _columns(family) -> list[list[dict]]:
    """[k][j] -> column j of family[k] as a raw dict: what family[k] does to e_j."""
    return [[m.column(j).entries for j in range(m.cols)] for m in family]


def _combine(columns, coeffs: dict, j: int) -> dict:
    """sum_k coeffs[k] * (family[k] applied to e_j), from the family's columns."""
    out: dict[int, Fraction] = {}
    for k, s in coeffs.items():
        for m, v in columns[k][j].items():
            acc = out.get(m, ZERO) + s * v
            if acc:
                out[m] = acc
            elif m in out:
                del out[m]
    return out


def _add(lhs: dict, rhs: dict) -> dict:
    out = dict(lhs)
    for k, v in rhs.items():
        out[k] = out.get(k, ZERO) + v
    return out


def _sub(lhs: dict, *others: dict) -> dict:
    out = dict(lhs)
    for other in others:
        for k, v in other.items():
            acc = out.get(k, ZERO) - v
            if acc:
                out[k] = acc
            elif k in out:
                del out[k]
    return out


class MatchedPairViolation(NamedTuple):
    condition: str
    where: tuple[int, ...]
    residual: object  # raw dict for vector conditions, Matrix for bimodule axioms


def format_violation(v: MatchedPairViolation) -> str:
    body = format_matrix(v.residual) if isinstance(v.residual, Matrix) else format_vector(v.residual)
    where = "(" + ",".join(str(i) for i in v.where) + ")"
    return f"{v.condition} at {where}: residual {body}"


def check_matched_pair(mp: MatchedPair) -> list[MatchedPairViolation]:
    """Prerequisites plus the six mixed equalities; empty iff the double passes."""
    out: list[MatchedPairViolation] = []
    for triple, residual in right_zinbiel_residuals(mp.a):
        out.append(MatchedPairViolation("base_a_right_zinbiel", triple, residual))
    for triple, residual in right_zinbiel_residuals(mp.b):
        out.append(MatchedPairViolation("base_b_right_zinbiel", triple, residual))
    for v in check_bimodule(Bimodule(mp.a, mp.b.dim, mp.la, mp.ra)):
        out.append(MatchedPairViolation(f"action_on_b:{v.axiom}", v.pair, v.residual))
    for v in check_bimodule(Bimodule(mp.b, mp.a.dim, mp.lb, mp.rb)):
        out.append(MatchedPairViolation(f"action_on_a:{v.axiom}", v.pair, v.residual))

    A, B = mp.a, mp.b
    n, p = A.dim, B.dim
    e = [{i: ONE} for i in range(max(n, p))]
    # Loop invariants: every action column the equalities read, including
    # those of the summed actions (lb+rb)(a) and (la+ra)(x).
    la, ra, lb, rb = (_columns(f) for f in (mp.la, mp.ra, mp.lb, mp.rb))
    lrb = _columns([mp.lb[a] + mp.rb[a] for a in range(p)])
    lra = _columns([mp.la[x] + mp.ra[x] for x in range(n)])

    # compat_rb: rb(a)(x.y + y.x) = x.(rb(a)y) + rb(la(y)a)x     over (x, y, a)
    for x in range(n):
        for y in range(n):
            sym = _add(A.product_basis(x, y), A.product_basis(y, x))
            for a in range(p):
                r = _sub(
                    mp.rb[a].apply_raw(sym),
                    A.multiply_raw(e[x], rb[a][y]),
                    _combine(rb, la[y][a], x),
                )
                if r:
                    out.append(MatchedPairViolation("compat_rb", (x, y, a), r))

    # compat_ra: ra(x)(a o b + b o a) = a o (ra(x)b) + ra(lb(b)x)a   over (a, b, x)
    for a in range(p):
        for b in range(p):
            sym = _add(B.product_basis(a, b), B.product_basis(b, a))
            for x in range(n):
                r = _sub(
                    mp.ra[x].apply_raw(sym),
                    B.multiply_raw(e[a], ra[x][b]),
                    _combine(ra, lb[b][x], a),
                )
                if r:
                    out.append(MatchedPairViolation("compat_ra", (a, b, x), r))

    # compat_lb_1: lb(a)(x.y) = ((lb+rb)(a)x).y + lb((la+ra)(x)a)y  over (x, y, a)
    # compat_lb_2: lb(a)(x.y) = x.(lb(a)y) + rb(ra(y)a)x
    for x in range(n):
        for y in range(n):
            prod = A.product_basis(x, y)
            for a in range(p):
                lhs = mp.lb[a].apply_raw(prod)
                r1 = _sub(lhs, A.multiply_raw(lrb[a][x], e[y]), _combine(lb, lra[x][a], y))
                if r1:
                    out.append(MatchedPairViolation("compat_lb_1", (x, y, a), r1))
                r2 = _sub(lhs, A.multiply_raw(e[x], lb[a][y]), _combine(rb, ra[y][a], x))
                if r2:
                    out.append(MatchedPairViolation("compat_lb_2", (x, y, a), r2))

    # compat_la_1: la(x)(a o b) = la((lb+rb)(a)x)b + ((la+ra)(x)a) o b  over (a, b, x)
    # compat_la_2: la(x)(a o b) = a o (la(x)b) + ra(rb(b)x)a
    for a in range(p):
        for b in range(p):
            prod = B.product_basis(a, b)
            for x in range(n):
                lhs = mp.la[x].apply_raw(prod)
                r1 = _sub(lhs, _combine(la, lrb[a][x], b), B.multiply_raw(lra[x][a], e[b]))
                if r1:
                    out.append(MatchedPairViolation("compat_la_1", (a, b, x), r1))
                r2 = _sub(lhs, B.multiply_raw(e[a], la[x][b]), _combine(ra, rb[b][x], a))
                if r2:
                    out.append(MatchedPairViolation("compat_la_2", (a, b, x), r2))

    log_debug(
        "zinbielkit.matched_pair",
        "matched pair: dim A = %d, dim B = %d, %d violations %s",
        n, p, len(out), dict(Counter(v.condition for v in out)),
    )
    return out


def double(mp: MatchedPair) -> AlgebraTable:
    """Product table on A + B from the matched-pair data."""
    n, p = mp.a.dim, mp.b.dim
    entries = list((i, j, k, v) for (i, j, k), v in mp.a.c.entries.items())
    for (alpha, beta, gamma), v in mp.b.c.entries.items():
        entries.append((n + alpha, n + beta, n + gamma, v))
    # e_i * f_beta = rb(f_beta)e_i + la(e_i)f_beta,
    # f_alpha * e_j = lb(f_alpha)e_j + ra(e_j)f_alpha
    for beta in range(p):
        for (m, i), v in mp.rb[beta].entries.items():
            entries.append((i, n + beta, m, v))
        for (m, j), v in mp.lb[beta].entries.items():
            entries.append((n + beta, j, m, v))
    for i in range(n):
        for (row, col), v in mp.la[i].entries.items():
            entries.append((i, n + col, n + row, v))
    for j in range(n):
        for (row, col), v in mp.ra[j].entries.items():
            entries.append((n + col, j, n + row, v))
    labels = mp.a.basis_labels + tuple(f"f{k}" for k in range(p))
    return algebra_from_entries(n + p, entries, labels)


def check_commassoc_matched_pair(
    g: AlgebraTable, h: AlgebraTable, mu: tuple[Matrix, ...], rho: tuple[Matrix, ...]
) -> VerdictBundle:
    """Matched pair of commutative associative tables: mu acts on h, rho on g."""
    commutative, associative = CLAIM_SIDES["commutative"], CLAIM_SIDES["associative"]
    verdicts = [
        evaluate_claim(g, ClaimSpec("g_commutative", *commutative, "product"), "product"),
        evaluate_claim(g, ClaimSpec("g_associative", *associative, "product"), "product"),
        evaluate_claim(h, ClaimSpec("h_commutative", *commutative, "product"), "product"),
        evaluate_claim(h, ClaimSpec("h_associative", *associative, "product"), "product"),
    ]

    def mu_rep():
        for i in range(g.dim):
            for j in range(g.dim):
                coeffs = g.product_basis(i, j)
                lhs = linear_combination(mu, coeffs) if coeffs else Matrix.zero(h.dim, h.dim)
                yield (i, j), lhs, mu[i] @ mu[j]

    def rho_rep():
        for i in range(h.dim):
            for j in range(h.dim):
                coeffs = h.product_basis(i, j)
                lhs = linear_combination(rho, coeffs) if coeffs else Matrix.zero(g.dim, g.dim)
                yield (i, j), lhs, rho[i] @ rho[j]

    verdicts.append(matrix_equality_verdict("mu_representation", mu_rep(), ("x", "y", "v")))
    verdicts.append(matrix_equality_verdict("rho_representation", rho_rep(), ("a", "b", "v")))

    e = [{i: ONE} for i in range(max(g.dim, h.dim))]
    mu_at, rho_at = _columns(mu), _columns(rho)

    # mu(x)(a o b) = (mu(x)a) o b + mu(rho(a)x)b       over (x, a, b)
    def compat_mu():
        for x in range(g.dim):
            for a in range(h.dim):
                for b in range(h.dim):
                    lhs = mu[x].apply_raw(h.product_basis(a, b))
                    rhs = h.multiply_raw(mu_at[x][a], e[b])
                    for k, v in _combine(mu_at, rho_at[a][x], b).items():
                        rhs[k] = rhs.get(k, ZERO) + v
                    yield (x, a, b), lhs, {k: v for k, v in rhs.items() if v}

    # rho(a)(x.y) = (rho(a)x).y + rho(mu(x)a)y          over (a, x, y)
    def compat_rho():
        for a in range(h.dim):
            for x in range(g.dim):
                for y in range(g.dim):
                    lhs = rho[a].apply_raw(g.product_basis(x, y))
                    rhs = g.multiply_raw(rho_at[a][x], e[y])
                    for k, v in _combine(rho_at, mu_at[x][a], y).items():
                        rhs[k] = rhs.get(k, ZERO) + v
                    yield (a, x, y), lhs, {k: v for k, v in rhs.items() if v}

    verdicts.append(vector_equality_verdict("compat_mu", compat_mu(), ("x", "a", "b")))
    verdicts.append(vector_equality_verdict("compat_rho", compat_rho(), ("a", "x", "y")))
    return VerdictBundle("commutative_associative_pair", tuple(verdicts))


def check_lie_matched_pair(
    g: AlgebraTable, h: AlgebraTable, rho: tuple[Matrix, ...], mu: tuple[Matrix, ...]
) -> VerdictBundle:
    """Matched pair of Lie bracket tables: rho is g acting on h, mu is h on g."""
    jacobi = CLAIM_SIDES["jacobi"]
    verdicts = [
        evaluate_claim(g, ClaimSpec("g_antisymmetric", "(x y)", "- (y x)", "product"), "product"),
        evaluate_claim(g, ClaimSpec("g_jacobi", *jacobi, "product"), "product"),
        evaluate_claim(h, ClaimSpec("h_antisymmetric", "(x y)", "- (y x)", "product"), "product"),
        evaluate_claim(h, ClaimSpec("h_jacobi", *jacobi, "product"), "product"),
    ]

    def rho_rep():
        for i in range(g.dim):
            for j in range(g.dim):
                coeffs = g.product_basis(i, j)
                lhs = linear_combination(rho, coeffs) if coeffs else Matrix.zero(h.dim, h.dim)
                yield (i, j), lhs, rho[i] @ rho[j] - rho[j] @ rho[i]

    def mu_rep():
        for i in range(h.dim):
            for j in range(h.dim):
                coeffs = h.product_basis(i, j)
                lhs = linear_combination(mu, coeffs) if coeffs else Matrix.zero(g.dim, g.dim)
                yield (i, j), lhs, mu[i] @ mu[j] - mu[j] @ mu[i]

    verdicts.append(matrix_equality_verdict("rho_representation", rho_rep(), ("x", "y", "v")))
    verdicts.append(matrix_equality_verdict("mu_representation", mu_rep(), ("a", "b", "v")))

    e = [{i: ONE} for i in range(max(g.dim, h.dim))]
    rho_at, mu_at = _columns(rho), _columns(mu)

    # rho(x)[a,b] - [rho(x)a, b] - [a, rho(x)b] + rho(mu(a)x)b - rho(mu(b)x)a = 0
    def compat_h():
        for x in range(g.dim):
            for a in range(h.dim):
                for b in range(h.dim):
                    lhs = rho[x].apply_raw(h.product_basis(a, b))
                    rhs = h.multiply_raw(rho_at[x][a], e[b])
                    for k, v in h.multiply_raw(e[a], rho_at[x][b]).items():
                        rhs[k] = rhs.get(k, ZERO) + v
                    for k, v in _combine(rho_at, mu_at[a][x], b).items():
                        lhs[k] = lhs.get(k, ZERO) + v
                    for k, v in _combine(rho_at, mu_at[b][x], a).items():
                        lhs[k] = lhs.get(k, ZERO) - v
                    yield (
                        (x, a, b),
                        {k: v for k, v in lhs.items() if v},
                        {k: v for k, v in rhs.items() if v},
                    )

    # mu(a)[x,y] - [mu(a)x, y] - [x, mu(a)y] + mu(rho(x)a)y - mu(rho(y)a)x = 0
    def compat_g():
        for a in range(h.dim):
            for x in range(g.dim):
                for y in range(g.dim):
                    lhs = mu[a].apply_raw(g.product_basis(x, y))
                    rhs = g.multiply_raw(mu_at[a][x], e[y])
                    for k, v in g.multiply_raw(e[x], mu_at[a][y]).items():
                        rhs[k] = rhs.get(k, ZERO) + v
                    for k, v in _combine(mu_at, rho_at[x][a], y).items():
                        lhs[k] = lhs.get(k, ZERO) + v
                    for k, v in _combine(mu_at, rho_at[y][a], x).items():
                        lhs[k] = lhs.get(k, ZERO) - v
                    yield (
                        (a, x, y),
                        {k: v for k, v in lhs.items() if v},
                        {k: v for k, v in rhs.items() if v},
                    )

    verdicts.append(vector_equality_verdict("compat_on_h", compat_h(), ("x", "a", "b")))
    verdicts.append(vector_equality_verdict("compat_on_g", compat_g(), ("a", "x", "y")))
    return VerdictBundle("lie_pair", tuple(verdicts))


def induced_commassoc_pair(mp: MatchedPair) -> VerdictBundle:
    """Symmetrized tables with the summed actions la+ra and lb+rb."""
    return check_commassoc_matched_pair(
        mp.a.symmetrize(),
        mp.b.symmetrize(),
        tuple(mp.la[i] + mp.ra[i] for i in range(mp.a.dim)),
        tuple(mp.lb[i] + mp.rb[i] for i in range(mp.b.dim)),
    )


def induced_lie_pair(mp: MatchedPair) -> VerdictBundle:
    """Commutator tables with the difference actions la-ra and lb-rb."""
    return check_lie_matched_pair(
        mp.a.commutator(),
        mp.b.commutator(),
        tuple(mp.la[i] - mp.ra[i] for i in range(mp.a.dim)),
        tuple(mp.lb[i] - mp.rb[i] for i in range(mp.b.dim)),
    )
