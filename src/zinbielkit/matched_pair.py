"""Matched pairs of tables and the double construction.

A matched pair carries two tables A (product written x.y) and B (written
a o b) plus four matrix families: la/ra make B an A-bimodule, lb/rb make A a
B-bimodule.  ``check_matched_pair`` verifies, as prerequisite conditions,
that both tables pass the right-orientation Zinbiel check and that both
action pairs pass the bimodule axioms, then six mixed compatibility
equalities.  For an action system of Q on P, written (lq, rq) with P's
actions (lp, rp) on Q, three equalities hold over x, y in P and a in Q:

    compat_r:    rq(a)(x.y + y.x) = x.(rq(a)y) + rq(lp(y)a)x
    compat_l_1:  lq(a)(x.y)       = ((lq+rq)(a)x).y + lq((lp+rp)(x)a)y
    compat_l_2:  lq(a)(x.y)       = x.(lq(a)y) + rq(rp(y)a)x

The ``*b`` conditions take (P, Q) = (A, B); the ``*a`` conditions are their
image under (A, la, ra) <-> (B, lb, rb), scanned over (a, b, x).  Together
these are exactly equivalent to the double

    (x+a) * (y+b) = (x.y + lb(a)y + rb(b)x) + (a o b + la(x)b + ra(y)a)

passing the right-orientation Zinbiel check.  So ``check_matched_pair``
scans both base tables, then runs the three bimodule axiom identities
(``bimodule._AXIOMS``) on the double per action system, x and y over P and a
over Q.  On Q's component they are the action's bimodule axioms; on P's,
compat_r is -left, compat_l_1 is right and compat_l_2 is -mixed (``_ON_P``).

The base-table prerequisite is part of the check on purpose: with all maps
zero the double degenerates to the direct sum, so "matched pair" must imply
both summands are Zinbiel for the equivalence to be exact.

The commutative-associative and Lie pair checks are symmetric the same way.
With f the action of g on h and k the action of h on g, one half checks f
as a representation (f_{x.y} = f_x f_y, or [f_x, f_y] for Lie) and one
compatibility over x in g and a, b in h,

    commutative associative:  f(x)(a o b) = (f(x)a) o b + f(k(a)x)b
    Lie:                      f(x)[a,b] + f(k(a)x)b - f(k(b)x)a = [f(x)a, b] + [a, f(x)b]

and the other half is the same check on (h, g, k, f).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraTable, algebra_from_entries
from .audit import ClaimSpec, evaluate_claim
from .bimodule import _AXIOMS, axiom_scans, column_matrices, representation_verdict
from .bimodule import check_bimodule  # noqa: F401  (unused; ROADMAP item 1, step A drops it)
from .identities import CLAIM_SIDES, log_debug, right_zinbiel_residuals
from .reports import Verdict, VerdictBundle, format_matrix, format_vector, vector_equality_verdict
from .tensors import ONE, ZERO, DimensionMismatch, Frozen, Matrix, add_raw


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


class MatchedPairViolation(NamedTuple):
    condition: str
    where: tuple[int, ...]
    residual: object  # raw dict for vector conditions, Matrix for bimodule axioms


def format_violation(v: MatchedPairViolation) -> str:
    body = format_matrix(v.residual) if isinstance(v.residual, Matrix) else format_vector(v.residual)
    where = "(" + ",".join(str(i) for i in v.where) + ")"
    return f"{v.condition} at {where}: residual {body}"


def matched_pair_verdict(name: str, violations: list[MatchedPairViolation]) -> Verdict:
    """The verdict of a matched-pair check, witnessed by its first violation."""
    if not violations:
        return Verdict(name, True)
    v = violations[0]
    witness = {"condition": v.condition, "where": list(v.where)}
    return Verdict(name, False, format_violation(v), witness)


# What an axiom scan of the double reads on P's component: the compatibility
# condition of the action system on Q, and its sign.
_ON_P = {
    "left_composition": ("compat_r{q}", -1),
    "mixed_composition": ("compat_l{q}_2", -1),
    "right_composition": ("compat_l{q}_1", 1),
}


def check_matched_pair(mp: MatchedPair) -> list[MatchedPairViolation]:
    """Prerequisites plus the six mixed equalities; empty iff the double passes."""
    out = [
        MatchedPairViolation(f"base_{p}_right_zinbiel", *hit)
        for p, table in (("a", mp.a), ("b", mp.b))
        for hit in right_zinbiel_residuals(table)
    ]
    d, n = double(mp), mp.a.dim
    on_a, on_b = range(n), range(n, d.dim)
    found: dict[str, list] = {}
    for q, p_range, q_range in (("b", on_a, on_b), ("a", on_b, on_a)):
        for axiom, hits in axiom_scans(d, p_range, q_range):
            action, (compat, sign) = f"action_on_{q}:{axiom}", _ON_P[axiom]
            found[action] = [MatchedPairViolation(action, *m)
                             for m in column_matrices(hits, len(q_range))]
            compat = compat.format(q=q)
            found[compat] = [MatchedPairViolation(compat, key, part) for key, part, _ in hits if part]
            if sign < 0:  # in place, so that no residual is held twice
                for _, part, _ in hits:
                    for k in part:
                        part[k] = -part[k]
    for q in "ba":
        out += (v for axiom in _AXIOMS for v in found[f"action_on_{q}:{axiom}"])
    out += found["compat_rb"] + found["compat_ra"]
    for q in "ba":  # compat_l*_1 and compat_l*_2 interleaved per (x, y, a)
        out += sorted(found[f"compat_l{q}_1"] + found[f"compat_l{q}_2"], key=lambda v: v.where)

    log_debug(
        "zinbielkit.matched_pair",
        "matched pair: dim A = %d, dim B = %d, %d violations %s",
        mp.a.dim, mp.b.dim, len(out), dict(Counter(v.condition for v in out)),
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


def _pair_half(p, q, f, f_at, k_at, names, p_vars, q_vars, bracket: bool):
    """Representation and compatibility verdicts of f, P acting on Q, where
    k_at are the columns of Q acting on P (see the module docstring)."""
    rep_name, compat_name = names

    def triples():
        for x in range(p.dim):
            for a in range(q.dim):
                for b in range(q.dim):
                    ab = f[x].apply_raw(q.product_basis(a, b))
                    fxa_b = q.multiply_raw(f_at[x][a], {b: ONE})
                    via_a = _combine(f_at, k_at[a][x], b)
                    if bracket:
                        lhs = add_raw(add_raw(ab, via_a), _combine(f_at, k_at[b][x], a), -1)
                        yield (x, a, b), lhs, add_raw(fxa_b, q.multiply_raw({a: ONE}, f_at[x][b]))
                    else:
                        yield (x, a, b), ab, add_raw(fxa_b, via_a)

    return (
        representation_verdict(rep_name, p, f, (*p_vars, "v"), bracket=bracket),
        vector_equality_verdict(compat_name, triples(), (p_vars[0], *q_vars)),
    )


def _pair_bundle(kind, claims, g, h, f, k, names, bracket: bool) -> VerdictBundle:
    """f is g acting on h, k is h acting on g; names holds each half's
    (representation, compatibility) verdict names."""
    verdicts = [
        evaluate_claim(table, ClaimSpec(f"{side}_{claim}", *sides, "product"), "product")
        for side, table in (("g", g), ("h", h))
        for claim, sides in claims
    ]
    f_at, k_at = _columns(f), _columns(k)
    halves = (
        _pair_half(g, h, f, f_at, k_at, names[0], ("x", "y"), ("a", "b"), bracket),
        _pair_half(h, g, k, k_at, f_at, names[1], ("a", "b"), ("x", "y"), bracket),
    )
    verdicts += (v for both in zip(*halves) for v in both)
    return VerdictBundle(kind, tuple(verdicts))


def check_commassoc_matched_pair(
    g: AlgebraTable, h: AlgebraTable, mu: tuple[Matrix, ...], rho: tuple[Matrix, ...]
) -> VerdictBundle:
    """Matched pair of commutative associative tables: mu acts on h, rho on g."""
    return _pair_bundle(
        "commutative_associative_pair",
        [(claim, CLAIM_SIDES[claim]) for claim in ("commutative", "associative")],
        g, h, mu, rho,
        (("mu_representation", "compat_mu"), ("rho_representation", "compat_rho")),
        bracket=False,
    )


def check_lie_matched_pair(
    g: AlgebraTable, h: AlgebraTable, rho: tuple[Matrix, ...], mu: tuple[Matrix, ...]
) -> VerdictBundle:
    """Matched pair of Lie bracket tables: rho is g acting on h, mu is h on g."""
    return _pair_bundle(
        "lie_pair",
        [("antisymmetric", ("(x y)", "- (y x)")), ("jacobi", CLAIM_SIDES["jacobi"])],
        g, h, rho, mu,
        (("rho_representation", "compat_on_h"), ("mu_representation", "compat_on_g")),
        bracket=True,
    )


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
