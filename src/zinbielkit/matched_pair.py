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
(``bimodule._AXIOMS``, rows of ``identities.LAWS`` renamed) on the double per
action system, x and y over P and a over Q.  On Q's component they are the
action's bimodule axioms; on P's, compat_r is -left, compat_l_1 is right and
compat_l_2 is -mixed (``_ON_P``).

The base-table prerequisite is part of the check on purpose: with all maps
zero the double degenerates to the direct sum, so "matched pair" must imply
both summands are Zinbiel for the equivalence to be exact.

The commutative-associative and Lie pair checks are symmetric the same way.
With f the action of g on h and k the action of h on g, one half checks f
as a representation (f_{x.y} = f_x f_y, or [f_x, f_y] for Lie) and one
compatibility over x in g and a, b in h,

    commutative associative:  f(x)(a o b) = (f(x)a) o b + f(k(a)x)b
    Lie:                      f(x)[a,b] + f(k(a)x)b - f(k(b)x)a = [f(x)a, b] + [a, f(x)b]

and the other half is the same check on (h, g, k, f).  Both halves are read
off one action table, ``double(MatchedPair(g, h, f, 0, k, 0))``: on it
x.a = f(x)a lies in h and a.x = k(a)x in g, so every mixed product lands in
one summand and every term above is a single tree.  With x and y over P and
v, a and b over Q, the four identities are ``identities.LAWS`` rows, their
x, y and z renamed:

    representation:          associative, to (x, y, v)
    bracket representation:  bracket_representation, to (x, y, v)
    commutative associative: right_zinbiel, to (x, a, b)
    Lie:                     lie_compatibility, to (x, a, b)

with (P, Q) = (g, h) in one half and (h, g) in the other.  Each is a typed
scan of the table, stopped at its first witness; no action matrix is
multiplied.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property
from typing import NamedTuple

from .algebra import AlgebraTable
from .audit import ClaimSpec, evaluate_claim
from .bimodule import _AXIOMS, _XYV, axiom_scans, column_matrices, first_witness_verdict, sum_table
from .bimodule import check_bimodule  # noqa: F401  (unused; ROADMAP item 1, step A drops it)
from .identities import LAWS, debug_logger, law_sides, right_zinbiel_residuals
from .reports import Verdict, VerdictBundle, format_vector
from .tensors import DimensionMismatch, Frozen, Matrix, format_scalar


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

    @cached_property
    def _violations(self) -> tuple:
        """The violations ``check_matched_pair`` returns, found on first use
        and kept for as long as the pair lives: the bialgebra audit checks
        one pair for two of its conditions."""
        return tuple(_scan_violations(self))

    @cached_property
    def _double(self) -> AlgebraTable:
        """The table ``double`` returns, built on first use and kept for as
        long as the pair lives: the bialgebra audit's Manin-triple check and
        its matched-pair scan read one double, with one set of factor rows."""
        labels = tuple(f"f{k}" for k in range(self.b.dim))
        return sum_table(self.a, self.b.dim, self.b.c.entries, labels,
                         self.la, self.ra, self.lb, self.rb)


def zero_matched_pair(a: AlgebraTable, b: AlgebraTable) -> MatchedPair:
    zp = Matrix.zero(b.dim, b.dim)
    zn = Matrix.zero(a.dim, a.dim)
    return MatchedPair(a, b, (zp,) * a.dim, (zp,) * a.dim, (zn,) * b.dim, (zn,) * b.dim)


class MatchedPairViolation(NamedTuple):
    condition: str
    where: tuple[int, ...]
    residual: object  # raw dict for vector conditions, Matrix for bimodule axioms


def format_matrix(m: Matrix) -> str:
    if m.is_zero:
        return "0"
    return ", ".join(f"[{r},{c}]={format_scalar(v)}" for (r, c), v in m.items())


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
_P_SIGNS = {axiom: sign for axiom, (_, sign) in _ON_P.items()}


def check_matched_pair(mp: MatchedPair) -> list[MatchedPairViolation]:
    """Prerequisites plus the six mixed equalities; empty iff the double passes.
    The pair is scanned once (``MatchedPair._violations``); each call returns
    a new list of the same violations, whose residuals are not to be changed."""
    return list(mp._violations)


def _scan_violations(mp: MatchedPair) -> list[MatchedPairViolation]:
    """The base scans, then the axiom scans of the double, in report order."""
    out = [
        MatchedPairViolation(f"base_{p}_right_zinbiel", *hit)
        for p, table in (("a", mp.a), ("b", mp.b))
        for hit in right_zinbiel_residuals(table)
    ]
    d, n = double(mp), mp.a.dim
    on_a, on_b = range(n), range(n, d.dim)
    found: dict[str, list] = {}
    for q, p_range, q_range in (("b", on_a, on_b), ("a", on_b, on_a)):
        for axiom, hits in axiom_scans(d, p_range, q_range, _P_SIGNS):
            action, compat = f"action_on_{q}:{axiom}", _ON_P[axiom][0].format(q=q)
            found[action] = [MatchedPairViolation(action, *m)
                             for m in column_matrices(hits, len(q_range))]
            found[compat] = [MatchedPairViolation(compat, key, part) for key, part, _ in hits if part]
    for q in "ba":
        out += (v for axiom in _AXIOMS for v in found[f"action_on_{q}:{axiom}"])
    out += found["compat_rb"] + found["compat_ra"]
    for q in "ba":  # compat_l*_1 and compat_l*_2 interleaved per (x, y, a)
        out += sorted(found[f"compat_l{q}_1"] + found[f"compat_l{q}_2"], key=lambda v: v.where)

    logger = debug_logger("zinbielkit.matched_pair")
    if logger is not None:
        logger.debug(
            "matched pair: dim A = %d, dim B = %d, %d violations %s",
            mp.a.dim, mp.b.dim, len(out), dict(Counter(v.condition for v in out)),
        )
    return out


def double(mp: MatchedPair) -> AlgebraTable:
    """Product table on A + B from the matched-pair data; one table per pair
    (``MatchedPair._double``)."""
    return mp._double


_XAB = ("x", "a", "b")


def _pair_bundle(kind, claims, g, h, f, k, names, representation, compatibility) -> VerdictBundle:
    """f is g acting on h, k is h acting on g; claims are the ``LAWS`` names
    each table is checked for, names holds each half's (representation,
    compatibility) verdict names, and representation and compatibility are
    the ``LAWS`` names of one half's identities on the action table: x and y
    over P and v over Q, and x over P and a and b over Q."""
    verdicts = [
        evaluate_claim(table, ClaimSpec(f"{side}_{claim}", *LAWS[claim], "product"))
        for side, table in (("g", g), ("h", h))
        for claim in claims
    ]
    zero_g, zero_h = (Matrix.zero(g.dim, g.dim),) * h.dim, (Matrix.zero(h.dim, h.dim),) * g.dim
    table = double(MatchedPair(g, h, f, zero_h, k, zero_g))
    on_g, on_h = range(g.dim), range(g.dim, table.dim)
    # per half: its names, P, Q, and the names shown for x, y and for a, b
    halves = ((names[0], on_g, on_h, ("x", "y"), ("a", "b")),
              (names[1], on_h, on_g, ("a", "b"), ("x", "y")))
    rep_sides, compat_sides = law_sides(representation, "xyv"), law_sides(compatibility, "xab")
    for (rep, _), p, q, (x, y), _ in halves:
        verdicts.append(
            first_witness_verdict(rep, table, rep_sides, _XYV, (p, p, q), (x, y, "v")))
    for (_, compat), p, q, (x, _), (a, b) in halves:
        verdicts.append(first_witness_verdict(
            compat, table, compat_sides, _XAB, (p, q, q), (x, a, b), residual=True))
    return VerdictBundle(kind, tuple(verdicts))


def check_commassoc_matched_pair(
    g: AlgebraTable, h: AlgebraTable, mu: tuple[Matrix, ...], rho: tuple[Matrix, ...]
) -> VerdictBundle:
    """Matched pair of commutative associative tables: mu acts on h, rho on g."""
    return _pair_bundle(
        "commutative_associative_pair",
        ("commutative", "associative"), g, h, mu, rho,
        (("mu_representation", "compat_mu"), ("rho_representation", "compat_rho")),
        "associative", "right_zinbiel",
    )


def check_lie_matched_pair(
    g: AlgebraTable, h: AlgebraTable, rho: tuple[Matrix, ...], mu: tuple[Matrix, ...]
) -> VerdictBundle:
    """Matched pair of Lie bracket tables: rho is g acting on h, mu is h on g."""
    return _pair_bundle(
        "lie_pair",
        ("antisymmetric", "jacobi"), g, h, rho, mu,
        (("rho_representation", "compat_on_h"), ("mu_representation", "compat_on_g")),
        "bracket_representation", "lie_compatibility",
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
