"""Bimodules over a structure-constant algebra and the semidirect sum.

A bimodule is a pair of matrix families (l, r) indexed by the base basis,
acting on a module space V.  Maps compose as operators: ``l_x r_y``
applies r_y first.  The axioms checked are

    l_x l_y           = l_{x.y} + l_{y.x}
    l_x r_y           = r_{x.y}
    r_{x.y}           = r_y r_x + r_y l_x

where l_v / r_v at a vector v means the coefficient-weighted sum of the
family.  These are exactly the conditions under which the semidirect sum
(x+u)*(y+v) = x.y + (l_x v + r_y u) inherits the right-orientation Zinbiel
identity from the base (the V*V block is zero by construction).  On the
semidirect sum each axiom is one identity, with x and y over the base and v
over V (``_AXIOMS``), so ``check_bimodule`` reads the three in one typed
pass over it, and the derived relations are three more scans on the same
table (``_RELATIONS``).

No check multiplies an action matrix.  A family F is a representation,
F_{x.y} = F_x F_y, iff ``((x y) v) = (x (y v))`` holds on a table where x
acts on v by F from the left alone; for a bracket table, [F_x, F_y] is
``(x (y v)) - (y (x v))`` (``_REPRESENTATION``, ``_BRACKET_REPRESENTATION``).
The sub-adjacent map x -> l_x - r_x is checked on the sum table of the
base's commutator table and V, on which the base acts by l - r from the left
alone.  Every verdict that stops at its first witness, here and in the pair
checks of ``matched_pair``, comes from one typed scan (``first_witness_verdict``).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import AlgebraTable, sum_table
from .identities import ExactValues, evaluate_pass, parse_term_sum
from .reports import Verdict, failed_verdict
from .tensors import DimensionMismatch, Frozen, Matrix


class Bimodule(Frozen):
    base: AlgebraTable
    v_dim: int
    left_maps: tuple[Matrix, ...]
    right_maps: tuple[Matrix, ...]

    def __init__(self, base: AlgebraTable, v_dim: int, left_maps: tuple, right_maps: tuple):
        self.__dict__.update(base=base, v_dim=v_dim, left_maps=left_maps, right_maps=right_maps)
        if len(self.left_maps) != self.base.dim or len(self.right_maps) != self.base.dim:
            raise DimensionMismatch("need one l and one r matrix per base basis vector")
        for m in (*self.left_maps, *self.right_maps):
            if (m.rows, m.cols) != (self.v_dim, self.v_dim):
                raise DimensionMismatch("action matrices must be v_dim x v_dim")


def regular_bimodule(a: AlgebraTable) -> Bimodule:
    """The algebra acting on itself: l_i left multiplication, r_i right."""
    return Bimodule(
        a,
        a.dim,
        tuple(a.left_mult_matrix(i) for i in range(a.dim)),
        tuple(a.right_mult_matrix(i) for i in range(a.dim)),
    )


def zero_bimodule(a: AlgebraTable, v_dim: int) -> Bimodule:
    z = Matrix.zero(v_dim, v_dim)
    return Bimodule(a, v_dim, (z,) * a.dim, (z,) * a.dim)


class BimoduleViolation(NamedTuple):
    axiom: str
    pair: tuple[int, int]
    residual: Matrix


# The axioms as identities on A + V, x and y over A and v over V.  Every scan
# takes its variables in the order (x, y, v), so hits come in (i, j, beta) order.
_AXIOMS = {
    "left_composition": "(x (y v)) - ((x y) v) - ((y x) v)",
    "mixed_composition": "(x (v y)) - (v (x y))",
    "right_composition": "(v (x y)) - ((v x) y) - ((x v) y)",
}
_XYV = ("x", "y", "v")


def axiom_scans(table: AlgebraTable, p: range, q: range, p_signs: dict | None = None):
    """Yield (axiom, hits) per axiom, all three read in one pass on ``table``
    (``identities.evaluate_pass``) with x and y over ``p`` and v over ``q``,
    so that they share its tensors slice by slice.  A hit is ((i, j, beta),
    P part, Q part): the residual split into its components on ``p`` and on
    ``q``, every index counted from its range's start, with Fraction values,
    the P part times ``p_signs[axiom]`` (1 if absent).  Each axiom's hits
    are read off the pass's list as they are converted, and each yielded
    list is emptied when the next axiom starts, so that no two axioms'
    converted hits are held at once."""
    evaluations = evaluate_pass(table, [(_XYV, (p, p, q), (parse_term_sum(source),))
                                        for source in _AXIOMS.values()])
    evaluations.reverse()
    for axiom in _AXIOMS:
        scale, hits = evaluations.pop()
        exact, sign = ExactValues(scale), (p_signs or {}).get(axiom, 1)
        read = []
        hits.reverse()
        while hits:
            (i, j, v), residual, _ = hits.pop()
            on_p, on_q = {}, {}
            for k, u in residual.items():
                if q.start <= k < q.stop:
                    on_q[k - q.start] = exact[u]
                else:
                    on_p[k - p.start] = exact[sign * u]
            read.append(((i - p.start, j - p.start, v - q.start), on_p, on_q))
        yield axiom, read
        read.clear()


def column_matrices(hits: list, v_dim: int) -> list[tuple[tuple[int, int], Matrix]]:
    """An axiom scan's Q parts [((i, j, beta), P part, column)] as one matrix
    per (i, j) whose columns are not all zero."""
    pairs: dict = {}
    for (i, j, beta), _, column in hits:
        if column:
            pairs.setdefault((i, j), {}).update(((alpha, beta), v) for alpha, v in column.items())
    return [(pair, Matrix(v_dim, v_dim, entries)) for pair, entries in pairs.items()]


def _axiom_violations(semidirect: AlgebraTable, n: int) -> list[BimoduleViolation]:
    scans = axiom_scans(semidirect, range(n), range(n, semidirect.dim))
    m = semidirect.dim - n
    return [BimoduleViolation(a, *pair) for a, hits in scans for pair in column_matrices(hits, m)]


def check_bimodule(b: Bimodule) -> list[BimoduleViolation]:
    """All axiom violations over basis pairs, in (axiom, i, j) order."""
    return _axiom_violations(semidirect_sum(b), b.base.dim)


class DerivedRelationsReport(NamedTuple):
    axioms: list[BimoduleViolation]  # check_bimodule of the same bimodule
    relations: tuple[Verdict, ...]

    @property
    def vacuous(self) -> bool:
        return bool(self.axioms)


# The derived relations as two-sided identities on A + V, variables as in _AXIOMS.
_RELATIONS = {
    "left_of_product_l_then_r": ("((x y) v)", "((x v) y)"),
    "left_of_product_r_then_l": ("((x y) v)", "(x (v y))"),
    "right_maps_commute": ("((v y) x)", "((v x) y)"),
}


def first_witness_verdict(
    name: str, table: AlgebraTable, sides, variables, domains, shown=None, *, residual=False
) -> Verdict:
    """The verdict of ``sides[0] = sides[1]`` (term-sum sources) on ``table``,
    each of ``variables`` over its ``domains`` entry, an index range: one
    typed scan, stopped at its first witness.  Every value must lie in the
    last variable's range.  The witness counts each index from its range's
    start, names the variables ``shown`` (``variables`` if None) and carries
    the residual only with ``residual``."""
    terms = tuple(parse_term_sum(side) for side in sides)
    scale, hits = evaluate_pass(table, [(variables, domains, terms)], first_only=True)[0]
    if not hits:
        return Verdict(name, True)
    assignment, diff, values = hits[0]
    start = domains[-1].start
    lhs, rhs, diff = ({k - start: Fraction(u, scale) for k, u in val.items() if u}
                      for val in (*values, diff))
    where = tuple(i - d.start for i, d in zip(assignment, domains))
    return failed_verdict(name, where, shown or variables, lhs, rhs, diff if residual else None)


def relation_verdicts(semidirect: AlgebraTable, n: int) -> tuple[Verdict, ...]:
    """The derived-relation verdicts on a semidirect sum whose base is its
    first ``n`` basis vectors."""
    domains = (range(n), range(n), range(n, semidirect.dim))
    return tuple(first_witness_verdict(name, semidirect, sides, _XYV, domains)
                 for name, sides in _RELATIONS.items())


def check_derived_relations(b: Bimodule) -> DerivedRelationsReport:
    """Audit of the two textbook derived relations, as printed.

    The first relation ``l_{x.y} = r_y l_x`` is ambiguous about composition
    order, so both readings are evaluated: ``l_then_r`` applies l first,
    (x y) v = (x v) y on the semidirect sum, and ``r_then_l`` applies r
    first, (x y) v = x (v y).  The second is commutation of the right maps,
    (v y) x = (v x) y.  Neither needs to hold on bimodules that pass the
    axioms; the verdicts are findings.  When the axioms fail the report is
    vacuous: it keeps the axiom violations, and no relation is scanned
    (``relations`` is empty).
    """
    n, semidirect = b.base.dim, semidirect_sum(b)
    axioms = _axiom_violations(semidirect, n)
    return DerivedRelationsReport(axioms, () if axioms else relation_verdicts(semidirect, n))


def semidirect_sum(b: Bimodule) -> AlgebraTable:
    """Product table on base + V; (x+u)*(y+v) = x.y + (l_x v + r_y u)."""
    labels = tuple(f"v{k}" for k in range(b.v_dim))
    return sum_table(b.base, b.v_dim, {}, labels, b.left_maps, b.right_maps)


class SubadjacentReport(NamedTuple):
    maps: tuple[Matrix, ...]
    representation: Verdict


# A family F acting by x.v = F_x v on a table with x and y over its base and v
# over the module: F is a representation, or for a bracket table a bracket
# representation.  The pair checks of ``matched_pair`` read these too.
_REPRESENTATION = ("((x y) v)", "(x (y v))")
_BRACKET_REPRESENTATION = ("((x y) v)", "(x (y v)) - (y (x v))")


def induced_subadjacent_map(b: Bimodule) -> SubadjacentReport:
    """The family x -> l_x - r_x, with its bracket-representation verdict.

    Checks (l-r)_{[e_i,e_j]} = [(l-r)_i, (l-r)_j], the bracket identity on
    the semidirect sum of the base's commutator table acting on V by l-r
    from the left alone.  This can fail even on axiom-passing bimodules; the
    verdict records what actually happens.
    """
    n = b.base.dim
    maps = tuple(b.left_maps[i] - b.right_maps[i] for i in range(n))
    table = sum_table(b.base.commutator(), b.v_dim, {}, (f"v{k}" for k in range(b.v_dim)), maps)
    domains = (range(n), range(n), range(n, table.dim))
    return SubadjacentReport(maps, first_witness_verdict(
        "bracket_representation", table, _BRACKET_REPRESENTATION, _XYV, domains))
