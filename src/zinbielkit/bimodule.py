"""Bimodules over a structure-constant algebra and the semidirect sum.

A bimodule is a pair of matrix families (l, r) indexed by the base basis,
acting on a module space V.  Maps compose as operators: the matrix product
``l_x @ r_y`` applies r_y first.  The axioms checked are

    l_x l_y           = l_{x.y} + l_{y.x}
    l_x r_y           = r_{x.y}
    r_{x.y}           = r_y r_x + r_y l_x

where l_v / r_v at a vector v means the coefficient-weighted sum of the
family.  These are exactly the conditions under which the semidirect sum
(x+u)*(y+v) = x.y + (l_x v + r_y u) inherits the right-orientation Zinbiel
identity from the base (the V*V block is zero by construction), so
``check_bimodule`` reads them off one scan of it, as ``AXIOM_ROWS`` lists.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .algebra import AlgebraTable, algebra_from_entries
from .identities import right_zinbiel_residuals
from .reports import Verdict, matrix_equality_verdict
from .tensors import DimensionMismatch, Frozen, Matrix, add_raw, linear_combination


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

    def left_at(self, coeffs: dict) -> Matrix:
        if not coeffs:
            return Matrix.zero(self.v_dim, self.v_dim)
        return linear_combination(self.left_maps, coeffs)

    def right_at(self, coeffs: dict) -> Matrix:
        if not coeffs:
            return Matrix.zero(self.v_dim, self.v_dim)
        return linear_combination(self.right_maps, coeffs)


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


_AXIOMS = ("left_composition", "mixed_composition", "right_composition")

# The axioms as blocks of the semidirect sum's scan, module slots of kind 1,
# read on the module component at (i, j, beta): (axiom, kinds, component, sign).
AXIOM_ROWS = (
    ("left_composition", (0, 0, 1), 1, 1),
    ("mixed_composition", (0, 1, 0), 1, 1),
    ("mixed_composition", (1, 0, 0), 1, -1),
    ("right_composition", (1, 0, 0), 1, 1),
)


def read_blocks(hits, n: int, rows) -> dict[str, list]:
    """Regroup a scan's hits [(triple, residual)] on U + W into conditions.

    U is the basis 0..n-1, W the rest.  A row (condition, kinds, component,
    sign) adds sign times the U (0) or W (1) component of the residuals at
    the triples whose slots lie in U or W as the kinds (0 or 1) say, keyed
    by the local triple with the odd kind's slot last.  Returns condition ->
    [(key, residual)] in key order without zeros, and empties ``hits``."""
    by_kinds: dict = {}
    found: dict[str, dict] = {}
    for condition, kinds, component, sign in rows:
        order = itemgetter(*sorted(range(3), key=lambda s: kinds.count(kinds[s]) == 1))
        block = found.setdefault(condition, {})
        by_kinds.setdefault(kinds, []).append((component, sign, order, block))
    while hits:
        (i, j, k), residual = hits.pop()
        parts: tuple[dict, dict] = ({}, {})
        for c, v in residual.items():
            parts[c >= n][c - n if c >= n else c] = v
        local = (i - n if i >= n else i, j - n if j >= n else j, k - n if k >= n else k)
        for component, sign, order, block in by_kinds.get((i >= n, j >= n, k >= n), ()):
            if part := parts[component]:
                key = order(local)
                acc = block.get(key)
                if acc is None:
                    block[key] = part if sign > 0 else {c: -v for c, v in part.items()}
                else:  # the second block of a two-block condition
                    block[key] = add_raw(acc, part, sign)
    return {c: [(key, r) for key, r in sorted(block.items()) if r] for c, block in found.items()}


def column_matrices(blocks: list, v_dim: int) -> list[tuple[tuple[int, int], Matrix]]:
    """An axiom's blocks [((i, j, beta), column)] as one matrix per (i, j)."""
    pairs: dict = {}
    for (i, j, beta), column in blocks:
        pairs.setdefault((i, j), {}).update(((alpha, beta), v) for alpha, v in column.items())
    return [(pair, Matrix(v_dim, v_dim, entries)) for pair, entries in pairs.items()]


def check_bimodule(b: Bimodule) -> list[BimoduleViolation]:
    """All axiom violations over basis pairs, in (axiom, i, j) order."""
    found = read_blocks(right_zinbiel_residuals(semidirect_sum(b)), b.base.dim, AXIOM_ROWS)
    return [BimoduleViolation(a, *m) for a in _AXIOMS for m in column_matrices(found[a], b.v_dim)]


class DerivedRelationsReport(NamedTuple):
    axioms: list[BimoduleViolation]  # check_bimodule of the same bimodule
    relations: tuple[Verdict, ...]

    @property
    def vacuous(self) -> bool:
        return bool(self.axioms)


def check_derived_relations(b: Bimodule) -> DerivedRelationsReport:
    """Audit of the two textbook derived relations, as printed.

    The first relation ``l_{x.y} = r_y l_x`` is ambiguous about composition
    order, so both readings are evaluated: ``l_then_r`` applies l first
    (matrix r_y @ l_x), ``r_then_l`` applies r first (matrix l_x @ r_y).
    The second is commutation of the right maps, r_x r_y = r_y r_x.
    Neither needs to hold on bimodules that pass the axioms; the verdicts are
    findings, and the report is vacuous when the axioms themselves fail; it
    keeps the axiom violations it computed for that.
    """
    n = b.base.dim
    axioms = check_bimodule(b)

    def pairs(rhs_of):
        for i in range(n):
            for j in range(n):
                yield (i, j), b.left_at(b.base.product_basis(i, j)), rhs_of(i, j)

    def commute_pairs():
        for i in range(n):
            for j in range(n):
                yield (i, j), b.right_maps[i] @ b.right_maps[j], b.right_maps[j] @ b.right_maps[i]

    relations = (
        matrix_equality_verdict(
            "left_of_product_l_then_r", pairs(lambda i, j: b.right_maps[j] @ b.left_maps[i])
        ),
        matrix_equality_verdict(
            "left_of_product_r_then_l", pairs(lambda i, j: b.left_maps[i] @ b.right_maps[j])
        ),
        matrix_equality_verdict("right_maps_commute", commute_pairs()),
    )
    return DerivedRelationsReport(axioms, relations)


def semidirect_sum(b: Bimodule) -> AlgebraTable:
    """Product table on base + V; (x+u)*(y+v) = x.y + (l_x v + r_y u)."""
    n, m = b.base.dim, b.v_dim
    entries = list((i, j, k, v) for (i, j, k), v in b.base.c.entries.items())
    for i in range(n):
        for (alpha, beta), v in b.left_maps[i].entries.items():
            entries.append((i, n + beta, n + alpha, v))
        for (alpha, beta), v in b.right_maps[i].entries.items():
            entries.append((n + beta, i, n + alpha, v))
    labels = b.base.basis_labels + tuple(f"v{k}" for k in range(m))
    return algebra_from_entries(n + m, entries, labels)


class SubadjacentReport(NamedTuple):
    maps: tuple[Matrix, ...]
    representation: Verdict


def representation_verdict(
    name: str, table: AlgebraTable, maps, var_names=("x", "y", "v"), *, bracket: bool = False
) -> Verdict:
    """F_{e_i.e_j} = F_i F_j over basis pairs of ``table``, or [F_i, F_j] with
    ``bracket``: the family ``maps`` is a representation of the table."""

    def pairs():
        for i in range(table.dim):
            for j in range(table.dim):
                coeffs = table.product_basis(i, j)
                fi, fj = maps[i], maps[j]
                lhs = linear_combination(maps, coeffs) if coeffs else Matrix.zero(fi.rows, fi.cols)
                yield (i, j), lhs, (fi @ fj - fj @ fi) if bracket else fi @ fj

    return matrix_equality_verdict(name, pairs(), var_names)


def induced_subadjacent_map(b: Bimodule) -> SubadjacentReport:
    """The family x -> l_x - r_x, with its bracket-representation verdict.

    Checks (l-r)_{[e_i,e_j]} = [(l-r)_i, (l-r)_j] against the commutator of
    the base table.  This can fail even on axiom-passing bimodules; the
    verdict records what actually happens.
    """
    maps = tuple(b.left_maps[i] - b.right_maps[i] for i in range(b.base.dim))
    bracket = b.base.commutator()
    return SubadjacentReport(
        maps, representation_verdict("bracket_representation", bracket, maps, bracket=True)
    )
