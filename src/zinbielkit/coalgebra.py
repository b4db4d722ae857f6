"""Coalgebras by coproduct tensor, and the transpose bridge to product tables.

A ``CoalgebraTable`` stores d[k][i][j] meaning Delta(e_k) = sum d_k^{ij}
e_i (x) e_j.  ``dualize`` transposes a product table into a coproduct table
via d[k][i][j] = c[i][j][k], and ``dualize_co`` transposes back.

Every coalgebra law is the transpose of an algebra law on the dual table
``dualize_co(c)``: the coefficient of e_i (x) e_j (x) e_l in a composite of
coproducts at e_k is the e_k coefficient of a product tree at
(e_i, e_j, e_l).  The dictionary is

    (id (x) Delta) o Delta          <->  (x (y z))
    (Delta (x) id) o Delta          <->  ((x y) z)
    an inner tau o Delta            <->  the two factors of that product swapped
    an outer tau (x) id, id (x) tau <->  the variables x, y or y, z swapped

so, for example, ((tau o Delta) (x) id) o Delta reads ((y x) z), and
(tau (x) id) o (Delta (x) id) o (tau o Delta) reads (z (y x)).  Each check
is therefore one row of ``CO_IDENTITIES`` evaluated by the identity engine;
the right-orientation check on dualize(A) carries exactly the residual
coefficients of the right-orientation identity on A, which the tests assert
entrywise.  A violation is the basis index k plus the residual 3-tensor at
e_k, so the engine is read out by output (``evaluate_by_output``): one
output index at a time in ascending order, which lets a check stop at the
least failing basis vector instead of computing every residual first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, cached_property
from typing import NamedTuple

from .algebra import AlgebraTable, algebra_from_entries
from .identities import CLAIM_SIDES, difference, evaluate_by_output, parse_term_sum
from .reports import Verdict, VerdictBundle, format_sum, sorted_rows
from .tensors import Frozen, Tensor3

Triples = dict[tuple[int, int, int], Fraction]


class CoalgebraTable(Frozen):
    dim: int
    d: Tensor3  # d[k][i][j]: coefficient of e_i (x) e_j in Delta(e_k)

    def __init__(self, dim: int, d: Tensor3):
        self.__dict__.update(dim=dim, d=d)
        if (self.d.d0, self.d.d1, self.d.d2) != (self.dim,) * 3:
            raise ValueError("coproduct tensor shape must be dim x dim x dim")

    @cached_property
    def _dual(self) -> AlgebraTable:
        """dualize_co(self), built once for every check on this table."""
        return dualize_co(self)

    @property
    def is_zero(self) -> bool:
        return not self.d.entries


def coalgebra_from_entries(dim: int, entries) -> CoalgebraTable:
    seen: Triples = {}
    for k, i, j, v in entries:
        key = (k, i, j)
        if key in seen:
            raise ValueError(f"duplicate coproduct entry for {key}")
        seen[key] = Fraction(v)
    return CoalgebraTable(dim, Tensor3(dim, dim, dim, seen))


def opposite_coproduct(c: CoalgebraTable) -> CoalgebraTable:
    swapped = {(k, j, i): v for (k, i, j), v in c.d.entries.items()}
    return CoalgebraTable(c.dim, Tensor3(c.dim, c.dim, c.dim, swapped))


def sym_coproduct(c: CoalgebraTable) -> CoalgebraTable:
    """Delta + tau o Delta: the transpose of the symmetrized dual product."""
    return dualize(c._dual.symmetrize())


def antisym_coproduct(c: CoalgebraTable) -> CoalgebraTable:
    """Delta - tau o Delta: the transpose of the dual commutator."""
    return dualize(c._dual.commutator())


def dualize(a: AlgebraTable) -> CoalgebraTable:
    entries = {(k, i, j): v for (i, j, k), v in a.c.entries.items()}
    return CoalgebraTable(a.dim, Tensor3(a.dim, a.dim, a.dim, entries))


def dualize_co(c: CoalgebraTable) -> AlgebraTable:
    return algebra_from_entries(
        c.dim, [(i, j, k, v) for (k, i, j), v in c.d.entries.items()]
    )


class CoalgebraViolation(NamedTuple):
    basis_index: int
    residual: Triples


def format_triples(t: Triples) -> str:
    return format_sum(sorted(t.items()), lambda key: "*".join(f"e{i}" for i in key))


# -- the co-checks as identities on the dual table -------------------------------

_XY, _XYZ = ("x", "y"), ("x", "y", "z")

# check -> (variables, lhs, rhs): the check at e_k is the e_k coefficient of
# lhs - rhs on the dual table, with rhs "" for 0.  The variables are given,
# not read off the terms, because they fix the order of the residual's keys.
CO_IDENTITIES: dict[str, tuple[tuple[str, ...], str, str]] = {
    "co_right": (_XYZ, *CLAIM_SIDES["right_zinbiel"]),
    "co_left": (_XYZ, *CLAIM_SIDES["left_zinbiel"]),
    "cocommutative": (_XY, *CLAIM_SIDES["commutative"]),
    "coassociative": (_XYZ, *CLAIM_SIDES["associative"]),
    "antisymmetric": (_XY, "(x y) + (y x)", ""),
    "co_jacobi": (_XYZ, "(x (y z)) + ((x z) y) - ((x y) z)", ""),
    # (id (x) Delta) o Delta = (tau (x) id) o (id (x) Delta) o Delta
    "co_right_relation_a": (_XYZ, "(x (y z))", "(y (x z))"),
    # (id (x) Delta) o Delta = (tau (x) id) o (Delta (x) id) o (tau o Delta)
    "co_right_relation_b": (_XYZ, "(x (y z))", "(z (y x))"),
    # (Delta (x) id) o Delta = (id (x) tau) o (Delta (x) id) o Delta
    "co_left_relation_a": (_XYZ, "((x y) z)", "((x z) y)"),
    # (Delta (x) id) o Delta = (id (x) tau) o (id (x) Delta) o (tau o Delta)
    "co_left_relation_b": (_XYZ, "((x y) z)", "((z y) x)"),
    # (id (x) (tau o Delta)) o Delta = (id (x) tau) o (Delta (x) id) o Delta
    #   + (tau (x) id) o (id (x) (tau o Delta)) o (tau o Delta)
    "co_derived_1": (_XYZ, *CLAIM_SIDES["derived_1"]),
    # (Delta (x) id) o (tau o Delta) = the same right-hand side
    "co_derived_2": (_XYZ, *CLAIM_SIDES["derived_2"]),
    # ((tau o Delta) (x) id) o (tau o Delta)
    #   = (id (x) Delta) o (tau o Delta) + (id (x) (tau o Delta)) o (tau o Delta)
    "co_derived_3": (_XYZ, *CLAIM_SIDES["derived_3"]),
}


@cache
def _terms(name: str) -> tuple:
    _, lhs, rhs = CO_IDENTITIES[name]
    return difference(parse_term_sum(lhs), parse_term_sum(rhs) if rhs else ()).terms


def _residuals(c: CoalgebraTable, name: str, first_only: bool) -> list[tuple[int, Triples]]:
    """[(k, residual at e_k)] over the basis vectors where the check fails."""
    variables = CO_IDENTITIES[name][0]
    hits = evaluate_by_output(c._dual, variables, _terms(name), first_only=first_only)
    if len(variables) == 2:  # 2-leg residuals as 3-leg dicts with a padded last index
        return [(k, {(i, j, 0): v for (i, j), v in r.items()}) for k, r in hits]
    return hits


def check_co_right(c: CoalgebraTable, *, first_only: bool = False) -> list[CoalgebraViolation]:
    """(id (x) Delta) o Delta = (Delta (x) id) o Delta + ((tau o Delta) (x) id) o Delta."""
    return [CoalgebraViolation(k, r) for k, r in _residuals(c, "co_right", first_only)]


def check_co_left(c: CoalgebraTable, *, first_only: bool = False) -> list[CoalgebraViolation]:
    """(Delta (x) id) o Delta = (id (x) Delta) o Delta + (id (x) (tau o Delta)) o Delta."""
    return [CoalgebraViolation(k, r) for k, r in _residuals(c, "co_left", first_only)]


def coalgebra_verdict(name: str, violations) -> Verdict:
    """The verdict of a co-check, witnessed at its least failing basis vector;
    ``violations`` are (k, residual at e_k) pairs in ascending k."""
    if not violations:
        return Verdict(name, True)
    k, r = violations[0]
    return Verdict(name, False, f"at e{k}: residual = {format_triples(r)}",
                   {"basis_index": k, "residual": sorted_rows(r)})


def _bundle(c: CoalgebraTable, kind: str, names: tuple[str, ...]) -> VerdictBundle:
    return VerdictBundle(
        kind, tuple(coalgebra_verdict(n, _residuals(c, n, first_only=True)) for n in names)
    )


def check_cocomm_coassoc(c: CoalgebraTable) -> VerdictBundle:
    """Delta = tau o Delta together with (Delta (x) id) o Delta = (id (x) Delta) o Delta."""
    return _bundle(c, "cocommutative_coassociative", ("cocommutative", "coassociative"))


def check_lie_coalgebra(c: CoalgebraTable) -> VerdictBundle:
    """Delta = -tau o Delta together with the three-term co-Jacobi identity
    (id (x) Delta) o Delta + (id (x) tau) o (Delta (x) id) o Delta = (Delta (x) id) o Delta."""
    return _bundle(c, "lie_coalgebra", ("antisymmetric", "co_jacobi"))


def check_aux_coalgebra_identities(c: CoalgebraTable) -> VerdictBundle:
    """The consequence identities of each coalgebra orientation, plus the three
    two-sided product identities stated for the right orientation.  All are
    evaluated unconditionally; which ones hold is part of the report."""
    names = ("co_right_relation_a", "co_right_relation_b", "co_left_relation_a",
             "co_left_relation_b", "co_derived_1", "co_derived_2", "co_derived_3")
    return _bundle(c, "aux_coalgebra_identities", names)
