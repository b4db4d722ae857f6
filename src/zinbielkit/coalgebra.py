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
is therefore one row of ``CO_IDENTITIES``, the sides of an
``identities.LAWS`` row, evaluated by the identity engine; the
right-orientation check on dualize(A) carries exactly the residual
coefficients of the right-orientation identity on A, which the tests assert
entrywise.  A violation is the basis index k plus the residual 3-tensor at
e_k, so the engine is read out by output (``read_co_check``): one output
index at a time in ascending order, which lets a check stop at the least
failing basis vector instead of computing every residual first.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .algebra import AlgebraTable, algebra_from_entries
from .identities import CLAIM_SIDES, LAWS, ExactValues, _compile, _Joiner, parse_sides
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
# lhs - rhs on the dual table, the sides of an ``identities.LAWS`` row.  The
# variables are given, not read off the terms, because they fix the order of
# the residual's keys.
CO_IDENTITIES: dict[str, tuple[tuple[str, ...], str, str]] = {
    "co_right": (_XYZ, *LAWS["right_zinbiel"]),
    "co_left": (_XYZ, *LAWS["left_zinbiel"]),
    "cocommutative": (_XY, *LAWS["commutative"]),
    "coassociative": (_XYZ, *LAWS["associative"]),
    "antisymmetric": (_XY, *LAWS["antisymmetric"]),
    "co_jacobi": (_XYZ, *LAWS["co_jacobi"]),
    # (id (x) Delta) o Delta = (tau (x) id) o (id (x) Delta) o Delta
    "co_right_relation_a": (_XYZ, *LAWS["left_relation"]),
    # (id (x) Delta) o Delta = (tau (x) id) o (Delta (x) id) o (tau o Delta)
    "co_right_relation_b": (_XYZ, *LAWS["co_right_relation_b"]),
    # (Delta (x) id) o Delta = (id (x) tau) o (Delta (x) id) o Delta
    "co_left_relation_a": (_XYZ, *LAWS["right_relation"]),
    # (Delta (x) id) o Delta = (id (x) tau) o (id (x) Delta) o (tau o Delta)
    "co_left_relation_b": (_XYZ, *LAWS["co_left_relation_b"]),
    # (id (x) (tau o Delta)) o Delta = (id (x) tau) o (Delta (x) id) o Delta
    #   + (tau (x) id) o (id (x) (tau o Delta)) o (tau o Delta)
    "co_derived_1": (_XYZ, *CLAIM_SIDES["derived_1"]),
    # (Delta (x) id) o (tau o Delta) = the same right-hand side
    "co_derived_2": (_XYZ, *CLAIM_SIDES["derived_2"]),
    # ((tau o Delta) (x) id) o (tau o Delta)
    #   = (id (x) Delta) o (tau o Delta) + (id (x) (tau o Delta)) o (tau o Delta)
    "co_derived_3": (_XYZ, *CLAIM_SIDES["derived_3"]),
}


def read_co_check(c: CoalgebraTable, name: str, *, first_only: bool = False) -> list:
    """The ``CO_IDENTITIES`` check ``name`` on the dual table, read by output:
    a ``CoalgebraViolation`` per failing basis vector e_k, ascending, with all
    of its failing assignments (a 2-variable check's keys padded to 3-tuples
    ending in 0); ``first_only`` stops after the least such ``k``.

    Each root is joined from its two unsliced children, read from the dual's
    shape memo, one output at a time through the dual's by-output index, so
    an early stop skips the later outputs.
    """
    variables, lhs, rhs = CO_IDENTITIES[name]
    domains = (range(c.dim),) * len(variables)
    coeff_den, compiled, _ = _compile(variables, domains, (parse_sides(lhs, rhs).terms,))
    joiner = _Joiner(c._dual)
    roots = [(coeff, joiner.tensor(shape[0])[0], joiner.tensor(shape[1])[0], reorder)
             for _, coeff, shape, reorder in compiled]
    exact = ExactValues(joiner.d ** (len(variables) - 1) * coeff_den)
    pad = (0,) * (3 - len(variables))
    hits: list[CoalgebraViolation] = []
    outputs = 0
    for k, products in joiner.by_output.items():
        outputs += 1
        acc: dict[tuple[int, ...], int] = {}
        for coeff, left, right, reorder in roots:
            for kl, kr, v in products:
                if kl in left and kr in right:
                    scaled, right_rows = coeff * v, right[kr].items()
                    for a, u in left[kl].items():
                        u *= scaled
                        for b, w in right_rows:
                            full = reorder(a + b)
                            acc[full] = acc.get(full, 0) + u * w
        joiner.joined += len(acc)
        residual = {a + pad: exact[u] for a, u in acc.items() if u}
        if residual:
            hits.append(CoalgebraViolation(k, residual))
            if first_only:
                break
    joiner.log("output join", domains, outputs, c.dim, "outputs", joiner.joined, len(hits))
    return hits


def check_co_right(c: CoalgebraTable) -> list[CoalgebraViolation]:
    """(id (x) Delta) o Delta = (Delta (x) id) o Delta + ((tau o Delta) (x) id) o Delta."""
    return read_co_check(c, "co_right")


def check_co_left(c: CoalgebraTable) -> list[CoalgebraViolation]:
    """(Delta (x) id) o Delta = (id (x) Delta) o Delta + (id (x) (tau o Delta)) o Delta."""
    return read_co_check(c, "co_left")


def coalgebra_verdict(name: str, violations) -> Verdict:
    """The verdict of a co-check, witnessed at its least failing basis vector;
    ``violations`` are ``CoalgebraViolation``s in ascending k."""
    if not violations:
        return Verdict(name, True)
    k, r = violations[0]
    return Verdict(name, False, f"at e{k}: residual = {format_triples(r)}",
                   {"basis_index": k, "residual": sorted_rows(r)})


def _bundle(c: CoalgebraTable, kind: str, names: tuple[str, ...]) -> VerdictBundle:
    return VerdictBundle(
        kind, tuple(coalgebra_verdict(n, read_co_check(c, n, first_only=True)) for n in names)
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
