"""Structure-constant algebras over the rationals.

An ``AlgebraTable`` stores a bilinear product on a finite basis as a sparse
3-tensor ``c`` with the fixed convention

    e_i * e_j = sum_k c[i, j, k] e_k

(first index is always the left factor).  Everything downstream -- identity
checking, bimodules, doubles, dualization -- reads ``c`` through this module.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cached_property
from typing import Iterable

from .tensors import ZERO, DimensionMismatch, Frozen, Matrix, Tensor3


class AlgebraTable(Frozen):
    dim: int
    basis_labels: tuple[str, ...]
    c: Tensor3

    def __init__(self, dim: int, basis_labels: tuple[str, ...], c: Tensor3):
        self.__dict__.update(dim=dim, basis_labels=basis_labels, c=c)
        if len(self.basis_labels) != self.dim:
            raise DimensionMismatch("basis label count != dim")
        if (self.c.d0, self.c.d1, self.c.d2) != (self.dim, self.dim, self.dim):
            raise DimensionMismatch("structure tensor shape != dim^3")

    @cached_property
    def _factor_rows(self) -> tuple[int, dict, dict, dict]:
        """The sparse product table over the integers, indexed by one factor
        and by the output.

        Returns ``(d, by_left, by_right, by_output)``: ``d`` is the least
        common denominator of the structure constants, ``by_left`` maps ``i``
        to ``[(j, [(k, d * c[i, j, k]), ...]), ...]`` over the nonzero pairs
        and ``by_right`` maps ``j`` to ``[(i, ...), ...]``, so a join finds
        the partners of an index without probing all ``dim`` of them.
        ``by_output`` maps each ``k`` that some product reaches, in ascending
        order, to ``[(i, j, d * c[i, j, k]), ...]``, read by ``coalgebra.read_co_check``.
        """
        d = math.lcm(*(v.denominator for v in self.c.entries.values()))
        pairs: dict[tuple[int, int], list] = {}
        for (i, j, k), v in self.c.entries.items():
            pairs.setdefault((i, j), []).append((k, v.numerator * (d // v.denominator)))
        by_left: dict[int, list] = {}
        by_right: dict[int, list] = {}
        by_output: dict[int, list] = {}
        for (i, j), scaled in pairs.items():
            by_left.setdefault(i, []).append((j, scaled))
            by_right.setdefault(j, []).append((i, scaled))
            for k, v in scaled:
                by_output.setdefault(k, []).append((i, j, v))
        return d, by_left, by_right, dict(sorted(by_output.items()))

    @cached_property
    def _shape_tensors(self) -> dict:
        """The sparse join's tensors of tree shapes over this table, filled
        by ``identities._Joiner`` and shared by every evaluation on it."""
        return {}

    def product_basis(self, i: int, j: int) -> dict:
        """Raw coefficient dict of e_i * e_j."""
        return {k: v for (p, q, k), v in self.c.entries.items() if (p, q) == (i, j)}

    def _mult_matrix(self, i: int, side: int) -> Matrix:
        """Matrix of v -> e_i * v for ``side`` 0, of v -> v * e_i for 1."""
        return Matrix(self.dim, self.dim, {
            (key[2], key[1 - side]): v for key, v in self.c.entries.items() if key[side] == i
        })

    def left_mult_matrix(self, i: int) -> Matrix:
        """Matrix of v -> e_i * v."""
        return self._mult_matrix(i, 0)

    def right_mult_matrix(self, i: int) -> Matrix:
        """Matrix of v -> v * e_i."""
        return self._mult_matrix(i, 1)

    def opposite(self) -> "AlgebraTable":
        """Arguments swapped: x *' y = y * x."""
        return AlgebraTable(
            self.dim,
            self.basis_labels,
            Tensor3(
                self.dim,
                self.dim,
                self.dim,
                {(j, i, k): v for (i, j, k), v in self.c.entries.items()},
            ),
        )

    def _with_swapped(self, op) -> "AlgebraTable":
        """x*y op y*x, for ``op`` ``operator.add`` or ``sub``.  ``symmetrize`` and
        ``commutator`` call it, never each other: a wrapper of one never nests the other."""
        out: dict[tuple[int, int, int], Fraction] = {}
        for (i, j, k), v in self.c.entries.items():
            out[(i, j, k)] = out.get((i, j, k), ZERO) + v
            out[(j, i, k)] = op(out.get((j, i, k), ZERO), v)
        return AlgebraTable(self.dim, self.basis_labels, Tensor3(self.dim, self.dim, self.dim, out))

    def symmetrize(self) -> "AlgebraTable":
        """{x, y} = x*y + y*x."""
        return self._with_swapped(operator.add)

    def commutator(self) -> "AlgebraTable":
        """[x, y] = x*y - y*x."""
        return self._with_swapped(operator.sub)


def algebra_from_entries(
    dim: int,
    entries: Iterable[tuple[int, int, int, Fraction]],
    basis_labels: Iterable[str] | None = None,
) -> AlgebraTable:
    labels = tuple(basis_labels) if basis_labels is not None else tuple(f"e{i}" for i in range(dim))
    data: dict[tuple[int, int, int], Fraction] = {}
    for i, j, k, v in entries:
        key = (i, j, k)
        if key in data:
            raise ValueError(f"duplicate structure entry {key}")
        data[key] = v
    return AlgebraTable(dim, labels, Tensor3(dim, dim, dim, data))

