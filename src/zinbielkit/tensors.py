"""Sparse exact-rational linear algebra: vectors, matrices, 3-index tensors.

Every coefficient is a `fractions.Fraction`, kept in lowest terms with a
positive denominator, so all computation in the package is exact and equality
is literal equality of reduced fractions.  Containers store only nonzero
entries and are treated as immutable after construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

Scalar = Fraction

ZERO = Fraction(0)


class DimensionMismatch(ValueError):
    """Raised when operand shapes are incompatible."""


class InputFormatError(ValueError):
    """Raised for an input the program cannot read: a malformed payload or
    model spec, an unknown name, an unreadable or unwritable path."""


def format_scalar(value: Fraction) -> str:
    """Inverse of ``serialization.parse_scalar``: reduced ``"p/q"`` with q > 0, or ``"p"``."""
    return str(value)


def _clean(entries: Mapping) -> dict:
    return {k: v for k, v in entries.items() if v != 0}


class Frozen:
    """Base of the validated value classes: immutable, compared by value.

    A subclass annotates its fields in its own body, in order, and sets them
    in ``__init__`` through ``self.__dict__``.  Instances of one class are
    equal when their fields are, ``repr`` lists the fields, and setting or
    deleting an attribute raises ``AttributeError``.  ``cached_property``
    still caches, as it writes the instance ``__dict__`` directly.  (A frozen
    ``dataclass`` gives the same, but costs every command its import and a
    millisecond per decorated class at start-up.)
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(getattr(self, f) == getattr(other, f) for f in self._fields)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Vector(Frozen):
    """Sparse vector over the rationals; ``entries`` maps index -> coefficient."""

    dim: int
    entries: dict

    def __init__(self, dim: int, entries: dict):
        self.__dict__.update(dim=dim, entries=_clean(entries))
        for i in self.entries:
            if not 0 <= i < self.dim:
                raise DimensionMismatch(f"index {i} out of range for dim {self.dim}")


class Matrix(Frozen):
    """Sparse matrix; ``entries`` maps (row, col) -> coefficient."""

    rows: int
    cols: int
    entries: dict

    def __init__(self, rows: int, cols: int, entries: dict):
        self.__dict__.update(rows=rows, cols=cols, entries=_clean(entries))
        for r, c in self.entries:
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise DimensionMismatch(
                    f"entry ({r},{c}) out of range for {self.rows}x{self.cols}"
                )

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, {})

    def get(self, r: int, c: int) -> Fraction:
        return self.entries.get((r, c), ZERO)

    def items(self) -> Iterator[tuple[tuple[int, int], Fraction]]:
        return iter(sorted(self.entries.items()))

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def transpose(self) -> "Matrix":
        return Matrix(self.cols, self.rows, {(c, r): v for (r, c), v in self.entries.items()})

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix shapes differ")
        out = dict(self.entries)
        for k, v in other.entries.items():
            out[k] = out.get(k, ZERO) + v
        return Matrix(self.rows, self.cols, out)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + Matrix(other.rows, other.cols, {k: -v for k, v in other.entries.items()})


class Tensor3(Frozen):
    """Sparse 3-index tensor; ``entries`` maps (i, j, k) -> coefficient."""

    d0: int
    d1: int
    d2: int
    entries: dict

    def __init__(self, d0: int, d1: int, d2: int, entries: dict):
        self.__dict__.update(d0=d0, d1=d1, d2=d2, entries=_clean(entries))
        for i, j, k in self.entries:
            if not (0 <= i < self.d0 and 0 <= j < self.d1 and 0 <= k < self.d2):
                raise DimensionMismatch(
                    f"entry ({i},{j},{k}) out of range for "
                    f"{self.d0}x{self.d1}x{self.d2}"
                )
