"""Coalgebras by coproduct tensor, and the transpose bridge to product tables.

A ``CoalgebraTable`` stores d[k][i][j] meaning Delta(e_k) = sum d_k^{ij}
e_i (x) e_j.  Checks expand compositions like (id (x) Delta) o Delta into
exact 3-leg tensors per basis vector; a violation is the basis index plus
the residual 3-tensor.

``dualize`` transposes a product table into a coproduct table via
d[k][i][j] = c[i][j][k]; this makes the right-orientation coalgebra check on
dualize(A) carry exactly the same residual coefficients as the
right-orientation check on A, which the tests assert entrywise.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .algebra import AlgebraTable, algebra_from_entries
from .reports import Verdict, VerdictBundle, format_scalar
from .tensors import ZERO, Tensor3

Pairs = dict[tuple[int, int], Fraction]
Triples = dict[tuple[int, int, int], Fraction]


@dataclass(frozen=True)
class CoalgebraTable:
    dim: int
    d: Tensor3  # d[k][i][j]: coefficient of e_i (x) e_j in Delta(e_k)

    def __post_init__(self):
        if (self.d.d0, self.d.d1, self.d.d2) != (self.dim,) * 3:
            raise ValueError("coproduct tensor shape must be dim x dim x dim")

    @cached_property
    def _by_basis(self) -> tuple[dict[int, Pairs], dict[int, Pairs]]:
        """(plain, swapped): k -> Delta(e_k), and k -> tau o Delta(e_k), as
        {(i, j): coefficient} over the nonzero entries."""
        plain: dict[int, Pairs] = {}
        swapped: dict[int, Pairs] = {}
        for (k, i, j), v in self.d.entries.items():
            plain.setdefault(k, {})[(i, j)] = v
            swapped.setdefault(k, {})[(j, i)] = v
        return plain, swapped

    def coproduct_basis(self, k: int) -> Pairs:
        return dict(_delta(self, k))

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
    return _combine(c, Fraction(1))


def antisym_coproduct(c: CoalgebraTable) -> CoalgebraTable:
    return _combine(c, Fraction(-1))


def _combine(c: CoalgebraTable, sign: Fraction) -> CoalgebraTable:
    acc: Triples = dict(c.d.entries)
    for (k, i, j), v in c.d.entries.items():
        key = (k, j, i)
        s = acc.get(key, ZERO) + sign * v
        if s:
            acc[key] = s
        elif key in acc:
            del acc[key]
    return CoalgebraTable(c.dim, Tensor3(c.dim, c.dim, c.dim, acc))


def dualize(a: AlgebraTable) -> CoalgebraTable:
    entries = {(k, i, j): v for (i, j, k), v in a.c.entries.items()}
    return CoalgebraTable(a.dim, Tensor3(a.dim, a.dim, a.dim, entries))


def dualize_co(c: CoalgebraTable) -> AlgebraTable:
    return algebra_from_entries(
        c.dim, [(i, j, k, v) for (k, i, j), v in c.d.entries.items()]
    )


# -- composition calculus ----------------------------------------------------
#
# A composite like (tau (x) id) o (Delta (x) id) o (tau o Delta) is evaluated
# per basis vector: start from the 2-leg tensor of the inner coproduct, expand
# one leg with a coproduct, then permute legs.  All tensors are sparse dicts.


def _delta(c: CoalgebraTable, k: int, *, swap: bool = False) -> Pairs:
    """Delta(e_k) (tau o Delta(e_k) with ``swap``) from the table's basis
    index; the dict is the index's own, so callers must not change it."""
    return c._by_basis[swap].get(k, {})


def _expand0(two: Pairs, c: CoalgebraTable, *, swap: bool = False) -> Triples:
    """Apply Delta (or tau o Delta) to the first leg: (F (x) id)."""
    out: Triples = {}
    for (m, j), v in two.items():
        for (i, i2), w in _delta(c, m, swap=swap).items():
            key = (i, i2, j)
            s = out.get(key, ZERO) + v * w
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _expand1(two: Pairs, c: CoalgebraTable, *, swap: bool = False) -> Triples:
    """Apply Delta (or tau o Delta) to the second leg: (id (x) F)."""
    out: Triples = {}
    for (i, m), v in two.items():
        for (j, l), w in _delta(c, m, swap=swap).items():
            key = (i, j, l)
            s = out.get(key, ZERO) + v * w
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _swap01(t: Triples) -> Triples:
    return {(j, i, l): v for (i, j, l), v in t.items()}


def _swap12(t: Triples) -> Triples:
    return {(i, l, j): v for (i, j, l), v in t.items()}


def _sub3(lhs: Triples, *others: Triples) -> Triples:
    out = dict(lhs)
    for other in others:
        for key, v in other.items():
            s = out.get(key, ZERO) - v
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _add3(*parts: Triples) -> Triples:
    out: Triples = {}
    for part in parts:
        for key, v in part.items():
            s = out.get(key, ZERO) + v
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


@dataclass(frozen=True)
class CoalgebraViolation:
    basis_index: int
    residual: Triples


def format_triples(t: Triples, symbol: str = "e") -> str:
    if not t:
        return "0"
    parts = []
    for idx, ((i, j, l), v) in enumerate(sorted(t.items())):
        mag = abs(v)
        body = f"{symbol}{i}*{symbol}{j}*{symbol}{l}"
        if mag != 1:
            body = f"({format_scalar(mag)}){body}"
        if idx == 0:
            parts.append(body if v > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if v > 0 else '-'} {body}")
    return " ".join(parts)


def triples_jsonable(t: Triples) -> list:
    return [[i, j, l, format_scalar(v)] for (i, j, l), v in sorted(t.items())]


def check_co_right(c: CoalgebraTable, *, first_only: bool = False) -> list[CoalgebraViolation]:
    """(id (x) Delta) o Delta = (Delta (x) id) o Delta + ((tau o Delta) (x) id) o Delta."""
    out = []
    for k in range(c.dim):
        two = _delta(c, k)
        r = _sub3(_expand1(two, c), _expand0(two, c), _expand0(two, c, swap=True))
        if r:
            out.append(CoalgebraViolation(k, r))
            if first_only:
                break
    return out


def check_co_left(c: CoalgebraTable, *, first_only: bool = False) -> list[CoalgebraViolation]:
    """(Delta (x) id) o Delta = (id (x) Delta) o Delta + (id (x) (tau o Delta)) o Delta."""
    out = []
    for k in range(c.dim):
        two = _delta(c, k)
        r = _sub3(_expand0(two, c), _expand1(two, c), _expand1(two, c, swap=True))
        if r:
            out.append(CoalgebraViolation(k, r))
            if first_only:
                break
    return out


def _family_verdict(name: str, residual_per_basis) -> Verdict:
    for k, r in residual_per_basis:
        if r:
            text = f"at e{k}: residual = {format_triples(r)}"
            data = {"basis_index": k, "residual": triples_jsonable(r)}
            return Verdict(name, False, text, data)
    return Verdict(name, True)


def check_cocomm_coassoc(c: CoalgebraTable) -> VerdictBundle:
    """Delta = tau o Delta together with (Delta (x) id) o Delta = (id (x) Delta) o Delta."""

    def cocomm():
        for k in range(c.dim):
            two = _delta(c, k)
            swapped = _delta(c, k, swap=True)
            diff = dict(two)
            for key, v in swapped.items():
                s = diff.get(key, ZERO) - v
                if s:
                    diff[key] = s
                elif key in diff:
                    del diff[key]
            # report 2-leg residual as a 3-leg dict with a padded last index
            yield k, {(i, j, 0): v for (i, j), v in diff.items() if v}

    def coassoc():
        for k in range(c.dim):
            two = _delta(c, k)
            yield k, _sub3(_expand0(two, c), _expand1(two, c))

    return VerdictBundle(
        "cocommutative_coassociative",
        (
            _family_verdict("cocommutative", cocomm()),
            _family_verdict("coassociative", coassoc()),
        ),
    )


def check_lie_coalgebra(c: CoalgebraTable) -> VerdictBundle:
    """Delta = -tau o Delta together with the three-term co-Jacobi identity."""

    def anti():
        for k in range(c.dim):
            acc = dict(_delta(c, k))
            for key, v in _delta(c, k, swap=True).items():
                s = acc.get(key, ZERO) + v
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]
            yield k, {(i, j, 0): v for (i, j), v in acc.items() if v}

    def co_jacobi():
        # (id (x) Delta) o Delta + (id (x) tau) o (Delta (x) id) o Delta
        #   - (Delta (x) id) o Delta
        for k in range(c.dim):
            two = _delta(c, k)
            middle = _expand0(two, c)
            yield k, _sub3(_add3(_expand1(two, c), _swap12(middle)), middle)

    return VerdictBundle(
        "lie_coalgebra",
        (
            _family_verdict("antisymmetric", anti()),
            _family_verdict("co_jacobi", co_jacobi()),
        ),
    )


class _Composites:
    """The composites of Delta and tau at one basis vector e_k.  Each is built
    on first use and shared by every identity that reads it."""

    def __init__(self, c: CoalgebraTable, k: int):
        self.c, self.d, self.dt = c, _delta(c, k), _delta(c, k, swap=True)

    @cached_property
    def id_delta(self) -> Triples:  # (id (x) Delta) o Delta
        return _expand1(self.d, self.c)

    @cached_property
    def delta_id(self) -> Triples:  # (Delta (x) id) o Delta
        return _expand0(self.d, self.c)

    @cached_property
    def id_tdelta(self) -> Triples:  # (id (x) (tau o Delta)) o Delta
        return _expand1(self.d, self.c, swap=True)

    @cached_property
    def id_delta_t(self) -> Triples:  # (id (x) Delta) o (tau o Delta)
        return _expand1(self.dt, self.c)

    @cached_property
    def delta_id_t(self) -> Triples:  # (Delta (x) id) o (tau o Delta)
        return _expand0(self.dt, self.c)

    @cached_property
    def id_tdelta_t(self) -> Triples:  # (id (x) (tau o Delta)) o (tau o Delta)
        return _expand1(self.dt, self.c, swap=True)

    @cached_property
    def tdelta_id_t(self) -> Triples:  # ((tau o Delta) (x) id) o (tau o Delta)
        return _expand0(self.dt, self.c, swap=True)

    @cached_property
    def derived_rhs(self) -> Triples:
        # (id (x) tau) o (Delta (x) id) o Delta
        #   + (tau (x) id) o (id (x) (tau o Delta)) o (tau o Delta)
        return _add3(_swap12(self.delta_id), _swap01(self.id_tdelta_t))


# name -> residual at one basis vector, from its composites
_AUX_IDENTITIES = (
    # consequences of the right orientation
    # (id (x) Delta) o Delta = (tau (x) id) o (id (x) Delta) o Delta
    ("co_right_relation_a", lambda x: _sub3(x.id_delta, _swap01(x.id_delta))),
    # (id (x) Delta) o Delta = (tau (x) id) o (Delta (x) id) o (tau o Delta)
    ("co_right_relation_b", lambda x: _sub3(x.id_delta, _swap01(x.delta_id_t))),
    # consequences of the left orientation
    # (Delta (x) id) o Delta = (id (x) tau) o (Delta (x) id) o Delta
    ("co_left_relation_a", lambda x: _sub3(x.delta_id, _swap12(x.delta_id))),
    # (Delta (x) id) o Delta = (id (x) tau) o (id (x) Delta) o (tau o Delta)
    ("co_left_relation_b", lambda x: _sub3(x.delta_id, _swap12(x.id_delta_t))),
    # two-sided identities for the right orientation
    # (id (x) (tau o Delta)) o Delta = derived_rhs
    ("co_derived_1", lambda x: _sub3(x.id_tdelta, x.derived_rhs)),
    # (Delta (x) id) o (tau o Delta) = the same right-hand side
    ("co_derived_2", lambda x: _sub3(x.delta_id_t, x.derived_rhs)),
    # ((tau o Delta) (x) id) o (tau o Delta)
    #   = (id (x) Delta) o (tau o Delta) + (id (x) (tau o Delta)) o (tau o Delta)
    ("co_derived_3", lambda x: _sub3(x.tdelta_id_t, _add3(x.id_delta_t, x.id_tdelta_t))),
)


def check_aux_coalgebra_identities(c: CoalgebraTable) -> VerdictBundle:
    """The consequence identities of each coalgebra orientation, plus the three
    two-sided product identities stated for the right orientation.  All are
    evaluated unconditionally; which ones hold is part of the report.

    Basis vectors are visited once, in order, for all identities together;
    an identity is no longer evaluated after its first violation."""
    first: dict[str, tuple[int, Triples]] = {}
    for k in range(c.dim):
        x = _Composites(c, k)
        for name, residual in _AUX_IDENTITIES:
            if name not in first:
                r = residual(x)
                if r:
                    first[name] = (k, r)
        if len(first) == len(_AUX_IDENTITIES):
            break
    verdicts = (_family_verdict(name, [first[name]] if name in first else [])
                for name, _ in _AUX_IDENTITIES)
    return VerdictBundle("aux_coalgebra_identities", tuple(verdicts))


def gap_counterexample() -> CoalgebraTable:
    """Coproduct whose symmetrization is zero (so trivially cocommutative and
    coassociative) while the coproduct itself passes neither orientation."""
    return coalgebra_from_entries(2, [(0, 0, 1, 1), (0, 1, 0, -1)])
