"""Bilinear forms, dual representations, Manin triples, and the four-way
equivalence audit on a candidate pair (A, Astar).

The central construction: a candidate pair of same-dimension tables induces
transpose actions (lA = R'(x)^T, rA = L'(x)^T on the dual side; lB, rB from
Astar likewise on A), a double product on A + Astar, and the hyperbolic
pairing [[0,I],[I,0]].  Four conditions are evaluated independently:

  1. the double with the standard pairing is a Manin triple,
  2. the induced Lie pair of condition 3's pair: the commutator tables with
     the difference actions lA - rA = -(L - R)^T (and likewise on A) form a
     Lie matched pair,
  3. the transpose actions form a matched pair of the original tables,
  4. condition 3 restated through the coproduct dualize(Astar) after a
     round trip back to a product table.

Condition 4 has no independent axiom to draw on, so it is deliberately the
round-trip restatement; any disagreement among the four is reported as a
finding, never patched over.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .algebra import AlgebraTable
from .coalgebra import dualize, dualize_co
from .identities import right_zinbiel_residuals
from .matched_pair import (
    MatchedPair,
    check_matched_pair,
    double,
    induced_lie_pair,
    matched_pair_verdict,
)
from .reports import Verdict, VerdictBundle, format_scalar, format_vector, vector_jsonable
from .tensors import ZERO, Frozen, Matrix, rank


class BilinearFormTable(Frozen):
    dim: int
    g: Matrix

    def __init__(self, dim: int, g: Matrix):
        self.__dict__.update(dim=dim, g=g)
        if (self.g.rows, self.g.cols) != (self.dim, self.dim):
            raise ValueError("form matrix must be dim x dim")


def standard_pairing(n: int) -> BilinearFormTable:
    entries = {}
    for i in range(n):
        entries[(i, n + i)] = Fraction(1)
        entries[(n + i, i)] = Fraction(1)
    return BilinearFormTable(2 * n, Matrix(2 * n, 2 * n, entries))


def _invariance(a: AlgebraTable, g: Matrix, name: str) -> Verdict:
    """B(x.y, z) = B(x, y.z) on basis triples, witnessed at the least
    failing (i, j, l)."""
    # B(e_i e_j, e_l) = sum_k c_ij^k g_kl and B(e_i, e_j e_l) = sum_k g_ik c_jl^k,
    # summed over the nonzero structure constants and the form's entries.
    g_rows: dict[int, list] = {}
    g_cols: dict[int, list] = {}
    for (r, c), v in g.entries.items():
        g_rows.setdefault(r, []).append((c, v))
        g_cols.setdefault(c, []).append((r, v))
    lhs: dict[tuple[int, int, int], Fraction] = {}
    rhs: dict[tuple[int, int, int], Fraction] = {}
    for (p, q, k), v in a.c.entries.items():
        for l, w in g_rows.get(k, ()):
            lhs[p, q, l] = lhs.get((p, q, l), ZERO) + v * w
        for i, w in g_cols.get(k, ()):
            rhs[i, p, q] = rhs.get((i, p, q), ZERO) + w * v
    differ = [t for t in lhs.keys() | rhs.keys() if lhs.get(t, ZERO) != rhs.get(t, ZERO)]
    if not differ:
        return Verdict(name, True)
    t = min(differ)
    left, right = format_scalar(lhs.get(t, ZERO)), format_scalar(rhs.get(t, ZERO))
    return Verdict(
        name,
        False,
        f"at (e{t[0]},e{t[1]},e{t[2]}): B(xy,z) = {left}, B(x,yz) = {right}",
        {"tuple": list(t), "lhs": left, "rhs": right},
    )


def check_form(a: AlgebraTable, form: BilinearFormTable) -> VerdictBundle:
    """symmetric, invariant (B(x.y, z) = B(x, y.z)), nondegenerate."""
    if a.dim != form.dim:
        raise ValueError("form and table dimensions differ")
    g = form.g

    sym = Verdict("symmetric", True)
    for (i, j), v in sorted(g.entries.items()):
        if g.get(j, i) != v:
            sym = Verdict(
                "symmetric",
                False,
                f"at (e{i},e{j}): {format_scalar(v)} vs {format_scalar(g.get(j, i))}",
                {"tuple": [i, j], "lhs": format_scalar(v), "rhs": format_scalar(g.get(j, i))},
            )
            break

    inv = _invariance(a, g, "invariant")

    r = rank(g)
    nondeg = (
        Verdict("nondegenerate", True)
        if r == form.dim
        else Verdict(
            "nondegenerate", False, f"rank {r} < dim {form.dim}", {"rank": r, "dim": form.dim}
        )
    )
    return VerdictBundle("bilinear_form", (sym, inv, nondeg))


class BialgebraCandidate(Frozen):
    a: AlgebraTable
    astar: AlgebraTable

    def __init__(self, a: AlgebraTable, astar: AlgebraTable):
        self.__dict__.update(a=a, astar=astar)
        if self.a.dim != self.astar.dim:
            raise ValueError("candidate tables must have equal dimensions")

    @cached_property
    def _dual_reps(self) -> MatchedPair:
        """The pair ``dual_reps`` returns, built on first use and kept for as
        long as the candidate lives, so that the conditions of one audit read
        one pair and one double."""
        n = self.a.dim
        la = tuple(self.a.right_mult_matrix(i).transpose() for i in range(n))
        ra = tuple(self.a.left_mult_matrix(i).transpose() for i in range(n))
        lb = tuple(self.astar.right_mult_matrix(i).transpose() for i in range(n))
        rb = tuple(self.astar.left_mult_matrix(i).transpose() for i in range(n))
        return MatchedPair(self.a, self.astar, la, ra, lb, rb)


def dual_reps(bc: BialgebraCandidate) -> MatchedPair:
    """Transpose actions against the natural pairing: <T^t f, v> = <f, T v>;
    one pair per candidate (``BialgebraCandidate._dual_reps``)."""
    return bc._dual_reps


def drinfeld_double(bc: BialgebraCandidate) -> AlgebraTable:
    return double(dual_reps(bc))


def check_manin_triple(bc: BialgebraCandidate) -> VerdictBundle:
    n = bc.a.dim
    d = drinfeld_double(bc)
    form = standard_pairing(n)

    blocks = Verdict("blocks_are_subalgebras", True)
    for (i, j, k), v in sorted(d.c.entries.items()):
        block = "A" if i < n and j < n and k >= n else "dual" if i >= n and j >= n and k < n else ""
        if block:
            blocks = Verdict(
                "blocks_are_subalgebras",
                False,
                f"{block}-block product leaks: entry ({i},{j},{k}) = {format_scalar(v)}",
                {"entry": [i, j, k, format_scalar(v)]},
            )
            break

    iso = Verdict("isotropic_blocks", True)
    for (i, j), v in sorted(form.g.entries.items()):
        if (i < n) == (j < n):
            iso = Verdict(
                "isotropic_blocks",
                False,
                f"pairing nonzero inside a block at (e{i},e{j})",
                {"tuple": [i, j]},
            )
            break

    zin = Verdict("double_right_zinbiel", True)
    hits = right_zinbiel_residuals(d, first_only=True)
    if hits:
        (x, y, z), res = hits[0]
        zin = Verdict(
            "double_right_zinbiel",
            False,
            f"at (e{x},e{y},e{z}): residual = {format_vector(res)}",
            {"tuple": [x, y, z], "residual": vector_jsonable(res)},
        )

    inv = _invariance(d, form.g, "pairing_invariant")

    return VerdictBundle("manin_triple", (blocks, iso, zin, inv))


def _bundle_verdict(name: str, bundle: VerdictBundle) -> Verdict:
    if bundle.holds:
        return Verdict(name, True)
    first = next(v for v in bundle.verdicts if not v.holds)
    text = f"{first.name} fails"
    if first.witness_text:
        text += f" {first.witness_text}"
    return Verdict(name, False, text, {"failing": first.name, "witness": first.witness_data})


class EquivalenceReport(NamedTuple):
    conditions: tuple[Verdict, Verdict, Verdict, Verdict]
    findings: tuple[str, ...]

    @property
    def booleans(self) -> tuple[bool, bool, bool, bool]:
        return tuple(v.holds for v in self.conditions)

    @property
    def agreement(self) -> bool:
        return len(set(self.booleans)) == 1

    def jsonable(self) -> dict:
        return {
            "kind": "equivalence_report",
            "conditions": [v.jsonable() for v in self.conditions],
            "agreement": self.agreement,
            "findings": list(self.findings),
        }

    def lines(self) -> list[str]:
        out = [f"[equivalence] {v.line()}" for v in self.conditions]
        for f in self.findings:
            out.append(f"[equivalence] finding: {f}")
        return out


def equivalence_audit(bc: BialgebraCandidate) -> EquivalenceReport:
    cond1 = _bundle_verdict("manin_triple", check_manin_triple(bc))
    reps = dual_reps(bc)
    cond2 = _bundle_verdict("lie_matched_pair", induced_lie_pair(reps))
    cond3 = matched_pair_verdict("zinbiel_matched_pair", check_matched_pair(reps))

    # The round trip compares labels too, so when it holds the rebuilt pair
    # is ``reps`` itself, and condition 4 checks it again; the pair's memo
    # (``MatchedPair._violations``) answers that call without a second scan.
    if dualize_co(dualize(bc.astar)) != bc.astar:
        cond4 = Verdict(
            "bialgebra",
            False,
            "coproduct round trip disagrees with the dual product table",
            {"roundtrip": False},
        )
    else:
        cond4 = matched_pair_verdict("bialgebra", check_matched_pair(reps))

    report = EquivalenceReport((cond1, cond2, cond3, cond4), ())
    if report.agreement:
        return report
    per = ", ".join(f"{v.name}={v.holds}" for v in report.conditions)
    return report._replace(findings=(f"conditions disagree: {per}",))
