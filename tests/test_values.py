"""Value semantics of the package's records and validated value classes:
equality by value, the field-listing repr, no assignment to a field, and
the constructor's own errors."""

from fractions import Fraction

import pytest

from zinbielkit.algebra import AlgebraTable
from zinbielkit.audit import AuditReport, ClaimSpec
from zinbielkit.bialgebra import BialgebraCandidate, BilinearFormTable, EquivalenceReport
from zinbielkit.bimodule import (
    Bimodule,
    BimoduleViolation,
    DerivedRelationsReport,
    SubadjacentReport,
)
from zinbielkit.coalgebra import CoalgebraTable, CoalgebraViolation, dualize
from zinbielkit.identities import Identity
from zinbielkit.matched_pair import MatchedPair, MatchedPairViolation
from zinbielkit.models import trunc_integration
from zinbielkit.reports import Verdict, VerdictBundle
from zinbielkit.tensors import DimensionMismatch, Matrix, Tensor3, Vector

ONE = Fraction(1)
V = Vector(1, {0: ONE})
M = Matrix(1, 1, {(0, 0): ONE})
M0 = Matrix(1, 1, {})
T = Tensor3(1, 1, 1, {(0, 0, 0): ONE})
T0 = Tensor3(1, 1, 1, {})
A = AlgebraTable(1, ("e0",), T)
A0 = AlgebraTable(1, ("e0",), T0)
OK = Verdict("c", True)

V_TEXT = "Vector(dim=1, entries={0: Fraction(1, 1)})"
M_TEXT = "Matrix(rows=1, cols=1, entries={(0, 0): Fraction(1, 1)})"
T_TEXT = "Tensor3(d0=1, d1=1, d2=1, entries={(0, 0, 0): Fraction(1, 1)})"
A_TEXT = f"AlgebraTable(dim=1, basis_labels=('e0',), c={T_TEXT})"
OK_TEXT = "Verdict(name='c', holds=True, witness_text=None, witness_data=None)"

# (class, args, args of an unequal value, repr, bad args or None, their error)
CASES = [
    (Vector, (1, {0: ONE}), (1, {}), V_TEXT, (1, {1: ONE}), DimensionMismatch),
    (Matrix, (1, 1, {(0, 0): ONE}), (1, 1, {}), M_TEXT, (1, 1, {(0, 1): ONE}), DimensionMismatch),
    (Tensor3, (1, 1, 1, {(0, 0, 0): ONE}), (1, 1, 1, {}), T_TEXT,
     (1, 1, 1, {(0, 0, 1): ONE}), DimensionMismatch),
    (AlgebraTable, (1, ("e0",), T), (1, ("x",), T), A_TEXT, (1, (), T), DimensionMismatch),
    (CoalgebraTable, (1, T), (1, T0), f"CoalgebraTable(dim=1, d={T_TEXT})", (2, T), ValueError),
    (Bimodule, (A, 1, (M,), (M,)), (A, 1, (M,), (M0,)),
     f"Bimodule(base={A_TEXT}, v_dim=1, left_maps=({M_TEXT},), right_maps=({M_TEXT},))",
     (A, 2, (M,), (M,)), DimensionMismatch),
    (MatchedPair, (A, A, (M,), (M,), (M,), (M,)), (A, A0, (M,), (M,), (M,), (M,)),
     f"MatchedPair(a={A_TEXT}, b={A_TEXT}, la=({M_TEXT},), ra=({M_TEXT},), "
     f"lb=({M_TEXT},), rb=({M_TEXT},))",
     (A, A, (M,), (M,), (M,), ()), DimensionMismatch),
    (BilinearFormTable, (1, M), (1, M0), f"BilinearFormTable(dim=1, g={M_TEXT})", (2, M), ValueError),
    (BialgebraCandidate, (A, A), (A, A0), f"BialgebraCandidate(a={A_TEXT}, astar={A_TEXT})",
     (A, trunc_integration(2, "right")), ValueError),
    (Verdict, ("c", True), ("c", False), OK_TEXT, None, None),
    (VerdictBundle, ("k", (OK,)), ("k", ()), f"VerdictBundle(kind='k', verdicts=({OK_TEXT},))",
     None, None),
    (ClaimSpec, ("c", "(x y)", "(y x)", "product"), ("c", "(x y)", "", "product"),
     "ClaimSpec(name='c', lhs='(x y)', rhs='(y x)', target='product')", None, None),
    (AuditReport, ("s", "right", False, (OK,)), ("s", "left", False, (OK,)),
     f"AuditReport(subject='s', orientation='right', vacuous=False, claims=({OK_TEXT},))",
     None, None),
    (Identity, (("x",), ((ONE, "x"),)), (("x",), ()),
     "Identity(variables=('x',), terms=((Fraction(1, 1), 'x'),))", None, None),
    (BimoduleViolation, ("left_composition", (0, 0), M), ("left_composition", (0, 0), M0),
     f"BimoduleViolation(axiom='left_composition', pair=(0, 0), residual={M_TEXT})", None, None),
    (DerivedRelationsReport, ([], (OK,)), ([], ()),
     f"DerivedRelationsReport(axioms=[], relations=({OK_TEXT},))", None, None),
    (SubadjacentReport, ((M,), OK), ((M0,), OK),
     f"SubadjacentReport(maps=({M_TEXT},), representation={OK_TEXT})", None, None),
    (MatchedPairViolation, ("compat_rb", (0, 0, 0), {0: ONE}), ("compat_ra", (0, 0, 0), {0: ONE}),
     "MatchedPairViolation(condition='compat_rb', where=(0, 0, 0), residual={0: Fraction(1, 1)})",
     None, None),
    (CoalgebraViolation, (0, {(0, 0, 0): ONE}), (1, {(0, 0, 0): ONE}),
     "CoalgebraViolation(basis_index=0, residual={(0, 0, 0): Fraction(1, 1)})", None, None),
    (EquivalenceReport, ((OK,) * 4, ()), ((OK,) * 4, ("f",)),
     f"EquivalenceReport(conditions=({OK_TEXT}, {OK_TEXT}, {OK_TEXT}, {OK_TEXT}), findings=())",
     None, None),
]


@pytest.mark.parametrize("cls,args,other,text,bad,error", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, args, other, text, bad, error):
    value = cls(*args)
    assert value == cls(*args)
    assert value != cls(*other)
    assert repr(value) == text
    first_field = text.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(value, first_field, getattr(value, first_field))
    if bad is not None:
        with pytest.raises(error):
            cls(*bad)


def test_cached_indexes_survive_and_do_not_change_equality():
    table = trunc_integration(3, "right")
    rows = table._factor_rows
    assert table._factor_rows is rows
    assert table == trunc_integration(3, "right")
    coalgebra = dualize(table)
    dual = coalgebra._dual
    assert coalgebra._dual is dual
    assert coalgebra == dualize(table)
    with pytest.raises(AttributeError):
        del table.dim
