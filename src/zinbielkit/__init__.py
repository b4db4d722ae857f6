"""Exact-arithmetic workbench for structure-constant algebras of Zinbiel type.

Tables are sparse tensors over Fraction; every check returns exact residuals
and deterministic first witnesses.  See the README for the identity DSL and
the CLI.
"""

from importlib import import_module

# Each public name, by the module that defines it.  A name is imported on its
# first access (PEP 562), so ``import zinbielkit.cli`` compiles only the
# modules the command runs.
_EXPORTS = {
    "algebra": ("AlgebraTable", "algebra_from_entries"),
    "audit": ("CLAIMS", "audit_claims", "audit_report_jsonable", "audit_report_text"),
    "bialgebra": (
        "BialgebraCandidate",
        "BilinearFormTable",
        "check_form",
        "check_manin_triple",
        "drinfeld_double",
        "dual_reps",
        "equivalence_audit",
        "rank",
        "standard_pairing",
    ),
    "bimodule": (
        "Bimodule",
        "check_bimodule",
        "check_derived_relations",
        "direct_sum",
        "induced_subadjacent_map",
        "regular_bimodule",
        "semidirect_sum",
        "zero_bimodule",
    ),
    "coalgebra": (
        "CoalgebraTable",
        "antisym_coproduct",
        "check_aux_coalgebra_identities",
        "check_co_left",
        "check_co_right",
        "check_cocomm_coassoc",
        "check_lie_coalgebra",
        "coalgebra_from_entries",
        "dualize",
        "dualize_co",
        "opposite_coproduct",
        "sym_coproduct",
    ),
    "identities": (
        "Identity",
        "catalog",
        "evaluate",
        "holds",
        "left_zinbiel_residuals",
        "parse_identity",
        "right_zinbiel_residuals",
    ),
    "matched_pair": (
        "MatchedPair",
        "check_commassoc_matched_pair",
        "check_lie_matched_pair",
        "check_matched_pair",
        "double",
        "induced_commassoc_pair",
        "induced_lie_pair",
        "zero_matched_pair",
    ),
    "models": ("free_halfshuffle", "trivial_models", "trunc_integration"),
    "serialization": ("dumps", "from_jsonable", "load_path", "loads", "parse_scalar", "to_jsonable"),
    "tensors": ("Matrix", "Scalar", "Tensor3", "Vector", "format_scalar"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _MODULE_OF.keys())
