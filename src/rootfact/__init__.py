"""Exact root subgroup factorization on the classical complex groups.

Families A, B, C, D over Gaussian-rational scalars: root systems and
Weyl words, canonical matrix sl2 triples, ordered-exponential
coordinates with exact forward, inverse, and dual maps, Jacobian
determinants, the invariant density, and compact-picture coordinate
changes.  No floating point anywhere.

The package imports no module of its own until a name is asked for:
each exported name loads its defining module on first access (PEP 562),
so a command-line request loads only the modules its handler runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# each module and the names the package exports from it
_EXPORTS = {
    "errors": (
        "BranchViolationError", "BudgetExceededError", "ExceptionalSetError",
        "InvalidInputError", "InvalidWordError", "LibError", "StratumError",
    ),
    "factorization": (
        "ForwardResult", "StratumResult", "WordPlan", "delta_identity_check",
        "forward_map", "forward_map_stratum", "inverse_map",
        "jacobian_det_ad", "jacobian_det_double_product", "jacobian_det_formula",
        "stratum_data", "transpose_dual", "word_plan",
    ),
    "haar": (
        "RadicalScalar", "eta_change_jacobian_det", "eta_from_zeta", "haar_density",
        "lebesgue_pullback_det", "unit_jacobian_check", "zeta_from_eta",
    ),
    "jets": ("Jet",),
    "linalg": (
        "det_exact", "identity", "ldu", "ldu_minors", "mat_inverse", "mat_mul",
        "principal_minor",
    ),
    "matrices": (
        "coroot_diag", "dim", "e_matrix", "exp_e", "exp_f", "f_matrix", "form_matrix",
        "h_matrix", "inverse_dual", "root_triple", "row_weight", "sigma",
        "weyl_representative",
    ),
    "rootsystem": (
        "delta", "height", "is_positive_root", "norm2", "pairing", "positive_roots",
        "simple_root_coordinates", "simple_roots",
    ),
    "scalar": ("Scalar",),
    "weyl": (
        "WeylElement", "canonical_ordering", "canonical_word", "count_reduced_words",
        "deterministic_reduced_word", "enumerate_reduced_words", "identity_element",
        "is_reduced", "longest_element", "ordering_from_word", "printed_count_bc",
        "random_reduced_word", "simple_reflection", "standard_count_a",
        "validate_ordering", "word_evaluate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
