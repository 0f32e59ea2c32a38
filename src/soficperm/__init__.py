"""Permutation models of five groups, with exact verification and search.

The package builds explicit permutation images for the generators of five
group families, measures how close those images are to honest homomorphisms
in the normalized Hamming metric, searches for order-constrained
permutations that almost conjugate one generator image to another, builds a
five-generator action on p^4 points from value tables, and carries the
exact counting machinery (how many permutations satisfy f^k = id, and what
an independence estimate predicts about constrained ones).

Everything numerical is exact: distances are fractions, counts are big
integers, and the counting estimate's logs are ``Decimal`` values at 64
digits, printed to 30; floats appear only in CSV cells.

The names of ``__all__`` are loaded on first use (PEP 562), each from the
submodule in :data:`_EXPORTS`, so importing one submodule, as the command
line does, loads only what that submodule imports.  ``groups``,
``serialize``, ``limits`` and ``heuristic`` use no arrays and never import
numpy; ``perm`` imports it at its first array operation (see
``perm._NumpyOnFirstUse``), so the counting commands, ``--help`` and usage
errors run without it.  The other modules import numpy at their top.
"""

import importlib

__version__ = "0.1.0"

# the submodule that defines each exported name; eval_spec is approx.eval
_EXPORTS = {
    "perm": (
        "Perm", "CycleDecomposition", "compose", "conjugate", "inverse",
        "power", "hamming", "hamming_count", "cycle_decomposition",
        "order_of", "project_to_order", "amplify",
        "count_order_dividing", "sample_order_k"),
    "groups": (
        "FAMILIES", "GenWord", "Z2Elem", "HeisElem", "BSElem", "WreathElem",
        "FreeWord", "genword", "identity", "generator", "mul", "eval_word",
        "is_trivial", "ball"),
    "approx": (
        "ApproxSpec", "VerifyReport", "PolyConditionResult",
        "HeisFixedReport", "make_approx", "eval_spec", "amplify_spec",
        "verify", "check_poly_condition", "heis_fixed_bound"),
    "conjsearch": (
        "ConjProblem", "SearchReport", "AlignmentReport",
        "translation_problem", "multiplication_problem", "problem_from_spec",
        "agreement", "exact_multiplicative", "exact_search", "brute_force",
        "local_search", "higman_defect", "align"),
    "higman": (
        "HigPresentation", "ActionTable", "RelationReport",
        "hig_presentation", "mubar", "make_action", "verify_action",
        "injectivity_probe", "random_tables"),
    "heuristic": ("HeuristicReport", "heuristic_report"),
    "serialize": ("to_fraction",),
}
__all__ = ["__version__",
           *(name for names in _EXPORTS.values() for name in names)]
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__),
                    "eval" if name == "eval_spec" else name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
