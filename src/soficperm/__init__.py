"""Permutation models of five groups, with exact verification and search.

The package builds explicit permutation images for the generators of five
group families, measures how close those images are to honest homomorphisms
in the normalized Hamming metric, searches for order-constrained
permutations that almost conjugate one generator image to another, builds a
five-generator action on p^4 points from value tables, and carries the
exact counting machinery (how many permutations satisfy f^k = id, and what
an independence estimate predicts about constrained ones).

Everything numerical is exact: distances are fractions, counts are big
integers; floats appear only in the 200-bit log estimates.
"""

from .approx import (
    ApproxSpec,
    HeisFixedReport,
    PolyConditionResult,
    VerifyReport,
    amplify_spec,
    check_poly_condition,
    heis_fixed_bound,
    make_approx,
    to_fraction,
    verify,
)
from .approx import eval as eval_spec
from .conjsearch import (
    AlignmentReport,
    ConjProblem,
    SearchReport,
    agreement,
    align,
    brute_force,
    exact_multiplicative,
    exact_search,
    higman_defect,
    local_search,
    multiplication_problem,
    problem_from_spec,
    psi_f_eval,
    translation_problem,
)
from .groups import (
    FAMILIES,
    BSElem,
    Ball,
    FreeWord,
    GenWord,
    HeisElem,
    WreathElem,
    Z2Elem,
    ball,
    eval_word,
    generator,
    genword,
    identity,
    is_trivial,
    mul,
)
from .heuristic import HeuristicReport, heuristic_report
from .higman import (
    ActionTable,
    HigPresentation,
    RelationReport,
    hig_presentation,
    injectivity_probe,
    make_action,
    mubar,
    random_tables,
    verify_action,
)
from .perm import (
    CycleDecomposition,
    Perm,
    amplify,
    compose,
    conjugate,
    count_order_dividing,
    cycle_decomposition,
    hamming,
    hamming_count,
    inverse,
    order_divides,
    order_of,
    power,
    project_to_order,
    sample_order_k,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # permutations
    "Perm", "CycleDecomposition", "compose", "conjugate", "inverse", "power",
    "hamming", "hamming_count", "cycle_decomposition", "order_of",
    "order_divides", "project_to_order", "amplify",
    "count_order_dividing", "sample_order_k",
    # groups
    "FAMILIES", "GenWord", "Z2Elem", "HeisElem", "BSElem", "WreathElem",
    "FreeWord", "Ball", "genword", "identity", "generator", "mul",
    "eval_word", "is_trivial", "ball",
    # approximations
    "ApproxSpec", "VerifyReport", "PolyConditionResult", "HeisFixedReport",
    "make_approx", "eval_spec", "amplify_spec", "verify",
    "check_poly_condition", "heis_fixed_bound", "to_fraction",
    # conjugation search
    "ConjProblem", "SearchReport", "AlignmentReport",
    "translation_problem", "multiplication_problem", "problem_from_spec",
    "agreement", "exact_multiplicative", "exact_search", "brute_force",
    "local_search", "psi_f_eval", "higman_defect", "align",
    # finite actions
    "HigPresentation", "ActionTable", "RelationReport",
    "hig_presentation", "mubar", "make_action", "verify_action",
    "injectivity_probe", "random_tables",
    # counting estimates
    "HeuristicReport", "heuristic_report",
]
