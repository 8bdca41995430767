"""
redword: reduced words of permutations, their commutation classes, and the
words that are commutation classes of their own.
"""

from redword.classes import (
    DEFAULT_MAX_WORDS,
    ClassPartition,
    CommutationClass,
    braid_neighbors,
    class_partition,
    commutation_class,
    commutation_neighbors,
    count_reduced_words,
    enumerate_reduced_words,
    is_connected_under_all_moves,
)
from redword.errors import EnumerationCapExceeded, SweepBoundExceeded
from redword.kernels import BACKEND as KERNEL_BACKEND
from redword.perm import Permutation, all_permutations, identity, longest_element
from redword.singleton import (
    SINGLETON_SWEEP_BOUND,
    RepeatedExtremeCase,
    SearchResult,
    TheoremReport,
    VerificationReport,
    Violation,
    ZigzagCheck,
    ZigzagSweepReport,
    check_repeated_pinnacle_lemma,
    check_theorem_properties,
    check_zigzag_lemma,
    increasing_run_violations,
    long_element_class,
    long_element_singleton,
    search_by_class_count,
    singleton_words,
    verify_theorem_sweep,
    verify_zigzag_sweep,
)
from redword.words import (
    PinnacleValeProfile,
    Word,
    conjugate_by_longest,
    is_vee,
    is_wedge,
    pinnacle_vale,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_MAX_WORDS",
    "SINGLETON_SWEEP_BOUND",
    "KERNEL_BACKEND",
    "ClassPartition",
    "CommutationClass",
    "EnumerationCapExceeded",
    "Permutation",
    "PinnacleValeProfile",
    "RepeatedExtremeCase",
    "SearchResult",
    "SweepBoundExceeded",
    "TheoremReport",
    "VerificationReport",
    "Violation",
    "Word",
    "ZigzagCheck",
    "ZigzagSweepReport",
    "all_permutations",
    "braid_neighbors",
    "check_repeated_pinnacle_lemma",
    "check_theorem_properties",
    "check_zigzag_lemma",
    "class_partition",
    "commutation_class",
    "commutation_neighbors",
    "conjugate_by_longest",
    "count_reduced_words",
    "enumerate_reduced_words",
    "identity",
    "increasing_run_violations",
    "is_connected_under_all_moves",
    "is_vee",
    "is_wedge",
    "long_element_class",
    "long_element_singleton",
    "longest_element",
    "pinnacle_vale",
    "search_by_class_count",
    "singleton_words",
    "verify_theorem_sweep",
    "verify_zigzag_sweep",
    "__version__",
]
