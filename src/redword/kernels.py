"""
Backend selection for the enumeration kernels.

The two word lists and the commutation classes have two implementations
with the same contracts: the compiled ``_speedups`` module, built by
``setup.py`` from the hand-written C file ``_speedups.c``, is used whenever
its extension built, and the pure-Python ``_pure`` module otherwise.  The
three compiled kernels are one depth-first search under three rules for the
next letter; under the third the leaves are the lexicographic normal forms,
each expanded into its class.  The pure classes twin groups the word list
by the projection lemma.  The count has one implementation,
``_pure.reduced_word_count``, which enumerates nothing, so it serves both
backends.
"""

from __future__ import annotations

from redword import _pure

# imported by name, so a ``_speedups`` that lacks a kernel (an extension
# loaded into a separate module object, as a zipped egg's bootstrap does)
# raises ImportError here and the package falls back to ``_pure``
try:
    from redword._speedups import (
        commutation_classes,
        reduced_word_list,
        singleton_word_list,
    )

    BACKEND: str = "compiled"
except ImportError:
    from redword._pure import (
        commutation_classes,
        reduced_word_list,
        singleton_word_list,
    )

    BACKEND = "pure"

reduced_word_count = _pure.reduced_word_count
