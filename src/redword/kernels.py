"""
Backend selection for the enumeration kernels.

The word lists have two implementations with the same contracts: the
compiled ``_speedups`` module, built by ``setup.py`` from the hand-written C
file ``_speedups.c``, is used whenever its extension built, and the
pure-Python ``_pure`` module otherwise.  The count has one implementation,
``_pure.reduced_word_count``, which enumerates nothing, so it serves both
backends.
"""

from __future__ import annotations

from redword import _pure

try:
    from redword import _speedups as _impl
except ImportError:
    _impl = _pure  # type: ignore[assignment]

BACKEND: str = "compiled" if _impl.__name__.endswith("_speedups") else "pure"

reduced_word_list = _impl.reduced_word_list
reduced_word_count = _pure.reduced_word_count
singleton_word_list = _impl.singleton_word_list
