"""
Backend selection for the enumeration kernels.

The word lists have two implementations with the same contracts: the
compiled ``_speedups`` module, built by ``setup.py`` from the hand-written C
file ``_speedups.c``, is used when its extension built, and the pure-Python
``_pure`` module is the fallback.  Setting the environment variable
REDWORD_NO_SPEEDUPS to a non-empty value forces the fallback.  The count has
one implementation, ``_pure.reduced_word_count``, which enumerates nothing,
so it serves both backends.
"""

from __future__ import annotations

import os

from redword import _pure

if os.environ.get("REDWORD_NO_SPEEDUPS"):
    _impl = _pure
else:
    try:
        from redword import _speedups as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _pure

BACKEND: str = "compiled" if _impl.__name__.endswith("_speedups") else "pure"

reduced_word_list = _impl.reduced_word_list
reduced_word_count = _pure.reduced_word_count
singleton_word_list = _impl.singleton_word_list
