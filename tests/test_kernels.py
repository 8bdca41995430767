"""Both enumeration backends must agree everywhere they can run.

The compiled backend is built afresh by the ``built_package`` fixture in
``conftest.py``; its tests skip only when no C compiler is available.
"""

import os
import subprocess
import sys

import pytest

import redword._pure as pure_backend
from redword.errors import EnumerationCapExceeded
from redword.perm import all_permutations, longest_element
from test_classes import staircase_tableaux_count

BIG = 10**9
# the cycle 2,3,...,1100,1: one reduced word of 1099 letters, deeper than
# Python's default recursion limit
LONG_CYCLE = (*range(2, 1101), 1)


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    if request.param == "pure":
        return pure_backend
    return request.getfixturevalue("compiled_backend")


def test_reduced_words_small_cases(backend):
    assert backend.reduced_word_list((3, 2, 1), BIG) == [(1, 2, 1), (2, 1, 2)]
    assert backend.reduced_word_list((2, 1, 4, 3), BIG) == [(1, 3), (3, 1)]
    assert backend.reduced_word_list((1, 2, 3), BIG) == [()]
    assert backend.reduced_word_list((1,), BIG) == [()]
    assert len(backend.reduced_word_list((4, 3, 2, 1), BIG)) == 16


def test_reduced_words_sorted_and_distinct(backend):
    for p in all_permutations(4):
        words = backend.reduced_word_list(p.entries, BIG)
        assert words == sorted(words)
        assert len(words) == len(set(words))


def test_count_agrees_with_list(backend):
    for n in range(1, 6):
        for p in all_permutations(n):
            words = backend.reduced_word_list(p.entries, BIG)
            assert backend.reduced_word_count(p.entries) == len(words)


def test_count_longest_elements(backend):
    assert backend.reduced_word_count((4, 3, 2, 1)) == 16
    assert backend.reduced_word_count((5, 4, 3, 2, 1)) == 768
    assert backend.reduced_word_count((6, 5, 4, 3, 2, 1)) == 292864
    assert backend.reduced_word_count((1, 2, 3, 4, 5)) == 1


def test_cap_is_enforced(backend):
    with pytest.raises(EnumerationCapExceeded) as info:
        backend.reduced_word_list((4, 3, 2, 1), 5)
    assert info.value.cap == 5
    assert info.value.partial_count == 5
    # exactly at the cap is fine
    assert len(backend.reduced_word_list((4, 3, 2, 1), 16)) == 16


def test_singleton_words_small_cases(backend):
    assert backend.singleton_word_list((3, 2, 1)) == [(1, 2, 1), (2, 1, 2)]
    assert backend.singleton_word_list((2, 1, 4, 3)) == []
    assert backend.singleton_word_list((1, 2, 3, 4)) == [()]
    words = backend.singleton_word_list((7, 2, 6, 5, 4, 1, 3))
    assert len(words) == 4


def test_singleton_words_match_filtered_enumeration(backend):
    for n in range(1, 6):
        for p in all_permutations(n):
            full = backend.reduced_word_list(p.entries, BIG)
            filtered = [
                w
                for w in full
                if all(abs(a - b) == 1 for a, b in zip(w, w[1:]))
            ]
            assert backend.singleton_word_list(p.entries) == filtered


def test_long_words_need_no_recursion(backend):
    word = tuple(range(1, 1100))
    assert backend.reduced_word_list(LONG_CYCLE, BIG) == [word]
    assert backend.reduced_word_count(LONG_CYCLE) == 1
    assert backend.singleton_word_list(LONG_CYCLE) == [word]


def test_backends_agree(compiled_backend):
    compiled = compiled_backend
    for n in range(1, 8):
        for p in all_permutations(n):
            entries = p.entries
            assert pure_backend.reduced_word_count(
                entries
            ) == compiled.reduced_word_count(entries)
            assert pure_backend.singleton_word_list(
                entries
            ) == compiled.singleton_word_list(entries)
            if n <= 6:
                assert pure_backend.reduced_word_list(
                    entries, BIG
                ) == compiled.reduced_word_list(entries, BIG)

    # degree 9 is the first whose count passes 2**64
    for n in (8, 9, 10):
        w0 = longest_element(n).entries
        assert compiled.reduced_word_count(w0) == staircase_tableaux_count(n)
    assert staircase_tableaux_count(9) > 2**64
    w0 = longest_element(8).entries
    assert pure_backend.reduced_word_count(w0) == staircase_tableaux_count(8)

    # past degree 16 the packed counter hands over to the pure one
    s1s2s1 = (3, 2, 1, *range(4, 18))
    for backend in (pure_backend, compiled):
        assert backend.reduced_word_count(s1s2s1) == 2
        assert backend.reduced_word_list(s1s2s1, BIG) == [(1, 2, 1), (2, 1, 2)]
        assert backend.singleton_word_list(s1s2s1) == [(1, 2, 1), (2, 1, 2)]
    top = (*range(1, 13), 17, 16, 15, 14, 13)
    assert compiled.reduced_word_count(top) == 768
    assert compiled.reduced_word_list(top, BIG) == pure_backend.reduced_word_list(
        top, BIG
    )
    assert compiled.singleton_word_list(top) == pure_backend.singleton_word_list(top)

    # the cap: a list of exactly cap words is returned, one more raises
    for entries in ((4, 3, 2, 1), (2, 4, 1, 5, 3), (1, 2, 3)):
        words = pure_backend.reduced_word_list(entries, BIG)
        cap = len(words)
        assert compiled.reduced_word_list(entries, cap) == words
        for backend in (pure_backend, compiled):
            with pytest.raises(EnumerationCapExceeded) as info:
                backend.reduced_word_list(entries, cap - 1)
            assert (info.value.cap, info.value.partial_count) == (cap - 1, cap - 1)

    for bad in ((1, 1, 2), (0, 1), (3, 1), (2, 3)):
        for backend in (pure_backend, compiled):
            with pytest.raises(ValueError, match="not a permutation"):
                backend.reduced_word_list(bad, BIG)
            with pytest.raises(ValueError, match="not a permutation"):
                backend.reduced_word_count(bad)
            with pytest.raises(ValueError, match="not a permutation"):
                backend.singleton_word_list(bad)


def test_env_var_forces_pure_backend():
    probe = "import redword.kernels as k; print(k.BACKEND)"
    env = dict(os.environ, REDWORD_NO_SPEEDUPS="1")
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "pure"


def test_default_backend_is_compiled_when_built(built_package):
    env = {k: v for k, v in os.environ.items() if k != "REDWORD_NO_SPEEDUPS"}
    env["PYTHONPATH"] = str(built_package)
    probe = "import redword.kernels as k; print(k.BACKEND)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True
    )
    assert out.stdout.strip() == "compiled"
