"""Both enumeration backends must agree everywhere they can run, and the
one reduced-word counter must agree with independent oracles.

The compiled backend is built afresh by the ``built_package`` fixture in
``conftest.py``; its tests skip only when no C compiler is available.
"""

import itertools
import os
import random
import subprocess
import sys
from math import comb

import pytest

import redword._pure as pure_backend
from redword.errors import EnumerationCapExceeded
from redword.kernels import reduced_word_count
from redword.perm import Permutation, all_permutations

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


def level_walk_count(entries):
    """Reduced words counted by walking the lower weak-order interval one
    length at a time: each level maps the position arrays one letter
    further down to their numbers of paths from the start, and the walk
    ends at the identity.  An oracle that shares no logic with the count
    under test, exact but exponential in the degree."""
    start = [0] * len(entries)
    for pos, value in enumerate(entries):
        start[value - 1] = pos
    level = {tuple(start): 1}
    while True:
        below = {}
        for r, ways in level.items():
            s = list(r)
            for i in range(1, len(s)):
                a, b = s[i - 1], s[i]
                if a > b:
                    s[i - 1], s[i] = b, a
                    child = tuple(s)
                    s[i - 1], s[i] = a, b
                    below[child] = below.get(child, 0) + ways
        if not below:
            (count,) = level.values()
            return count
        level = below


def test_count_agrees_with_list(backend):
    for n in range(1, 6):
        for p in all_permutations(n):
            words = backend.reduced_word_list(p.entries, BIG)
            assert reduced_word_count(p.entries) == len(words)


def test_count_longest_elements(backend):
    assert reduced_word_count((4, 3, 2, 1)) == 16
    assert reduced_word_count((5, 4, 3, 2, 1)) == 768
    assert reduced_word_count((6, 5, 4, 3, 2, 1)) == 292864
    assert reduced_word_count((1, 2, 3, 4, 5)) == 1
    # each backend enumerates exactly as many words as the one count gives
    for entries in ((4, 3, 2, 1), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5)):
        words = backend.reduced_word_list(entries, BIG)
        assert len(words) == reduced_word_count(entries)


def test_count_matches_level_walk():
    for n in range(1, 8):
        for p in itertools.permutations(range(1, n + 1)):
            assert reduced_word_count(p) == level_walk_count(p)
    s8 = list(itertools.permutations(range(1, 9)))
    for p in random.Random(8).sample(s8, 2000):
        assert reduced_word_count(p) == level_walk_count(p)


def test_count_of_direct_sums():
    # the reduced words of u (+) v, v shifted past u, are the shuffles of
    # those of u with those of v; with blocks up to degree 8 this reaches
    # non-vexillary inputs of degree up to 16, past the oracle's reach
    rng = random.Random(16)
    for _ in range(40):
        degrees = rng.choices(range(1, 9), k=2)
        u, v = (rng.sample(range(1, n + 1), n) for n in degrees)
        lu, lv = Permutation(tuple(u)).length(), Permutation(tuple(v)).length()
        expected = comb(lu + lv, lu) * level_walk_count(u) * level_walk_count(v)
        assert reduced_word_count((*u, *(x + len(u) for x in v))) == expected


def test_count_edge_cases():
    assert reduced_word_count(()) == 1
    assert reduced_word_count(LONG_CYCLE) == 1
    # fixed points on either side of a block leave its count alone
    assert reduced_word_count((3, 2, 1, *range(4, 18))) == 2
    assert reduced_word_count((*range(1, 13), 17, 16, 15, 14, 13)) == 768
    for bad in ((1, 1, 2), (0, 1), (3, 1), (2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            reduced_word_count(bad)


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
    assert backend.singleton_word_list(LONG_CYCLE) == [word]


def test_backends_agree(compiled_backend):
    compiled = compiled_backend
    for n in range(1, 8):
        for p in all_permutations(n):
            entries = p.entries
            assert pure_backend.singleton_word_list(
                entries
            ) == compiled.singleton_word_list(entries)
            if n <= 6:
                assert pure_backend.reduced_word_list(
                    entries, BIG
                ) == compiled.reduced_word_list(entries, BIG)

    # degree 17, past the exhaustive checks above
    s1s2s1 = (3, 2, 1, *range(4, 18))
    for backend in (pure_backend, compiled):
        assert backend.reduced_word_list(s1s2s1, BIG) == [(1, 2, 1), (2, 1, 2)]
        assert backend.singleton_word_list(s1s2s1) == [(1, 2, 1), (2, 1, 2)]
    top = (*range(1, 13), 17, 16, 15, 14, 13)
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
                backend.singleton_word_list(bad)
    assert not hasattr(compiled, "reduced_word_count")


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
