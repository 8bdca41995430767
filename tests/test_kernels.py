"""Both enumeration backends must agree everywhere they can run, on the
word lists and on the commutation classes, and the one reduced-word counter
must agree with independent oracles.

The compiled backend is built afresh by the ``built_package`` fixture in
``conftest.py``; its tests skip only when no C compiler is available.
"""

import importlib
import itertools
import pathlib
import random
import shutil
import sys
import types
from math import comb

import pytest
from conftest import run_package

import redword
import redword._pure as pure_backend
import redword.kernels as kernels
from redword.cli import run
from redword.kernels import reduced_word_count
from redword.perm import Permutation, all_permutations

# the cycle 2,3,...,1100,1: one reduced word of 1099 letters, deeper than
# Python's default recursion limit
LONG_CYCLE = (*range(2, 1101), 1)


@pytest.fixture(params=["pure", "compiled"])
def backend(request):
    if request.param == "pure":
        return pure_backend
    return request.getfixturevalue("compiled_backend")


def test_reduced_words_small_cases(backend):
    assert backend.reduced_word_list((3, 2, 1)) == [(1, 2, 1), (2, 1, 2)]
    assert backend.reduced_word_list((2, 1, 4, 3)) == [(1, 3), (3, 1)]
    assert backend.reduced_word_list((1, 2, 3)) == [()]
    assert backend.reduced_word_list((1,)) == [()]
    assert len(backend.reduced_word_list((4, 3, 2, 1))) == 16


def test_reduced_words_sorted_and_distinct(backend):
    for p in all_permutations(4):
        words = backend.reduced_word_list(p.entries)
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
            words = backend.reduced_word_list(p.entries)
            assert reduced_word_count(p.entries) == len(words)


def test_count_longest_elements(backend):
    assert reduced_word_count((4, 3, 2, 1)) == 16
    assert reduced_word_count((5, 4, 3, 2, 1)) == 768
    assert reduced_word_count((6, 5, 4, 3, 2, 1)) == 292864
    assert reduced_word_count((1, 2, 3, 4, 5)) == 1
    # each backend enumerates exactly as many words as the one count gives
    for entries in ((4, 3, 2, 1), (5, 4, 3, 2, 1), (1, 2, 3, 4, 5)):
        words = backend.reduced_word_list(entries)
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


def test_count_limit(monkeypatch):
    for n in range(1, 7):
        for p in all_permutations(n):
            count = reduced_word_count(p.entries)
            for limit in (0, count - 1, count, count + 1):
                got = reduced_word_count(p.entries, limit)
                if count <= limit:
                    assert got == count
                else:
                    assert limit < got <= count
    # the exact counts of these take about a minute each, over some 10^5
    # tree nodes; past the limit the walk stops at its first leaf, about
    # 60 transitions down
    transitions = pure_backend._transitions
    walked = []

    def one_path(w):
        walked.append(w)
        assert len(walked) <= 1000, "the count walked on past the limit"
        return transitions(w)

    monkeypatch.setattr(pure_backend, "_transitions", one_path)
    rng = random.Random(20)
    for _ in range(3):
        walked.clear()
        entries = tuple(rng.sample(range(1, 21), 20))
        assert reduced_word_count(entries, 10**7) > 10**7


def test_singleton_words_small_cases(backend):
    assert backend.singleton_word_list((3, 2, 1)) == [(1, 2, 1), (2, 1, 2)]
    assert backend.singleton_word_list((2, 1, 4, 3)) == []
    assert backend.singleton_word_list((1, 2, 3, 4)) == [()]
    words = backend.singleton_word_list((7, 2, 6, 5, 4, 1, 3))
    assert len(words) == 4


def test_singleton_words_match_filtered_enumeration(backend):
    for n in range(1, 6):
        for p in all_permutations(n):
            full = backend.reduced_word_list(p.entries)
            filtered = [
                w
                for w in full
                if all(abs(a - b) == 1 for a, b in zip(w, w[1:]))
            ]
            assert backend.singleton_word_list(p.entries) == filtered


def test_long_words_need_no_recursion(backend):
    word = tuple(range(1, 1100))
    assert backend.reduced_word_list(LONG_CYCLE) == [word]
    assert backend.singleton_word_list(LONG_CYCLE) == [word]


def test_commutation_classes_small_cases(backend):
    assert backend.commutation_classes((2, 1, 4, 3)) == [[(1, 3), (3, 1)]]
    assert backend.commutation_classes((1, 2, 3)) == [[()]]
    assert backend.commutation_classes(()) == [[()]]
    assert backend.commutation_classes((3, 2, 1)) == [[(1, 2, 1)], [(2, 1, 2)]]
    # one word of 1099 letters: no recursion, no quadratic blow-up
    assert backend.commutation_classes(LONG_CYCLE) == [[tuple(range(1, 1100))]]
    # letters far above 9 and above 255 group like small ones
    entries = list(range(1, 301))
    entries[0:2] = [2, 1]
    entries[298:300] = [300, 299]
    assert backend.commutation_classes(tuple(entries)) == [[(1, 299), (299, 1)]]
    for bad in ((1, 1, 2), (0, 1), (3, 1), (2, 3)):
        with pytest.raises(ValueError, match="not a permutation"):
            backend.commutation_classes(bad)


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
                    entries
                ) == compiled.reduced_word_list(entries)
            if n <= 5:
                assert pure_backend.commutation_classes(
                    entries
                ) == compiled.commutation_classes(entries)
    # the largest partition of S_7 with at most 8000 words: 7887 in 26
    top7 = (2, 7, 6, 1, 5, 3, 4)
    assert compiled.commutation_classes(
        top7
    ) == pure_backend.commutation_classes(top7)

    # degree 17, past the exhaustive checks above
    s1s2s1 = (3, 2, 1, *range(4, 18))
    for backend in (pure_backend, compiled):
        assert backend.reduced_word_list(s1s2s1) == [(1, 2, 1), (2, 1, 2)]
        assert backend.singleton_word_list(s1s2s1) == [(1, 2, 1), (2, 1, 2)]
    top = (*range(1, 13), 17, 16, 15, 14, 13)
    assert compiled.reduced_word_list(top) == pure_backend.reduced_word_list(top)
    assert compiled.singleton_word_list(top) == pure_backend.singleton_word_list(top)

    for bad in ((1, 1, 2), (0, 1), (3, 1), (2, 3)):
        for backend in (pure_backend, compiled):
            with pytest.raises(ValueError, match="not a permutation"):
                backend.reduced_word_list(bad)
            with pytest.raises(ValueError, match="not a permutation"):
                backend.singleton_word_list(bad)
    assert not hasattr(compiled, "reduced_word_count")


def test_backend_is_pure_without_the_extension(tmp_path, capsys):
    shutil.copytree(
        pathlib.Path(__file__).resolve().parent.parent / "src" / "redword",
        tmp_path / "redword",
        ignore=shutil.ignore_patterns("__pycache__", "*.so", "*.pyd"),
    )
    run(["reduced-words", "4321"])
    expected = capsys.readouterr().out
    assert len(expected.split()) == 16
    assert run_package(tmp_path, ["reduced-words", "4321"]) == ("pure", expected)


def test_default_backend_is_compiled_when_built(built_package, capsys):
    run(["reduced-words", "4321"])
    expected = capsys.readouterr().out
    got = run_package(built_package, ["reduced-words", "4321"])
    assert got == ("compiled", expected)


def test_speedups_without_the_kernels_falls_back_to_pure(monkeypatch):
    # a zipped egg's bootstrap can leave a redword._speedups module object
    # that lacks the kernels; the package must then select _pure, not fail
    stub = types.ModuleType("redword._speedups")
    try:
        with monkeypatch.context() as patch:
            patch.setitem(sys.modules, "redword._speedups", stub)
            patch.setattr(redword, "_speedups", stub, raising=False)
            importlib.reload(kernels)
            assert kernels.BACKEND == "pure"
            assert kernels.reduced_word_list is pure_backend.reduced_word_list
            assert kernels.singleton_word_list is pure_backend.singleton_word_list
            assert kernels.commutation_classes is pure_backend.commutation_classes
    finally:
        importlib.reload(kernels)
