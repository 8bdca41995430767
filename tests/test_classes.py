"""Reduced-word enumeration and the commutation-class quotient."""

import itertools
from math import factorial

import pytest

from redword import kernels
from redword.classes import (
    braid_neighbors,
    class_partition,
    commutation_class,
    commutation_neighbors,
    count_reduced_words,
    enumerate_reduced_words,
    is_connected_under_all_moves,
)
from redword.cli import run
from redword.errors import EnumerationCapExceeded
from redword.perm import Permutation, all_permutations, identity, longest_element
from redword.words import Word


def brute_force_reduced_words(entries):
    # independent oracle: try every letter string of the minimal length
    n = len(entries)
    length = sum(
        1 for a in range(n) for b in range(a + 1, n) if entries[a] > entries[b]
    )
    found = []
    for letters in itertools.product(range(1, n), repeat=length):
        state = list(range(1, n + 1))
        for i in letters:
            state[i - 1], state[i] = state[i], state[i - 1]
        if tuple(state) == tuple(entries):
            found.append(letters)
    return found


def staircase_tableaux_count(n):
    # hook length formula on the staircase shape (n-1, n-2, ..., 1)
    shape = list(range(n - 1, 0, -1))
    total = factorial(sum(shape))
    for r, row_len in enumerate(shape):
        for c in range(row_len):
            arm = row_len - c - 1
            leg = sum(1 for rr in range(r + 1, len(shape)) if shape[rr] > c)
            total //= arm + leg + 1
    return total


def test_enumeration_matches_brute_force():
    for entries in ((3, 2, 1), (2, 1, 4, 3), (4, 3, 2, 1), (2, 3, 4, 1)):
        p = Permutation(entries)
        words = [w.letters for w in enumerate_reduced_words(p)]
        assert sorted(words) == sorted(brute_force_reduced_words(entries))


def test_enumeration_is_lexicographic_and_reduced():
    for n in range(1, 6):
        for p in all_permutations(n):
            words = list(enumerate_reduced_words(p))
            letters = [w.letters for w in words]
            assert letters == sorted(letters)
            assert len(set(letters)) == len(letters)
            for w in words:
                assert w.is_reduced()
                assert w.evaluate() == p
                assert len(w.letters) == p.length()
            assert count_reduced_words(p) == len(words)


def test_counts_match_staircase_tableaux_oracle():
    assert staircase_tableaux_count(4) == 16
    assert staircase_tableaux_count(5) == 768
    for n in range(2, 31):
        assert count_reduced_words(longest_element(n)) == staircase_tableaux_count(n)


def test_enumeration_cap():
    with pytest.raises(EnumerationCapExceeded) as info:
        list(enumerate_reduced_words(longest_element(4), max_words=3))
    assert info.value.cap == 3
    with pytest.raises(EnumerationCapExceeded):
        class_partition(longest_element(4), max_words=15)
    # a cap of exactly the word count is met, one less is exceeded
    for entries in ((4, 3, 2, 1), (2, 4, 1, 5, 3), (1, 2, 3)):
        p = Permutation(entries)
        count = len(brute_force_reduced_words(entries))
        assert len(list(enumerate_reduced_words(p, count))) == count
        assert class_partition(p, count).total_words == count
        assert is_connected_under_all_moves(p, count)
        with pytest.raises(EnumerationCapExceeded):
            list(enumerate_reduced_words(p, count - 1))
        with pytest.raises(EnumerationCapExceeded):
            class_partition(p, count - 1)
        with pytest.raises(EnumerationCapExceeded):
            is_connected_under_all_moves(p, count - 1)


def test_cap_is_settled_before_any_word_is_built(monkeypatch, capsys):
    def no_list(*args):
        raise AssertionError("a word list was built past the cap")

    monkeypatch.setattr(kernels, "reduced_word_list", no_list)
    w0 = longest_element(7)
    with pytest.raises(EnumerationCapExceeded):
        list(enumerate_reduced_words(w0))
    with pytest.raises(EnumerationCapExceeded):
        class_partition(w0)
    with pytest.raises(EnumerationCapExceeded):
        is_connected_under_all_moves(w0)
    assert run(["reduced-words", "7654321"]) == 3
    assert capsys.readouterr().out == ""


def test_commutation_neighbors():
    assert [w.letters for w in commutation_neighbors(Word((1, 3), 4))] == [(3, 1)]
    assert commutation_neighbors(Word((1, 2, 3, 2, 1, 2), 4)) == []
    assert [w.letters for w in commutation_neighbors(Word((1, 3, 2, 3), 4))] == [
        (3, 1, 2, 3)
    ]
    with pytest.raises(ValueError, match="not reduced"):
        commutation_neighbors(Word((1, 1), 3))


def test_braid_neighbors():
    assert [w.letters for w in braid_neighbors(Word((1, 2, 1), 3))] == [(2, 1, 2)]
    assert braid_neighbors(Word((1, 3), 4)) == []
    results = {w.letters for w in braid_neighbors(Word((1, 2, 3, 2, 1, 2), 4))}
    assert (1, 2, 3, 1, 2, 1) in results
    with pytest.raises(ValueError, match="not reduced"):
        braid_neighbors(Word((2, 2), 3))


def test_neighbor_relations_are_symmetric():
    for p in all_permutations(4):
        for w in enumerate_reduced_words(p):
            for u in commutation_neighbors(w):
                assert w in commutation_neighbors(u)
                assert u.evaluate() == p
                assert sorted(u.letters) == sorted(w.letters)
            for u in braid_neighbors(w):
                assert w in braid_neighbors(u)
                assert u.evaluate() == p


def test_commutation_class_closure():
    cls = commutation_class(Word((1, 3), 4))
    assert {w.letters for w in cls.members} == {(1, 3), (3, 1)}
    assert cls.representative.letters == (1, 3)
    assert cls.permutation == Permutation((2, 1, 4, 3))
    assert len(commutation_class(Word((1, 2, 3, 2, 1, 2), 4))) == 1
    assert len(commutation_class(Word((1, 2, 1), 3))) == 1
    with pytest.raises(ValueError, match="not reduced"):
        commutation_class(Word((1, 2, 1, 2), 3))


def test_class_members_share_letter_multisets():
    probes = list(all_permutations(4)) + [longest_element(5)]
    for p in probes:
        for cls in class_partition(p).classes:
            reference = sorted(cls.representative.letters)
            for member in cls.members:
                assert sorted(member.letters) == reference


def test_class_partition_examples():
    partition = class_partition(Permutation((3, 2, 1)))
    assert len(partition.classes) == 2
    assert all(len(c) == 1 for c in partition.classes)

    partition = class_partition(Permutation((2, 1, 4, 3)))
    assert len(partition.classes) == 1
    assert len(partition.classes[0]) == 2

    partition = class_partition(longest_element(4))
    assert len(partition.classes) == 8
    assert partition.total_words == 16

    partition = class_partition(identity(4))
    assert len(partition.classes) == 1
    assert partition.classes[0].representative == Word((), 4)

    # letters far above 9 and above 255 group like small ones
    entries = list(range(1, 301))
    entries[0:2] = [2, 1]
    entries[298:300] = [300, 299]
    partition = class_partition(Permutation(tuple(entries)))
    assert len(partition.classes) == 1
    assert {w.letters for w in partition.classes[0].members} == {(1, 299), (299, 1)}


def small_permutations():
    for n in range(1, 6):
        yield from all_permutations(n)


def test_class_partition_is_a_partition():
    for p in small_permutations():
        partition = class_partition(p)
        seen = set()
        for cls in partition.classes:
            assert all(a < b for a, b in zip(cls.words, cls.words[1:]))
            assert list(cls.words) == sorted(w.letters for w in cls.members)
            assert cls.representative == min(cls.members)
            assert not (seen & cls.members)
            seen |= cls.members
        assert len(seen) == partition.total_words == count_reduced_words(p)
        reps = [c.representative for c in partition.classes]
        assert reps == sorted(reps)


def test_singleton_classes_have_no_commutation_move():
    for p in all_permutations(4):
        for cls in class_partition(p).classes:
            is_single = len(cls) == 1
            no_move = not cls.representative.supports_commutation_move()
            assert is_single == no_move


def test_classes_are_components_of_the_move_graph():
    # the breadth-first closure is independent of the heap-key grouping
    for p in small_permutations():
        for cls in class_partition(p).classes:
            assert commutation_class(cls.representative).members == cls.members


def test_compiled_classes_are_components_of_the_move_graph(compiled_backend):
    # the package under test imports from src/, which holds no built
    # extension, so class_partition runs the pure twin; the compiled
    # classes are checked against the breadth-first closure here
    for p in small_permutations():
        classes = compiled_backend.commutation_classes(p.entries)
        for cls in classes:
            assert cls == list(commutation_class(Word(cls[0], p.degree)).words)
        assert sum(map(len, classes)) == count_reduced_words(p)
        reps = [cls[0] for cls in classes]
        assert reps == sorted(reps)


def test_compiled_classes_of_the_longest_element_of_degree_6(compiled_backend):
    classes = compiled_backend.commutation_classes((6, 5, 4, 3, 2, 1))
    assert len(classes) == 908  # A006245
    assert sum(map(len, classes)) == 292864 == staircase_tableaux_count(6)


def test_longest_element_class_counts_match_a006245():
    # OEIS A006245: commutation classes of reduced words of the longest
    # element, i.e. rhombic tilings of a 2n-gon
    for n, expected in ((1, 1), (2, 1), (3, 2), (4, 8), (5, 62)):
        assert len(class_partition(longest_element(n)).classes) == expected


def test_connectivity_under_both_moves():
    for n in range(1, 5):
        for p in all_permutations(n):
            assert is_connected_under_all_moves(p)
    assert is_connected_under_all_moves(identity(4))


def test_total_word_count_small_degrees():
    # sum of |R(w)| over S_n, a second global consistency check:
    # identity and each length-1 or length-2 element of S_3 have one word,
    # the order reversal has two
    for n, expected in ((1, 1), (2, 2), (3, 7)):
        total = sum(count_reduced_words(p) for p in all_permutations(n))
        assert total == expected
