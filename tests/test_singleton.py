"""Singleton commutation classes and their structural laws."""

import pytest

from redword.classes import class_partition, enumerate_reduced_words
from redword.errors import SweepBoundExceeded
from redword.perm import Permutation, all_permutations, identity, longest_element
from redword.singleton import (
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
from redword.words import Word, conjugate_by_longest, pinnacle_vale

S7_EXAMPLE = Permutation((7, 2, 6, 5, 4, 1, 3))
S7_WORDS = {
    "4345654321234543",
    "3456543212345434",
    "5434565432123454",
    "4543456543212345",
}


def test_s7_example_words():
    words = singleton_words(S7_EXAMPLE)
    assert {w.to_text() for w in words} == S7_WORDS
    assert len(words) == 4
    for w in words:
        assert w.is_reduced()
        assert w.evaluate() == S7_EXAMPLE
        assert not w.supports_commutation_move()


def test_small_cases():
    assert singleton_words(Permutation((2, 1, 4, 3))) == []
    assert [w.to_text() for w in singleton_words(Permutation((3, 2, 1)))] == [
        "121",
        "212",
    ]
    assert singleton_words(identity(4)) == [Word((), 4)]
    assert singleton_words(identity(1)) == [Word((), 1)]


def test_membership_criterion():
    # singleton words are exactly the reduced words with all adjacent
    # letter differences equal to 1
    for n in range(1, 6):
        for p in all_permutations(n):
            filtered = [
                w
                for w in enumerate_reduced_words(p)
                if all(abs(a - b) == 1 for a, b in zip(w.letters, w.letters[1:]))
            ]
            assert singleton_words(p) == filtered


def test_quotient_oracle_equivalence():
    for n in range(1, 6):
        for p in all_permutations(n):
            reps = class_partition(p).singleton_representatives()
            assert reps == singleton_words(p)


def test_closure_under_symmetry():
    for n in range(2, 6):
        for p in all_permutations(n):
            words = set(singleton_words(p))
            reversed_words = set(singleton_words(p.inverse()))
            complemented = set(singleton_words(conjugate_by_longest(p)))
            assert {w.reverse() for w in words} == reversed_words
            assert {w.complement() for w in words} == complemented


def test_long_element_singleton_construction():
    assert long_element_singleton(2).to_text() == "1"
    assert long_element_singleton(3).to_text() == "121"
    assert long_element_singleton(4).to_text() == "123212"
    assert long_element_singleton(5).to_text() == "1234321232"
    for n in range(2, 9):
        word = long_element_singleton(n)
        assert len(word.letters) == n * (n - 1) // 2
        assert word.evaluate() == longest_element(n)
        assert not word.supports_commutation_move()
    with pytest.raises(ValueError):
        long_element_singleton(1)


def test_long_element_class_sizes():
    assert {w.to_text() for w in long_element_class(2)} == {"1"}
    assert {w.to_text() for w in long_element_class(3)} == {"121", "212"}
    assert {w.to_text() for w in long_element_class(4)} == {
        "123212",
        "212321",
        "232123",
        "321232",
    }
    for n in range(4, 9):
        assert len(long_element_class(n)) == 4


def test_long_element_class_is_the_full_singleton_set():
    for n in range(2, 8):
        expected = sorted(long_element_class(n))
        assert singleton_words(longest_element(n)) == expected


def test_theorem_properties_on_the_s7_word():
    w = Word.from_text("4345654321234543", 7)
    profile = pinnacle_vale(w.letters)
    assert profile.pinnacle_values == (4, 6, 5)
    assert profile.vale_values == (3, 1, 3)
    assert profile.pv_values == (4, 3, 6, 1, 5, 3)
    report = check_theorem_properties(w)
    assert report.all_pass
    assert report.pinnacles_form_wedge
    assert report.vales_form_vee
    assert report.has_strict_side
    assert report.extremes_adjacent
    assert report.repeats_touch_endpoint


def test_theorem_properties_small_words():
    assert check_theorem_properties(Word((1, 2, 3, 2, 1, 2), 4)).all_pass
    assert check_theorem_properties(Word((1,), 2)).all_pass
    assert check_theorem_properties(Word((1, 2), 3)).all_pass
    with pytest.raises(ValueError, match="empty"):
        check_theorem_properties(Word((), 3))


def test_theorem_property_failures_are_detectable():
    # not from any singleton word: the checker runs on arbitrary strings
    report = check_theorem_properties(Word((2, 1, 3, 1, 2, 1, 4), 5))
    assert not report.all_pass


def test_increasing_run_law():
    assert increasing_run_violations(Word((1, 3), 4)) != []
    assert increasing_run_violations(Word((1, 2, 3, 2, 1, 2), 4)) == []
    assert increasing_run_violations(Word((), 4)) == []
    for p in all_permutations(5):
        for w in singleton_words(p):
            assert increasing_run_violations(w) == []


def test_repeated_extreme_cases():
    cases = check_repeated_pinnacle_lemma(Word.from_text("4345654321234543", 7))
    assert [(c.value, c.side, c.kind, c.conclusion_holds) for c in cases] == [
        (3, "right", "vale", True)
    ]
    assert check_repeated_pinnacle_lemma(Word((1, 2, 1), 3)) == []
    assert check_repeated_pinnacle_lemma(Word((), 3)) == []
    cases = check_repeated_pinnacle_lemma(Word((1, 2, 3, 2, 1, 2), 4))
    assert [(c.value, c.side, c.kind, c.conclusion_holds) for c in cases] == [
        (1, "left", "vale", True)
    ]


def test_repeated_extreme_conclusion_holds_everywhere():
    for n in range(2, 6):
        for p in all_permutations(n):
            for w in singleton_words(p):
                for case in check_repeated_pinnacle_lemma(w):
                    assert case.conclusion_holds


def test_zigzag_construction():
    check = check_zigzag_lemma(1, 2, 3)
    assert check.word.to_text() == "1212"
    assert not check.reduced
    assert check.evaluated_length == 2
    assert check.permutation.to_text() == "312"
    assert check.window_matches

    check = check_zigzag_lemma(1, 3, 4)
    assert check.word.to_text() == "1232123"
    assert check.evaluated_length == 5
    assert check.permutation.to_text() == "4312"
    assert check.window_matches

    check = check_zigzag_lemma(2, 3, 5)
    assert check.word.to_text() == "2323"
    assert check.evaluated_length == 2
    assert check.permutation.to_text() == "14235"
    assert check.window_matches


def test_zigzag_rejects_bad_arguments():
    with pytest.raises(ValueError):
        check_zigzag_lemma(2, 2, 4)
    with pytest.raises(ValueError):
        check_zigzag_lemma(3, 1, 4)
    with pytest.raises(ValueError):
        check_zigzag_lemma(1, 3, 3)
    with pytest.raises(ValueError):
        check_zigzag_lemma(0, 2, 4)


def test_zigzag_sweep():
    report = verify_zigzag_sweep(6)
    assert report.ok
    assert report.cases_checked == 1 + 3 + 6 + 10  # degrees 3, 4, 5, 6
    assert report.violations == ()


def test_search_by_class_count():
    result = search_by_class_count(3, 2)
    assert [(p.to_text(), [w.to_text() for w in ws]) for p, ws in result.matches] == [
        ("321", ["121", "212"])
    ]
    zero = search_by_class_count(4, 0)
    assert Permutation((2, 1, 4, 3)) in [p for p, _ in zero.matches]
    ones = search_by_class_count(4, 1)
    assert identity(4) in [p for p, _ in ones.matches]
    entries = [p.entries for p, _ in zero.matches]
    assert entries == sorted(entries)
    # no permutation has a negative count
    with pytest.raises(ValueError, match="class count -1 is negative"):
        search_by_class_count(3, -1)


def test_search_bound():
    with pytest.raises(SweepBoundExceeded) as info:
        search_by_class_count(8, 4)
    assert info.value.degree == 8
    assert info.value.bound == 7
    # an explicit bound unlocks larger degrees
    result = search_by_class_count(3, 2, sweep_bound=8)
    assert len(result.matches) == 1


def test_verify_theorem_sweep_counts():
    report = verify_theorem_sweep(3)
    assert report.ok
    assert report.words_checked == 7
    assert report.degenerate_words == 3
    assert report.violations == ()

    report = verify_theorem_sweep(4)
    assert report.ok
    assert report.words_checked == 32
    assert report.degenerate_words == 4


def test_verify_theorem_sweep_bound():
    with pytest.raises(SweepBoundExceeded):
        verify_theorem_sweep(8)
    with pytest.raises(SweepBoundExceeded):
        verify_theorem_sweep(9, sweep_bound=8)
