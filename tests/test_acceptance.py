"""Acceptance gate: every deliverable behavior, with its runtime budget.

Each criterion is one test that prints a single visible PASS line with the
measured numbers and asserts both exact expected values and the budget.
"""

import time

from redword.classes import (
    class_partition,
    count_reduced_words,
    enumerate_reduced_words,
    is_connected_under_all_moves,
)
from redword.cli import run
from redword.perm import Permutation, all_permutations, longest_element
from redword.singleton import (
    long_element_class,
    search_by_class_count,
    singleton_words,
    verify_theorem_sweep,
    verify_zigzag_sweep,
)
from redword.words import Word, conjugate_by_longest

from test_classes import staircase_tableaux_count


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def report(capsys, number, detail):
    with capsys.disabled():
        print(f"PASS criterion {number}: {detail}")


def test_criterion_01_evaluation_calibration(capsys):
    best = min(
        timed(lambda: Word((1, 2, 3), 4).evaluate())[0] for _ in range(5)
    )
    assert Word((1, 2, 3), 4).evaluate().to_text() == "2341"
    code = run(["eval", "--n", "4", "123"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == "2341\n"
    assert best < 0.001
    report(capsys, 1, f"eval 123 in degree 4 gives 2341 in {best * 1000:.4f} ms")


def test_criterion_02_order_reversal_singletons(capsys):
    start = time.perf_counter()
    assert len(singleton_words(longest_element(3))) == 2
    for n in range(4, 9):
        words = singleton_words(longest_element(n))
        assert len(words) == 4
        assert set(words) == long_element_class(n)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(capsys, 2, f"degrees 4..8 each have exactly 4 singleton words,"
                      f" matching the symmetry sets, in {elapsed:.2f} s")


def test_criterion_03_degree7_example(capsys):
    p = Permutation((7, 2, 6, 5, 4, 1, 3))
    elapsed, words = timed(lambda: singleton_words(p))
    assert {w.to_text() for w in words} == {
        "4345654321234543",
        "3456543212345434",
        "5434565432123454",
        "4543456543212345",
    }
    assert elapsed < 1.0
    report(capsys, 3, f"the four words of 7265413 found in {elapsed * 1000:.1f} ms")


def test_criterion_04_structural_law_sweep(capsys):
    elapsed, result = timed(lambda: verify_theorem_sweep(6))
    assert result.ok
    assert result.violations == ()
    assert elapsed < 120.0
    report(capsys, 4, f"{result.words_checked} singleton words up to degree 6,"
                      f" 0 violations, {elapsed:.2f} s")


def test_criterion_05_zigzag_sweep(capsys):
    elapsed, result = timed(lambda: verify_zigzag_sweep(8))
    assert result.ok
    assert result.cases_checked == 56
    assert elapsed < 1.0
    report(capsys, 5, f"56 zigzag cases up to degree 8, all non-reduced with"
                      f" the expected length and window, {elapsed * 1000:.1f} ms")


def test_criterion_06_singleton_oracle_equivalence(capsys):
    start = time.perf_counter()
    for n in range(1, 6):
        for p in all_permutations(n):
            from_quotient = class_partition(p).singleton_representatives()
            direct = singleton_words(p)
            filtered = [
                w
                for w in enumerate_reduced_words(p)
                if all(abs(a - b) == 1 for a, b in zip(w.letters, w.letters[1:]))
            ]
            assert from_quotient == direct == filtered
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(capsys, 6, f"three singleton definitions agree on all of"
                      f" degrees 1..5 in {elapsed:.2f} s")


def test_criterion_07_counting_cross_check(capsys):
    assert count_reduced_words(Permutation((4, 3, 2, 1))) == 16
    assert count_reduced_words(Permutation((5, 4, 3, 2, 1))) == 768
    assert staircase_tableaux_count(4) == 16
    assert staircase_tableaux_count(5) == 768
    assert len(class_partition(Permutation((4, 3, 2, 1))).classes) == 8
    report(capsys, 7, "counts 16 and 768 match the tableaux oracle;"
                      " 8 classes for 4321")


def test_criterion_08_move_graph_connectivity(capsys):
    start = time.perf_counter()
    for p in all_permutations(5):
        assert is_connected_under_all_moves(p)
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(capsys, 8, f"move graph connected for all 120 degree-5"
                      f" permutations in {elapsed:.2f} s")


def test_criterion_09_symmetry_contracts(capsys):
    for p in all_permutations(5):
        inverse = p.inverse()
        conjugate = conjugate_by_longest(p)
        for w in enumerate_reduced_words(p):
            assert w.reverse().evaluate() == inverse
            assert w.complement().evaluate() == conjugate
    report(capsys, 9, "reversal inverts and complementation conjugates,"
                      " all reduced words of degree 5")


def test_criterion_10_search(capsys):
    elapsed, result = timed(lambda: search_by_class_count(7, 4))
    found = {p.entries for p, _ in result.matches}
    assert (7, 6, 5, 4, 3, 2, 1) in found
    assert (7, 2, 6, 5, 4, 1, 3) in found
    assert elapsed < 60.0
    report(capsys, 10, f"degree-7 search found {len(found)} permutations with"
                       f" 4 singleton words, including both expected,"
                       f" {elapsed:.2f} s")
