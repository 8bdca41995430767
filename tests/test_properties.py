"""Properties checked on generated inputs.

The examples are derived from the test's own name rather than drawn at
random, and none are saved between runs, so every run checks the same
inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

import redword._pure as pure_backend
from redword.kernels import reduced_word_count
from redword.perm import Permutation
from redword.words import Word, conjugate_by_longest

DETERMINISTIC = settings(derandomize=True, database=None, deadline=None)


def permutations(max_degree):
    return st.integers(1, max_degree).flatmap(
        lambda n: st.permutations(range(1, n + 1))
    ).map(lambda entries: Permutation(tuple(entries)))


@settings(DETERMINISTIC, max_examples=150)
@given(permutations(12))
def test_count_is_invariant_under_inversion_and_conjugation(p):
    # inversion reverses every reduced word; conjugation by the longest
    # element complements every letter
    count = reduced_word_count(p.entries)
    assert reduced_word_count(p.inverse().entries) == count
    assert reduced_word_count(conjugate_by_longest(p).entries) == count


@settings(DETERMINISTIC, max_examples=150)
@given(permutations(9))
def test_backends_agree_on_generated_permutations(compiled_backend, p):
    entries = p.entries
    assert compiled_backend.singleton_word_list(
        entries
    ) == pure_backend.singleton_word_list(entries)
    if reduced_word_count(entries) <= 20_000:
        assert compiled_backend.reduced_word_list(
            entries
        ) == pure_backend.reduced_word_list(entries)


@settings(DETERMINISTIC, max_examples=200)
@given(permutations(15))
def test_permutation_text_round_trip(p):
    assert Permutation.from_text(p.to_text()) == p


@settings(DETERMINISTIC, max_examples=200)
@given(
    st.integers(2, 15).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, n - 1), max_size=30), st.just(n)
        )
    )
)
def test_word_text_round_trip(letters_and_degree):
    letters, n = letters_and_degree
    w = Word(tuple(letters), n)
    assert Word.from_text(w.to_text(), n) == w
