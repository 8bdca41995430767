"""Properties checked on generated inputs.

The examples are derived from the test's own name rather than drawn at
random, and none are saved between runs, so every run checks the same
inputs.
"""

import json

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import redword._pure as pure_backend
from redword.cli import _render_json
from redword.kernels import reduced_word_count
from redword.perm import Permutation
from redword.words import Word, _letters_text, conjugate_by_longest

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


@settings(DETERMINISTIC, max_examples=100)
@given(permutations(9))
@example(Permutation((2, 1, 4, 3, 6, 5, 8, 7, 9)))
@example(Permutation((3, 2, 1, 6, 5, 4, 7, 9, 8)))
@example(Permutation((5, 4, 3, 2, 1)))
@example(Permutation((1,)))
def test_backends_agree_on_commutation_classes(compiled_backend, p):
    entries = p.entries
    assume(reduced_word_count(entries, 2000) <= 2000)
    assert compiled_backend.commutation_classes(
        entries
    ) == pure_backend.commutation_classes(entries)


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


@settings(DETERMINISTIC, max_examples=200)
@given(
    st.integers(2, 12).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(1, n - 1), max_size=12), st.just(n)
        )
    )
)
@example(([9], 10))
@example(([10], 11))
@example(([11], 12))
@example(([1, 11], 12))
def test_letters_text_is_word_text(letters_and_degree):
    # the CLI renders letter tuples with no Word; the bytes must not change
    letters, n = letters_and_degree
    letters = tuple(letters)
    text = _letters_text(letters, n)
    assert text == Word(letters, n).to_text()
    if n <= 10:
        assert tuple(map(int, text)) == letters
    else:
        assert tuple(map(int, filter(None, text.split(",")))) == letters
    assert Word.from_text(text, n).letters == letters


@settings(DETERMINISTIC, max_examples=150)
@given(permutations(7), st.data())
def test_word_symmetries(p, data):
    # a reduced word drawn one right descent at a time, from the end
    letters = []
    rest = p
    while descents := sorted(rest.right_descents()):
        letter = data.draw(st.sampled_from(descents))
        letters.append(letter)
        rest = rest.apply_simple(letter)
    w = Word(tuple(reversed(letters)), p.degree)
    assert w.evaluate() == p
    assert w.is_reduced()

    assert w.reverse().evaluate() == p.inverse()
    assert w.complement().evaluate() == conjugate_by_longest(p)
    assert w.reverse().is_reduced()
    assert w.complement().is_reduced()
    assert w.reverse_complement().is_reduced()
    assert len(w.symmetries()) in (1, 2, 4)


# quotes, backslashes, control characters, non-ASCII and past the BMP
JSON_TEXT = st.text(
    st.characters() | st.sampled_from('"\\\x00\x1f\x7f\n\té€\U0001f600'), max_size=12
)
JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(2**64) - 1, 3**100])
    | JSON_TEXT
)
JSON_DOCUMENTS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=6)
    | st.dictionaries(JSON_TEXT, children, max_size=6),
    max_leaves=20,
)


@settings(DETERMINISTIC, max_examples=200)
@given(JSON_DOCUMENTS)
@example([1, True, 2])
@example({"": {}, "a": [], "b": [[]], "c": [0, -1, 2**64]})
def test_json_renderer_matches_json_dumps(document):
    assert _render_json(document) == json.dumps(document, indent=2, sort_keys=True)
