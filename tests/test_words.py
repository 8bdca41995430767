"""Words, their symmetries, and pinnacle/vale profile analysis."""

import itertools

import pytest

from redword.classes import enumerate_reduced_words
from redword.perm import Permutation, all_permutations, identity, longest_element
from redword.words import (
    Word,
    conjugate_by_longest,
    is_vee,
    is_wedge,
    pinnacle_vale,
)

# the worked profile example: string, pinnacle values, vale values, merged
PROFILE_EXAMPLE = (
    (6, 5, 4, 3, 2, 3, 4, 3, 2, 1, 2, 3, 4, 5, 6, 5, 4, 5, 4, 3, 4, 5),
    (6, 4, 6, 5, 5),
    (2, 1, 4, 3),
    (6, 2, 4, 1, 6, 4, 5, 3, 5),
)


def test_construction_validates_letters():
    with pytest.raises(ValueError, match="letter 5 exceeds n-1 = 3 at position 2"):
        Word((1, 5), 4)
    with pytest.raises(ValueError, match="letter 0 below 1 at position 1"):
        Word((0, 1), 4)
    with pytest.raises(ValueError, match="invalid letter"):
        Word((1, "2"), 4)
    # True == 1, yet it would print as "True"
    with pytest.raises(ValueError, match="invalid letter True at position 1"):
        Word((True,), 3)
    with pytest.raises(ValueError, match="invalid letter False at position 2"):
        Word((1, False), 3)
    with pytest.raises(ValueError, match="degree"):
        Word((), 0)
    assert Word((), 1).letters == ()


def test_evaluate_calibration():
    assert Word((1, 2, 3), 4).evaluate().entries == (2, 3, 4, 1)
    assert Word((), 5).evaluate() == identity(5)
    assert Word((1, 2, 1), 3).evaluate() == longest_element(3)
    assert Word((1, 1), 3).evaluate() == identity(3)


def test_is_reduced():
    assert Word((1, 2, 1), 3).is_reduced()
    assert not Word((1, 2, 1, 2), 3).is_reduced()
    assert not Word((1, 1), 3).is_reduced()
    assert Word((), 3).is_reduced()
    assert Word((1, 3), 4).is_reduced()


def test_symmetry_maps():
    w = Word((1, 2, 3, 2, 1, 2), 4)
    assert w.reverse().letters == (2, 1, 2, 3, 2, 1)
    assert w.complement().letters == (3, 2, 1, 2, 3, 2)
    assert w.reverse_complement().letters == (2, 3, 2, 1, 2, 3)
    for v in (w, w.reverse(), w.complement()):
        assert v.reverse().reverse() == v
        assert v.complement().complement() == v
    assert w.reverse().complement() == w.complement().reverse()


def test_symmetries_set_sizes():
    assert len(Word((1,), 2).symmetries()) == 1
    assert len(Word((1, 2, 1), 3).symmetries()) == 2
    assert len(Word((1, 2, 3, 2, 1, 2), 4).symmetries()) == 4


def test_symmetries_transform_the_evaluation():
    # reversal inverts; complementation conjugates by the longest element
    for n in range(2, 5):
        for p in all_permutations(n):
            for w in enumerate_reduced_words(p):
                assert w.reverse().evaluate() == p.inverse()
                assert w.complement().evaluate() == conjugate_by_longest(p)
                assert w.reverse().is_reduced()
                assert w.complement().is_reduced()


def test_supports_commutation_move():
    assert Word((1, 3), 4).supports_commutation_move()
    assert not Word((1, 2, 3, 2, 1, 2), 4).supports_commutation_move()
    assert not Word((1, 2), 3).supports_commutation_move()
    assert not Word((1,), 2).supports_commutation_move()
    assert not Word((), 2).supports_commutation_move()


def test_text_round_trip():
    for letters in itertools.product((1, 2, 3), repeat=3):
        w = Word(letters, 4)
        assert Word.from_text(w.to_text(), 4) == w
    assert Word.from_text("", 5) == Word((), 5)
    big = Word((1, 10, 11), 12)
    assert big.to_text() == "1,10,11"
    assert Word.from_text(big.to_text(), 12) == big
    # past degree 10 a one-letter word is written without a comma
    for letter in (9, 10, 11):
        w = Word((letter,), 12)
        assert w.to_text() == str(letter)
        assert Word.from_text(w.to_text(), 12) == w
    assert Word.from_text("123", 12).letters == (1, 2, 3)
    assert Word.from_text("123212", 4).letters == (1, 2, 3, 2, 1, 2)
    with pytest.raises(ValueError, match="invalid letter"):
        Word.from_text("12x", 4)
    with pytest.raises(ValueError, match="invalid letter 'x' at position 2"):
        Word.from_text("1,x", 12)
    assert Word.from_text("4345654321234543", 7).to_text() == "4345654321234543"
    with pytest.raises(ValueError, match="letter 5 exceeds n-1 = 3 at position 2"):
        Word.from_text("15", 4)
    # str.isdigit accepts these; only ASCII digits are letters
    with pytest.raises(ValueError, match="invalid letter '１' at position 1"):
        Word.from_text("１２", 4)
    with pytest.raises(ValueError, match="invalid letter '٢' at position 1"):
        Word.from_text("٢١", 4)
    with pytest.raises(ValueError, match="invalid letter '¹' at position 2"):
        Word.from_text("1¹", 4)
    assert repr(Word((1, 2), 4)) == "<Word '12' n=4>"


def test_profile_worked_example():
    s, pinnacle_values, vale_values, pv_values = PROFILE_EXAMPLE
    profile = pinnacle_vale(s)
    assert profile.pinnacle_values == pinnacle_values
    assert profile.vale_values == vale_values
    assert profile.pv_values == pv_values


def test_profile_endpoints_qualify():
    profile = pinnacle_vale((1, 2, 3))
    assert profile.pinnacles == ((3, 3),)
    assert profile.vales == ((1, 1),)
    profile = pinnacle_vale((3, 1, 2))
    assert profile.pinnacles == ((1, 3), (3, 2))
    assert profile.vales == ((2, 1),)
    single = pinnacle_vale((7,))
    assert single.pinnacles == single.vales == ((1, 7),)
    assert single.pv == ((1, 7),)


def test_profile_rejects_bad_strings():
    with pytest.raises(ValueError, match="empty"):
        pinnacle_vale(())
    with pytest.raises(ValueError, match="adjacent equal"):
        pinnacle_vale((1, 2, 2, 3))


def test_profile_alternates_and_contains_endpoints():
    for t in range(1, 6):
        for s in itertools.product((1, 2, 3), repeat=t):
            if any(a == b for a, b in zip(s, s[1:])):
                continue
            profile = pinnacle_vale(s)
            positions = [pos for pos, _ in profile.pv]
            assert 1 in positions and t in positions
            kinds = [
                "p" if (pos, val) in profile.pinnacles else "v"
                for pos, val in profile.pv
            ]
            assert all(a != b for a, b in zip(kinds, kinds[1:]))


def test_is_wedge():
    assert is_wedge((4, 6, 5)) == (True, True)
    assert is_wedge((1, 3, 5, 5, 4)) == (True, False)
    assert is_wedge((2, 5, 3, 4)) == (False, False)
    assert is_wedge((1, 2, 3)) == (True, True)  # peak at the right end
    assert is_wedge((3, 2, 1)) == (True, True)  # peak at the left end
    assert is_wedge((5,)) == (True, True)
    assert is_wedge((2, 2)) == (True, False)
    assert is_wedge((1, 3, 3, 1, 3)) == (False, False)
    with pytest.raises(ValueError):
        is_wedge(())


def test_is_vee():
    assert is_vee((3, 1, 3)) == (True, True)
    assert is_vee((5, 2, 2, 4)) == (True, False)
    assert is_vee((1, 2)) == (True, True)
    assert is_vee((2, 1)) == (True, True)
    assert is_vee((3, 1, 2, 1)) == (False, False)
    assert is_vee((4, 4)) == (True, False)
    with pytest.raises(ValueError):
        is_vee(())


def test_wedge_vee_mirror_each_other():
    for t in range(1, 6):
        for s in itertools.product((1, 2, 3, 4), repeat=t):
            flipped = tuple(5 - x for x in s)
            assert is_wedge(s) == is_vee(flipped)


def test_conjugate_by_longest():
    w0 = longest_element(4)
    p = Permutation((2, 3, 4, 1))
    assert conjugate_by_longest(p) == w0 * p * w0
    for q in all_permutations(4):
        assert conjugate_by_longest(conjugate_by_longest(q)) == q
