"""Permutation arithmetic: construction, length, descents, composition."""

import pytest

from redword.perm import Permutation, all_permutations, identity, longest_element


def bubble_swap_count(entries):
    # independent length oracle: adjacent-swap sort counts inversions
    items = list(entries)
    swaps = 0
    changed = True
    while changed:
        changed = False
        for k in range(len(items) - 1):
            if items[k] > items[k + 1]:
                items[k], items[k + 1] = items[k + 1], items[k]
                swaps += 1
                changed = True
    return swaps


def test_construction_validates_entries():
    with pytest.raises(ValueError, match="value 3 repeated"):
        Permutation((2, 3, 3, 1))
    with pytest.raises(ValueError, match="out of range"):
        Permutation((1, 2, 5))
    with pytest.raises(ValueError, match="out of range"):
        Permutation((0, 1, 2))
    with pytest.raises(ValueError, match="degree 0"):
        Permutation(())
    with pytest.raises(ValueError, match="not an integer"):
        Permutation((1, "2", 3))
    with pytest.raises(ValueError, match="value True is not an integer"):
        Permutation((True,))
    with pytest.raises(ValueError, match="value False is not an integer"):
        Permutation((2, False))


def test_degree_and_identity_flag():
    assert Permutation((1, 2, 3)).degree == 3
    assert Permutation((1, 2, 3)).is_identity()
    assert not Permutation((2, 1, 3)).is_identity()
    assert identity(4).entries == (1, 2, 3, 4)
    assert identity(1).is_identity()


def test_length_matches_swap_sort_oracle():
    for n in range(1, 6):
        for p in all_permutations(n):
            assert p.length() == bubble_swap_count(p.entries)


def test_length_examples():
    assert Permutation((7, 2, 6, 5, 4, 1, 3)).length() == 16
    assert identity(5).length() == 0
    for n in range(1, 9):
        assert longest_element(n).length() == n * (n - 1) // 2


def test_inverse():
    assert Permutation((2, 3, 4, 1)).inverse().entries == (4, 1, 2, 3)
    for p in all_permutations(4):
        assert (p * p.inverse()).is_identity()
        assert (p.inverse() * p).is_identity()
        assert p.inverse().inverse() == p
        assert p.inverse().length() == p.length()


def test_multiplication_composes_right_to_left():
    for p in all_permutations(3):
        for q in all_permutations(3):
            r = p * q
            for k in range(3):
                assert r.entries[k] == p.entries[q.entries[k] - 1]
    with pytest.raises(ValueError, match="degree"):
        Permutation((2, 1)) * Permutation((1, 2, 3))


def test_apply_simple_swaps_positions():
    p = Permutation((1, 2, 3, 4))
    assert p.apply_simple(1).entries == (2, 1, 3, 4)
    assert p.apply_simple(3).entries == (1, 2, 4, 3)
    assert Permutation((2, 3, 4, 1)).apply_simple(2).entries == (2, 4, 3, 1)
    with pytest.raises(ValueError, match="out of range"):
        p.apply_simple(0)
    with pytest.raises(ValueError, match="out of range"):
        p.apply_simple(4)


def test_apply_simple_is_right_multiplication():
    for p in all_permutations(4):
        for i in range(1, 4):
            sigma = identity(4).apply_simple(i)
            assert p.apply_simple(i) == p * sigma


def test_right_descents_mark_length_drops():
    for n in range(2, 6):
        for p in all_permutations(n):
            descents = p.right_descents()
            for i in range(1, n):
                drops = p.apply_simple(i).length() < p.length()
                assert (i in descents) == drops


def test_left_descents_are_inverse_right_descents():
    assert Permutation((2, 3, 4, 1)).left_descents() == {1}
    assert Permutation((2, 3, 4, 1)).right_descents() == {3}
    for p in all_permutations(5):
        assert p.left_descents() == p.inverse().right_descents()


def test_text_round_trip():
    for n in range(1, 6):
        for p in all_permutations(n):
            assert Permutation.from_text(p.to_text()) == p
    assert Permutation.from_text("7,2,6,5,4,1,3").entries == (7, 2, 6, 5, 4, 1, 3)
    big = Permutation(tuple(range(1, 13)))
    assert "," in big.to_text()
    assert Permutation.from_text(big.to_text()) == big
    assert Permutation.from_text("2341").to_text() == "2341"
    # blank text parses to no entries, which is no permutation
    for blank in ("", "  "):
        with pytest.raises(ValueError, match="degree 0"):
            Permutation.from_text(blank)
    with pytest.raises(ValueError, match="value 3 repeated"):
        Permutation.from_text("2331")
    with pytest.raises(ValueError, match="invalid entry 'x' at position 2"):
        Permutation.from_text("1x3")
    with pytest.raises(ValueError, match="invalid entry 'x' at position 3"):
        Permutation.from_text("12x4")
    with pytest.raises(ValueError, match="invalid entry '' at position 3"):
        Permutation.from_text("2,1,")
    with pytest.raises(ValueError, match="invalid entry '-1' at position 1"):
        Permutation.from_text("-1,2")
    # str.isdigit accepts these; only ASCII digits are entries
    with pytest.raises(ValueError, match="invalid entry '２' at position 1"):
        Permutation.from_text("２１")
    with pytest.raises(ValueError, match="invalid entry '١٠' at position 1"):
        Permutation.from_text("١٠,2,1")


def test_repr_is_compact():
    assert repr(Permutation((2, 3, 4, 1))) == "<Permutation 2341>"


def test_longest_element_reverses():
    assert longest_element(4).entries == (4, 3, 2, 1)
    assert longest_element(1).entries == (1,)
    w0 = longest_element(5)
    assert w0 * w0 == identity(5)


def test_all_permutations_lex_order_and_count():
    perms = list(all_permutations(4))
    assert len(perms) == 24
    assert perms[0].is_identity()
    assert perms[-1] == longest_element(4)
    entries = [p.entries for p in perms]
    assert entries == sorted(entries)
    assert len(set(entries)) == 24
