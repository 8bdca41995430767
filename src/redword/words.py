"""
Words over the alphabet {1, ..., n-1} of simple-transposition subscripts.

A word carries an explicit ambient degree n, because the complement map
i -> n - i depends on n and cannot be recovered from the letters alone
(the word <1> is a perfectly good word in S_4).

A word is *reduced* when its letter count equals the length of the
permutation it evaluates to.  The three symmetries of a word -- reverse,
complement, reverse-complement -- send reduced words to reduced words,
though generally for a different permutation: reversal inverts the
permutation, and complementation conjugates it by the longest element.

The second half of the module analyses the up-down shape of an arbitrary
integer string: pinnacles (entries larger than their neighbours), vales
(smaller), and the wedge/vee tests used to recognise near-unimodal strings.
Endpoints qualify as pinnacles or vales via their single neighbour.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from redword.perm import Permutation, longest_element, parse_one_line


def _letters_text(letters: Sequence[int], degree: int) -> str:
    # letters stay below 10 up to degree 10, so one digit each suffices
    return ("" if degree <= 10 else ",").join(map(str, letters))


@dataclasses.dataclass(frozen=True, order=True)
class Word:
    """A letter sequence with its ambient degree; ordered lexicographically."""

    letters: tuple[int, ...]
    degree: int

    def __post_init__(self):
        letters = tuple(self.letters)
        object.__setattr__(self, "letters", letters)
        if self.degree < 1:
            raise ValueError(f"ambient degree {self.degree} is not positive")
        for position, letter in enumerate(letters, start=1):
            # exactly int: True == 1 would otherwise print as "True"
            if type(letter) is not int:
                raise ValueError(f"invalid letter {letter!r} at position {position}")
            if letter < 1:
                raise ValueError(f"letter {letter} below 1 at position {position}")
            if letter > self.degree - 1:
                raise ValueError(
                    f"letter {letter} exceeds n-1 = {self.degree - 1}"
                    f" at position {position}"
                )

    def __len__(self) -> int:
        return len(self.letters)

    def evaluate(self) -> Permutation:
        """
        Apply the letters left to right to the identity, each swapping the
        entries in positions i, i+1.

        >>> Word((1, 2, 3), 4).evaluate()
        <Permutation 2341>
        """
        entries = list(range(1, self.degree + 1))
        for i in self.letters:
            entries[i - 1], entries[i] = entries[i], entries[i - 1]
        return Permutation(tuple(entries))

    def is_reduced(self) -> bool:
        """
        True when no shorter product gives the same permutation, i.e. the
        evaluated length equals the letter count.

        >>> Word((1, 2, 1), 3).is_reduced()
        True
        >>> Word((1, 2, 1, 2), 3).is_reduced()
        False
        """
        return self.evaluate().length() == len(self.letters)

    def reverse(self) -> Word:
        return Word(self.letters[::-1], self.degree)

    def complement(self) -> Word:
        """Replace each letter i by n - i."""
        n = self.degree
        return Word(tuple(n - i for i in self.letters), n)

    def reverse_complement(self) -> Word:
        return self.reverse().complement()

    def symmetries(self) -> frozenset[Word]:
        """
        The word together with its reverse, complement and reverse-complement,
        deduplicated.  The set has size 1, 2 or 4.

        >>> sorted(w.to_text() for w in Word((1, 2, 1), 3).symmetries())
        ['121', '212']
        """
        return frozenset(
            {self, self.reverse(), self.complement(), self.reverse_complement()}
        )

    def supports_commutation_move(self) -> bool:
        """True iff some adjacent letter pair differs by at least 2."""
        return any(
            abs(a - b) >= 2 for a, b in zip(self.letters, self.letters[1:])
        )

    def to_text(self) -> str:
        """Compact digit string for degree <= 10, comma-separated otherwise."""
        return _letters_text(self.letters, self.degree)

    @classmethod
    def from_text(cls, text: str, degree: int) -> Word:
        """
        Parse the ``to_text`` format; the empty string is the empty word.

        Past degree 10, ``to_text`` writes a one-letter word as its number,
        so a text there without a comma that names a letter is that letter.

        >>> Word.from_text("123212", 4)
        <Word '123212' n=4>
        >>> Word.from_text("11", 12)
        <Word '11' n=12>
        """
        letters = parse_one_line(text, "letter")
        if degree > 10 and "," not in text and 1 < len(letters) <= len(str(degree)):
            if (whole := int(text)) < degree:
                letters = (whole,)
        return cls(letters, degree)

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<Word {self.to_text()!r} n={self.degree}>"


@dataclasses.dataclass(frozen=True)
class PinnacleValeProfile:
    """Pinnacle and vale positions of a string, with 1-indexed positions.

    ``pv`` merges both lists in position order; a single-entry string is its
    own pinnacle and vale but contributes one pv entry.
    """

    pinnacles: tuple[tuple[int, int], ...]
    vales: tuple[tuple[int, int], ...]
    pv: tuple[tuple[int, int], ...]

    @property
    def pinnacle_values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.pinnacles)

    @property
    def vale_values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.vales)

    @property
    def pv_values(self) -> tuple[int, ...]:
        return tuple(v for _, v in self.pv)


def pinnacle_vale(s: Sequence[int]) -> PinnacleValeProfile:
    """
    Classify every entry of ``s`` that is larger than its immediate
    neighbour(s) as a pinnacle and every entry smaller as a vale.  Endpoints
    have one neighbour and qualify through it; a length-1 string is both.

    Strings with two equal adjacent entries are rejected: neither larger nor
    smaller applies, and reduced words never repeat a letter adjacently.

    >>> p = pinnacle_vale((6,5,4,3,2,3,4,3,2,1,2,3,4,5,6,5,4,5,4,3,4,5))
    >>> p.pv_values
    (6, 2, 4, 1, 6, 4, 5, 3, 5)
    """
    t = len(s)
    if t == 0:
        raise ValueError("empty string has no pinnacle/vale profile")
    if t == 1:
        entry = ((1, s[0]),)
        return PinnacleValeProfile(entry, entry, entry)
    for k in range(t - 1):
        if s[k] == s[k + 1]:
            raise ValueError(
                f"adjacent equal entries {s[k]} at positions {k + 1}, {k + 2}"
            )
    pinnacles = []
    vales = []
    for k in range(t):
        # missing neighbours compare vacuously, so endpoints qualify
        bigger_left = k == 0 or s[k] > s[k - 1]
        bigger_right = k == t - 1 or s[k] > s[k + 1]
        smaller_left = k == 0 or s[k] < s[k - 1]
        smaller_right = k == t - 1 or s[k] < s[k + 1]
        if bigger_left and bigger_right:
            pinnacles.append((k + 1, s[k]))
        elif smaller_left and smaller_right:
            vales.append((k + 1, s[k]))
    pv = tuple(sorted(pinnacles + vales))
    return PinnacleValeProfile(tuple(pinnacles), tuple(vales), pv)


def is_wedge(s: Sequence[int]) -> tuple[bool, bool]:
    """
    Test whether ``s`` strictly increases to its maximum and then strictly
    decreases, the maximum appearing either once or twice in adjacent
    positions.  Returns (is_wedge, strict); strict means a unique maximum.
    Either the increasing or the decreasing side may be empty.

    >>> is_wedge((4, 6, 5))
    (True, True)
    >>> is_wedge((1, 3, 5, 5, 4))
    (True, False)
    >>> is_wedge((2, 5, 3, 4))
    (False, False)
    """
    t = len(s)
    if t == 0:
        raise ValueError("empty string is neither a wedge nor not one")
    peak = max(s)
    i = s.index(peak)
    j = i + 1 if i + 1 < t and s[i + 1] == peak else i
    rising = all(s[k] < s[k + 1] for k in range(i))
    falling = all(s[k] > s[k + 1] for k in range(j, t - 1))
    if not (rising and falling):
        return (False, False)
    return (True, i == j)


def is_vee(s: Sequence[int]) -> tuple[bool, bool]:
    """
    Mirror of ``is_wedge``: strictly decreases to the minimum, then strictly
    increases, the minimum appearing once (strict) or twice adjacently.

    >>> is_vee((3, 1, 3))
    (True, True)
    >>> is_vee((5, 2, 2, 4))
    (True, False)
    >>> is_vee((1, 2))
    (True, True)
    """
    if not s:
        raise ValueError("empty string is neither a vee nor not one")
    return is_wedge([-x for x in s])


def conjugate_by_longest(p: Permutation) -> Permutation:
    """w0 * p * w0, the permutation evaluated by the complement of any reduced
    word of p."""
    w0 = longest_element(p.degree)
    return w0 * p * w0
