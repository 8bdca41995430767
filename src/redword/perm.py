"""
Permutations of {1, ..., n} in one-line notation.

A permutation w is stored as the tuple (w(1), ..., w(n)), with 1-indexed
values throughout.  The simple transpositions sigma_i (for i in [1, n-1])
exchange i and i+1; they act on a permutation in two ways:

- on the right, ``p * sigma_i`` swaps the entries in *positions* i and i+1
  (this is ``apply_simple``), and
- on the left, ``sigma_i * p`` swaps the *values* i and i+1 wherever they
  occur.

Multiplication composes functions, ``(p * q)(k) = p(q(k))``, which makes the
right action consistent with reading a letter sequence left to right: the
word s1 s2 ... st evaluates to ((e * sigma_s1) * sigma_s2) * ... * sigma_st.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable


def parse_one_line(text: str, item: str) -> tuple[int, ...]:
    """
    Read integers written as ``to_text`` writes them: comma-separated when
    the text holds a comma, otherwise one ASCII digit each.  Blank text is
    the empty tuple.  ``item`` names a value in error messages.

    >>> parse_one_line("2341", "entry")
    (2, 3, 4, 1)
    >>> parse_one_line(" 10, 2 ,3", "letter")
    (10, 2, 3)
    >>> parse_one_line("1x3", "entry")
    Traceback (most recent call last):
    ...
    ValueError: invalid entry 'x' at position 2
    """
    text = text.strip()
    if not text:
        return ()
    pieces = [piece.strip() for piece in text.split(",")] if "," in text else text
    for position, piece in enumerate(pieces, start=1):
        # str.isdigit alone would let non-ASCII digits such as U+FF11 through
        if not (piece.isascii() and piece.isdigit()):
            raise ValueError(f"invalid {item} {piece!r} at position {position}")
    return tuple(map(int, pieces))


@dataclasses.dataclass(frozen=True, order=True)
class Permutation:
    """A permutation of {1, ..., n}, ordered lexicographically by one-line notation."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        n = len(entries)
        if n == 0:
            raise ValueError("empty permutation: degree 0 is not a valid permutation degree")
        seen = [False] * n
        for value in entries:
            # exactly int: True == 1 would otherwise print as "True"
            if type(value) is not int:
                raise ValueError(f"value {value!r} is not an integer")
            if not 1 <= value <= n:
                raise ValueError(f"value {value} out of range 1..{n}")
            if seen[value - 1]:
                raise ValueError(f"value {value} repeated")
            seen[value - 1] = True

    @property
    def degree(self) -> int:
        return len(self.entries)

    def is_identity(self) -> bool:
        return all(v == k + 1 for k, v in enumerate(self.entries))

    def length(self) -> int:
        """
        The number of inversions, which equals the number of letters in any
        reduced word for this permutation.

        >>> Permutation((4, 3, 2, 1)).length()
        6
        >>> Permutation((7, 2, 6, 5, 4, 1, 3)).length()
        16
        """
        e = self.entries
        n = len(e)
        return sum(1 for i in range(n) for j in range(i + 1, n) if e[i] > e[j])

    def inverse(self) -> Permutation:
        """
        >>> Permutation((2, 3, 4, 1)).inverse()
        <Permutation 4123>
        """
        inv = [0] * len(self.entries)
        for pos, value in enumerate(self.entries):
            inv[value - 1] = pos + 1
        return Permutation(tuple(inv))

    def apply_simple(self, i: int) -> Permutation:
        """
        Right multiplication by sigma_i: swap the entries in positions i, i+1.

        >>> Permutation((2, 3, 1, 4)).apply_simple(3)
        <Permutation 2341>
        """
        if not 1 <= i <= self.degree - 1:
            raise ValueError(f"letter {i} out of range 1..{self.degree - 1}")
        e = list(self.entries)
        e[i - 1], e[i] = e[i], e[i - 1]
        return Permutation(tuple(e))

    def __mul__(self, other: Permutation) -> Permutation:
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.degree != other.degree:
            raise ValueError(
                f"degree mismatch: {self.degree} != {other.degree}"
            )
        return Permutation(tuple(self.entries[q - 1] for q in other.entries))

    def right_descents(self) -> set[int]:
        """
        The letters i with entries[i] > entries[i+1]; exactly the i for which
        right multiplication by sigma_i shortens the permutation.

        >>> sorted(Permutation((7, 2, 6, 5, 4, 1, 3)).right_descents())
        [1, 3, 4, 5]
        """
        e = self.entries
        return {i + 1 for i in range(len(e) - 1) if e[i] > e[i + 1]}

    def left_descents(self) -> set[int]:
        """
        The letters i for which left multiplication by sigma_i shortens the
        permutation; equal to the right descents of the inverse.

        >>> sorted(Permutation((2, 3, 4, 1)).left_descents())
        [1]
        """
        return self.inverse().right_descents()

    def to_text(self) -> str:
        """One-line notation: a digit string for n <= 9, comma-separated otherwise."""
        if self.degree <= 9:
            return "".join(str(v) for v in self.entries)
        return ",".join(str(v) for v in self.entries)

    @classmethod
    def from_text(cls, text: str) -> Permutation:
        """
        Parse one-line notation, the inverse of ``to_text``.

        >>> Permutation.from_text("2341").entries
        (2, 3, 4, 1)
        >>> Permutation.from_text("7,2,6,5,4,1,3").to_text()
        '7265413'
        """
        return cls(parse_one_line(text, "entry"))

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"<Permutation {self.to_text()}>"


def identity(n: int) -> Permutation:
    """
    >>> identity(4)
    <Permutation 1234>
    """
    if n < 1:
        raise ValueError(f"degree {n} is not positive")
    return Permutation(tuple(range(1, n + 1)))


def longest_element(n: int) -> Permutation:
    """
    The longest element n (n-1) ... 2 1, the unique permutation with the
    maximal number of inversions n(n-1)/2.

    >>> longest_element(4)
    <Permutation 4321>
    """
    if n < 1:
        raise ValueError(f"degree {n} is not positive")
    return Permutation(tuple(range(n, 0, -1)))


def all_permutations(n: int) -> Iterable[Permutation]:
    """All of S_n in lexicographic one-line order."""
    import itertools

    if n < 1:
        raise ValueError(f"degree {n} is not positive")
    for entries in itertools.permutations(range(1, n + 1)):
        yield Permutation(entries)
