"""
Reduced-word enumeration and the commutation-class quotient.

Two reduced words are commutation equivalent when a sequence of swaps of
adjacent letters differing by at least 2 turns one into the other.  The
classes of that relation partition the reduced words of a permutation; this
module enumerates the words, builds the partition, and offers the
braid-move-augmented graph as a connectivity self-check (with both move
kinds, all reduced words of a permutation are connected).

A commutation class is a heap (a Cartier-Foata trace): letters a and b
commute exactly when |a - b| >= 2, so the only pairs that never commute are
{a, a+1} and {a, a}.  Commutation moves keep a word reduced and its
permutation fixed, so the classes of the trace monoid, cut down to the
reduced words of one permutation, are that permutation's commutation
classes.  ``class_partition`` takes them from the kernel
``commutation_classes``, which has two twins (see ``kernels``): the compiled
one lists the least word of each class, its lexicographic normal form
(Anisimov-Knuth 1979), and then the orderings of that word's heap, and
builds no other word; the pure one groups the full word list by the
projection lemma (Cori-Perrin 1985; Duboc 1986).  The breadth-first closure
under single moves (``commutation_class``) is kept as the independent
oracle the tests compare both against.  Classes hold letter tuples; ``Word``
views are built on request.

Enumeration sizes explode factorially, so every full enumeration honours a
word cap and fails before enumerating: the exact count, which builds no
word, is checked against the cap first.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Iterator

from redword import kernels
from redword.errors import EnumerationCapExceeded
from redword.perm import Permutation
from redword.words import Word

DEFAULT_MAX_WORDS = 10_000_000


@dataclasses.dataclass(frozen=True)
class CommutationClass:
    """One commutation class: its members' letters, sorted, and their
    permutation; ``members`` and ``representative`` build ``Word``s."""

    words: tuple[tuple[int, ...], ...]
    permutation: Permutation

    @property
    def members(self) -> frozenset[Word]:
        n = self.permutation.degree
        return frozenset(Word(letters, n) for letters in self.words)

    @property
    def representative(self) -> Word:
        return Word(self.words[0], self.permutation.degree)

    def __len__(self) -> int:
        return len(self.words)

    def is_singleton(self) -> bool:
        return len(self.words) == 1


@dataclasses.dataclass(frozen=True)
class ClassPartition:
    """All commutation classes of one permutation, sorted by representative."""

    permutation: Permutation
    classes: tuple[CommutationClass, ...]
    total_words: int

    def singleton_representatives(self) -> list[Word]:
        return [c.representative for c in self.classes if c.is_singleton()]


def _checked_count(p: Permutation, max_words: int) -> int:
    """The number of reduced words of ``p``, which builds no word.

    Raises EnumerationCapExceeded when it is more than ``max_words``.
    """
    count = kernels.reduced_word_count(p.entries, max_words)
    if count > max_words:
        raise EnumerationCapExceeded(max_words)
    return count


def _word_list(p: Permutation, max_words: int) -> list[tuple[int, ...]]:
    """The reduced words of ``p`` as letter tuples, lexicographically.

    Raises EnumerationCapExceeded, before building any word, when more than
    ``max_words`` words exist.
    """
    _checked_count(p, max_words)
    return kernels.reduced_word_list(p.entries)


def enumerate_reduced_words(
    p: Permutation, max_words: int = DEFAULT_MAX_WORDS
) -> Iterator[Word]:
    """Yield every reduced word of ``p`` exactly once, lexicographically.

    Raises EnumerationCapExceeded when more than ``max_words`` words exist.
    """
    n = p.degree
    for letters in _word_list(p, max_words):
        yield Word(letters, n)


def count_reduced_words(p: Permutation) -> int:
    """The number of reduced words of ``p``, with no enumeration: a walk
    down the transition tree of ``p`` to vexillary permutations, each
    counted by the hook-length formula.

    >>> from redword.perm import Permutation
    >>> count_reduced_words(Permutation((4, 3, 2, 1)))
    16
    """
    return kernels.reduced_word_count(p.entries)


def _require_reduced(w: Word) -> None:
    if not w.is_reduced():
        raise ValueError(f"word {w.to_text()!r} is not reduced")


def _commutation_neighbors(w: Word) -> list[Word]:
    letters = w.letters
    out = []
    for k in range(len(letters) - 1):
        if abs(letters[k] - letters[k + 1]) >= 2:
            swapped = (
                letters[:k]
                + (letters[k + 1], letters[k])
                + letters[k + 2 :]
            )
            out.append(Word(swapped, w.degree))
    return out


def commutation_neighbors(w: Word) -> list[Word]:
    """Words one commutation move away: one adjacent pair with difference
    at least 2 swapped.  Rejects non-reduced input."""
    _require_reduced(w)
    return _commutation_neighbors(w)


def _braid_neighbors(w: Word) -> list[Word]:
    letters = w.letters
    out = []
    for k in range(len(letters) - 2):
        a, b, c = letters[k : k + 3]
        if a == c and abs(a - b) == 1:
            out.append(Word(letters[:k] + (b, a, b) + letters[k + 3 :], w.degree))
    return out


def braid_neighbors(w: Word) -> list[Word]:
    """Words one braid move away: a window (a, b, a) with |a-b| = 1 rewritten
    to (b, a, b).  Rejects non-reduced input."""
    _require_reduced(w)
    return _braid_neighbors(w)


def _closure(seed: Word, neighbors) -> frozenset[Word]:
    seen = {seed}
    queue = deque([seed])
    while queue:
        current = queue.popleft()
        for node in neighbors(current):
            if node not in seen:
                seen.add(node)
                queue.append(node)
    return frozenset(seen)


def commutation_class(w: Word) -> CommutationClass:
    """The breadth-first closure of ``w`` under commutation moves.

    >>> from redword.words import Word
    >>> sorted(x.to_text() for x in commutation_class(Word((1, 3), 4)).members)
    ['13', '31']
    """
    _require_reduced(w)
    members = sorted(x.letters for x in _closure(w, _commutation_neighbors))
    return CommutationClass(tuple(members), w.evaluate())


def class_partition(
    p: Permutation, max_words: int = DEFAULT_MAX_WORDS
) -> ClassPartition:
    """Partition all reduced words of ``p`` into commutation classes.

    The kernel builds the classes (see ``kernels``): each holds its members
    lexicographically, and the classes are sorted by representative.  No
    ``Word`` is built.

    Raises EnumerationCapExceeded, before building any word, when more than
    ``max_words`` words exist.

    >>> from redword.perm import Permutation
    >>> [len(c) for c in class_partition(Permutation((2, 1, 4, 3))).classes]
    [2]
    """
    total = _checked_count(p, max_words)
    classes = tuple(
        CommutationClass(tuple(members), p)
        for members in kernels.commutation_classes(p.entries)
    )
    return ClassPartition(p, classes, total)


def is_connected_under_all_moves(
    p: Permutation, max_words: int = DEFAULT_MAX_WORDS
) -> bool:
    """True iff commutation plus braid moves connect all reduced words of
    ``p``.  They always do; this is a self-test oracle for the enumerator."""
    words = _word_list(p, max_words)
    seed = Word(words[0], p.degree)

    def both(w: Word) -> list[Word]:
        return _commutation_neighbors(w) + _braid_neighbors(w)

    return len(_closure(seed, both)) == len(words)
