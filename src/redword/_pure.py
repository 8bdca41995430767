"""
Pure-Python enumeration kernels.

These are the hot loops of the package.  A compiled twin, written in C,
lives in ``_speedups``; ``kernels`` picks whichever is available.  Both
backends take a plain entry tuple, raise ValueError unless it is a
permutation of 1..n, and return plain letter tuples, so they stay free of
the dataclass layer.  Neither recurses, so neither has a depth limit.

The search state is the inverse permutation stored as a 0-indexed position
array ``r`` with ``r[v-1]`` = position of the value v.  The letter i can
start a factorisation exactly when the values i and i+1 are out of order,
i.e. ``r[i-1] > r[i]``; consuming that letter swaps the two slots and drops
the inversion count by one.

The word lists are depth-first searches with an explicit stack of letter
iterators, one per depth.  Trying letters in ascending order makes the
output lexicographic.  The count walks the lower weak-order interval one
length at a time, holding only two levels.
"""

from __future__ import annotations

import math

from redword.errors import EnumerationCapExceeded


def _positions(entries: tuple[int, ...]) -> list[int]:
    n = len(entries)
    r = [-1] * n
    for pos, v in enumerate(entries):
        if not 1 <= v <= n or r[v - 1] >= 0:
            raise ValueError(
                f"entries are not a permutation of 1..{n}: {entries!r}"
            )
        r[v - 1] = pos
    return r


def _inversions(entries: tuple[int, ...]) -> int:
    n = len(entries)
    return sum(
        1 for a in range(n) for b in range(a + 1, n) if entries[a] > entries[b]
    )


def _search(
    entries: tuple[int, ...], cap: float, adjacent_only: bool
) -> list[tuple[int, ...]]:
    """The reduced words in lexicographic order; with ``adjacent_only``,
    only those whose adjacent letters differ by 1.

    ``stack[d]`` iterates over the letters still to try at depth d.
    """
    n = len(entries)
    # r[i] > r[i + 1] tests the letter i; the sentinels make the letters 0
    # and n, which neighbour probes reach, never test true
    r = [-1, *_positions(entries), n]
    total = _inversions(entries)
    if total == 0:
        if cap <= 0:
            raise EnumerationCapExceeded(cap, 0)
        return [()]
    out: list[tuple[int, ...]] = []
    word = [0] * total
    last = total - 1
    stack = [iter(range(1, n))]
    depth = 0
    while True:
        for i in stack[depth]:
            if r[i] > r[i + 1]:
                word[depth] = i
                if depth == last:
                    if len(out) >= cap:
                        raise EnumerationCapExceeded(cap, len(out))
                    out.append(tuple(word))
                    continue
                r[i], r[i + 1] = r[i + 1], r[i]
                depth += 1
                stack.append(
                    iter((i - 1, i + 1) if adjacent_only else range(1, n))
                )
                break
        else:
            if depth == 0:
                return out
            stack.pop()
            depth -= 1
            i = word[depth]
            r[i], r[i + 1] = r[i + 1], r[i]


def reduced_word_list(
    entries: tuple[int, ...], cap: int
) -> list[tuple[int, ...]]:
    """All reduced words of the permutation, in lexicographic order.

    Raises EnumerationCapExceeded once more than ``cap`` words exist.
    """
    return _search(entries, cap, False)


def reduced_word_count(entries: tuple[int, ...]) -> int:
    """Number of reduced words, without materialising them.

    Each level maps the position arrays one letter further down the lower
    interval to their numbers of paths from the start; the walk ends at the
    identity, the only state without a descent.
    """
    level = {tuple(_positions(entries)): 1}
    while True:
        below: dict[tuple[int, ...], int] = {}
        for r, ways in level.items():
            s = list(r)
            for i in range(1, len(s)):
                a, b = s[i - 1], s[i]
                if a > b:
                    s[i - 1], s[i] = b, a
                    child = tuple(s)
                    s[i - 1], s[i] = a, b
                    below[child] = below.get(child, 0) + ways
        if not below:
            (count,) = level.values()
            return count
        level = below


def singleton_word_list(entries: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Reduced words whose adjacent letters always differ by exactly 1,
    in lexicographic order.

    Such a word admits no commutation move, so it is the sole member of its
    commutation class.  After the first letter the search only ever probes
    the two neighbouring letter values, which keeps the tree tiny.
    """
    return _search(entries, math.inf, True)
