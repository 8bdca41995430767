"""
Pure-Python kernels: the reduced-word lists, the commutation classes and
the reduced-word count.

These are the hot loops of the package.  The two word lists and the
commutation classes have a compiled twin, written in C, in ``_speedups``;
``kernels`` picks whichever is available.  The count is implemented here
only and serves both backends.  Every kernel takes a plain entry tuple,
raises ValueError unless it is a permutation of 1..n, and returns plain
lists, tuples or ints, so the kernels stay free of the dataclass layer.
None recurses, so none has a depth limit.

The search state is the inverse permutation stored as a 0-indexed position
array ``r`` with ``r[v-1]`` = position of the value v.  The letter i can
start a factorisation exactly when the values i and i+1 are out of order,
i.e. ``r[i-1] > r[i]``; consuming that letter swaps the two slots and drops
the inversion count by one.

The word lists are depth-first searches with an explicit stack of letter
iterators, one per depth.  Trying letters in ascending order makes the
output lexicographic.  Neither takes a cap: ``classes`` settles its word
cap with the count before it asks for a list.  The commutation classes
group the full word list by the projection lemma; the compiled twin builds
the same classes from their lexicographic normal forms instead.  The count
enumerates no words: it walks the transition tree of the permutation down
to vexillary leaves, each counted by the hook-length formula.
"""

from __future__ import annotations

import math


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
    entries: tuple[int, ...], adjacent_only: bool
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


def reduced_word_list(entries: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All reduced words of the permutation, in lexicographic order."""
    return _search(entries, False)


def _is_vexillary(w: tuple[int, ...]) -> bool:
    """Whether w avoids the pattern 2143, in one O(n^2) pass.

    For each c, ``low`` is the least w(a) over inversions (a, b) with
    b < c; the pattern occurs with its "4" at c exactly when some d > c
    has low < w(d) < w(c).
    """
    n = len(w)
    low = n + 1
    for c in range(2, n - 1):
        b = w[c - 1]
        for x in w[: c - 1]:
            if b < x < low:
                low = x
        top = w[c]
        for x in w[c + 1 :]:
            if low < x < top:
                return False
    return True


def _hook_count(w: tuple[int, ...]) -> int:
    """f^lambda by the hook-length formula, lambda the sorted Lehmer code."""
    shape = sorted(
        (sum(1 for y in w[a + 1 :] if y < x) for a, x in enumerate(w)),
        reverse=True,
    )
    width = max(shape, default=0)
    column = [sum(1 for row in shape if row > j) for j in range(width)]
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + column[j] - i - 1
    return math.factorial(sum(shape)) // hooks


def _transitions(w: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The children of w in the Lascoux-Schutzenberger transition tree.

    With r the last descent and s the last position right of it holding a
    value below w(r), v = w t_rs; the children are v t_ir for each i < r
    with v(i) < v(r) and no value between them at positions i+1..r-1.
    Without such an i the one child is 1 x w, which has one.
    """
    n = len(w)
    r = max(a for a in range(n - 1) if w[a] > w[a + 1])
    s = max(b for b in range(r + 1, n) if w[b] < w[r])
    v = list(w)
    v[r], v[s] = v[s], v[r]
    top = v[r]
    low = 0  # the greatest value below top seen at positions i+1..r-1
    children = []
    for i in range(r - 1, -1, -1):
        if low < v[i] < top:
            low = v[i]
            u = v.copy()
            u[i], u[r] = u[r], u[i]
            children.append(tuple(u))
    return children or [(1, *(x + 1 for x in w))]


def reduced_word_count(
    entries: tuple[int, ...], limit: float = math.inf
) -> int:
    """Number of reduced words, without enumerating any, when it is at
    most ``limit``; otherwise some number above ``limit``.

    The count obeys the transition recurrence of the Stanley symmetric
    function F_w (Lascoux-Schutzenberger, in Little's form): it is the sum
    over the children of w, and at a vexillary leaf F_w is one Schur
    function, whose count is f^lambda (Edelman-Greene).  The tree is walked
    with an explicit stack, so deep trees need no recursion, and memoised
    within this call only.  Each F_w is a sum of its children's with
    nonnegative coefficients, so no node counts more than the root, and the
    walk stops at the first node whose count exceeds ``limit``.
    """
    _positions(entries)
    start = tuple(entries)
    counts: dict[tuple[int, ...], int] = {}
    stack: list[tuple[tuple[int, ...], list | None]] = [(start, None)]
    while stack:
        w, children = stack[-1]
        if children is not None:
            count = sum(counts[u] for u in children)
        elif w in counts:
            stack.pop()
            continue
        elif _is_vexillary(w):
            count = _hook_count(w)
        else:
            children = _transitions(w)
            stack[-1] = (w, children)
            stack.extend((u, None) for u in children if u not in counts)
            continue
        if count > limit:
            return count
        counts[w] = count
        stack.pop()
    return counts[start]


def singleton_word_list(entries: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Reduced words whose adjacent letters always differ by exactly 1,
    in lexicographic order.

    Such a word admits no commutation move, so it is the sole member of its
    commutation class.  After the first letter the search only ever probes
    the two neighbouring letter values, which keeps the tree tiny.
    """
    return _search(entries, True)


def commutation_classes(
    entries: tuple[int, ...]
) -> list[list[tuple[int, ...]]]:
    """The commutation classes of the reduced words, each a list of its
    members in lexicographic order, the classes sorted by their least words.

    Each word is keyed by its heap key: for a = 0 .. n-1, the subsequence of
    its letters lying in {a, a+1} (0 and n are not letters, so the two ends
    hold the occurrences of 1 and of n-1 alone).  By the projection lemma
    for trace monoids (Cori-Perrin 1985; Duboc 1986) two words share a key
    exactly when they are commutation equivalent, so grouping by key gives
    the classes without exploring any move graph.  Each key takes one pass
    over the word's letters, at any degree.  The words arrive in
    lexicographic order, so each group lists its members in order and the
    groups, in insertion order, are sorted by representative.
    """
    pairs = range(len(entries))
    groups: dict[tuple[tuple[int, ...], ...], list[tuple[int, ...]]] = {}
    for letters in reduced_word_list(entries):
        projections: list[list[int]] = [[] for _ in pairs]
        for x in letters:
            projections[x - 1].append(x)
            projections[x].append(x)
        key = tuple(map(tuple, projections))
        groups.setdefault(key, []).append(letters)
    return list(groups.values())
