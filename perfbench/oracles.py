"""Reference answers for the benchmark, written without importing redword.

Every check here is computed by code of its own, so a defect in the package
cannot hide itself by also being in the oracle:

- reduced-word counts by a memoised recursion over right descents of the
  one-line entries (the package recurses over the inverse positions), and by
  the hook-length formula for the longest element;
- commutation classes by the Cartier-Foata heap of each word: two reduced
  words commute into each other exactly when their heaps agree;
- class counts of the longest element from OEIS A006245;
- singleton words of the longest element as the four symmetries of the block
  word; of other permutations by a search that strips letters from the right
  end, and across a whole degree by growing words from the identity.

Words are tuples of letters; permutations are tuples of one-line entries.
"""

from __future__ import annotations

import itertools
import json
import math
import re

# Commutation classes of the longest element of degree 1, 2, ...
A006245 = (1, 1, 2, 8, 62, 908, 24698, 1232944)


def longest(n: int) -> tuple[int, ...]:
    return tuple(range(n, 0, -1))


def swap(e: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Right multiplication by the simple transposition i."""
    return e[: i - 1] + (e[i], e[i - 1]) + e[i + 1 :]


def inversions(e: tuple[int, ...]) -> int:
    n = len(e)
    return sum(1 for a in range(n) for b in range(a + 1, n) if e[a] > e[b])


def evaluate(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    e = list(range(1, n + 1))
    for i in word:
        e[i - 1], e[i] = e[i], e[i - 1]
    return tuple(e)


def perm_text(e: tuple[int, ...]) -> str:
    sep = "" if len(e) <= 9 else ","
    return sep.join(map(str, e))


def parse_word(text: str, n: int) -> tuple[int, ...]:
    if not text:
        return ()
    if n > 10:
        return tuple(int(x) for x in text.split(","))
    return tuple(int(x) for x in text)


def hook_length_count(n: int) -> int:
    """Reduced words of the longest element: standard Young tableaux of the
    staircase shape (n-1, ..., 1), whose cell (i, j) has hook 2(n-i-j)-3."""
    cells = n * (n - 1) // 2
    hooks = 1
    for i in range(n - 1):
        for j in range(n - 1 - i):
            hooks *= 2 * (n - i - j) - 3
    return math.factorial(cells) // hooks


def block_word(n: int) -> tuple[int, ...]:
    """Block k = 1 .. n//2 ascends k .. n-k, then descends n-k-1 .. k."""
    letters: list[int] = []
    for k in range(1, n // 2 + 1):
        letters.extend(range(k, n - k + 1))
        letters.extend(range(n - k - 1, k - 1, -1))
    return tuple(letters)


def block_symmetries(n: int) -> list[tuple[int, ...]]:
    w = block_word(n)
    c = tuple(n - i for i in w)
    return sorted({w, w[::-1], c, c[::-1]})


def heap_key(word: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The Cartier-Foata heap of a word: each letter sits one level above the
    highest earlier letter it does not commute with (distance at most 1)."""
    level: dict[int, int] = {}
    cells = []
    for a in word:
        lv = 1 + max(level.get(a - 1, 0), level.get(a, 0), level.get(a + 1, 0))
        level[a] = lv
        cells.append((lv, a))
    return tuple(sorted(cells))


class Reference:
    """Memoised reference computations, shared by all checks of one run."""

    def __init__(self) -> None:
        self._counts: dict[tuple[int, ...], int] = {}
        self._degree_singletons: dict[int, dict] = {}

    def word_count(self, e: tuple[int, ...]) -> int:
        memo = self._counts

        def count(e: tuple[int, ...]) -> int:
            c = memo.get(e)
            if c is None:
                c = 0
                for i in range(1, len(e)):
                    if e[i - 1] > e[i]:
                        c += count(swap(e, i))
                c = c or 1
                memo[e] = c
            return c

        return count(e)

    def degree_singletons(self, n: int) -> dict[tuple[int, ...], list]:
        """Every permutation of degree n mapped to its singleton words, sorted;
        found by growing words letter by letter from the identity.  A prefix
        of a singleton word is one too, so every prefix is recorded."""
        if n not in self._degree_singletons:
            out: dict[tuple[int, ...], list] = {
                e: [] for e in itertools.permutations(range(1, n + 1))
            }

            def grow(e: tuple[int, ...], word: list[int]) -> None:
                out[e].append(tuple(word))
                if not word:
                    nxt = range(1, n)
                else:
                    nxt = (word[-1] - 1, word[-1] + 1)
                for i in nxt:
                    if 1 <= i < n and e[i - 1] < e[i]:
                        word.append(i)
                        grow(swap(e, i), word)
                        word.pop()

            grow(tuple(range(1, n + 1)), [])
            for words in out.values():
                words.sort()
            self._degree_singletons[n] = out
        return self._degree_singletons[n]

    def singleton_words(self, e: tuple[int, ...]) -> list[tuple[int, ...]]:
        n = len(e)
        if e == longest(n) and n >= 2:
            return block_symmetries(n)
        total = inversions(e)
        out: list[tuple[int, ...]] = []
        suffix: list[int] = []

        def strip(e: tuple[int, ...]) -> None:
            if len(suffix) == total:
                out.append(tuple(reversed(suffix)))
                return
            nxt = (suffix[-1] - 1, suffix[-1] + 1) if suffix else range(1, n)
            for i in nxt:
                if 1 <= i < n and e[i - 1] > e[i]:
                    suffix.append(i)
                    strip(swap(e, i))
                    suffix.pop()

        strip(e)
        return sorted(out)


def _reduced_problems(word, e, total) -> list[str]:
    if len(word) != total or evaluate(word, len(e)) != e:
        return [f"{word} is not a reduced word of {perm_text(e)}"]
    return []


def _singleton_problems(word, e, total) -> list[str]:
    problems = _reduced_problems(word, e, total)
    if any(abs(a - b) != 1 for a, b in zip(word, word[1:])):
        problems.append(f"{word} has an adjacent difference other than 1")
    return problems


def check_classes(ref: Reference, e, fmt: str, out: str) -> list[str]:
    n = len(e)
    if fmt == "json":
        results = json.loads(out)["results"]
        count, total = results["class_count"], results["total_words"]
        classes = [[tuple(m["letters"]) for m in c["members"]] for c in results["classes"]]
        for c, members in zip(results["classes"], classes):
            if c["size"] != len(members) or tuple(c["representative"]["letters"]) != members[0]:
                return [f"class of {members[0]} has a wrong size or representative"]
    else:
        lines = out.splitlines()
        m = re.fullmatch(r"(\d+) classes, (\d+) words", lines[0])
        if not m:
            return [f"unexpected header {lines[0]!r}"]
        count, total = int(m[1]), int(m[2])
        classes = [[parse_word(t, n) for t in line.split(" ")] for line in lines[1:]]
    problems = []
    expected_total = ref.word_count(e)
    if total != expected_total:
        problems.append(f"total_words {total}, expected {expected_total}")
    if sum(map(len, classes)) != total:
        problems.append("class sizes do not add up to total_words")
    if count != len(classes):
        problems.append(f"class_count {count} but {len(classes)} classes listed")
    if e == longest(n) and n <= len(A006245) and count != A006245[n - 1]:
        problems.append(f"{count} classes, A006245 gives {A006245[n - 1]}")
    length = inversions(e)
    seen_words: set = set()
    seen_heaps: set = set()
    for members in classes:
        if members != sorted(members):
            problems.append(f"members of class {members[0]} are not sorted")
        heaps = {heap_key(w) for w in members}
        if len(heaps) != 1:
            problems.append(f"class of {members[0]} mixes {len(heaps)} heaps")
        if heaps & seen_heaps:
            problems.append(f"class of {members[0]} repeats an earlier class")
        seen_heaps |= heaps
        seen_words.update(members)
        for w in members:
            problems += _reduced_problems(w, e, length)
    if len(seen_words) != total:
        problems.append("a word is listed twice")
    if [c[0] for c in classes] != sorted(c[0] for c in classes):
        problems.append("classes are not sorted by representative")
    return problems


def check_count(ref: Reference, e, out: str) -> list[str]:
    n = len(e)
    expected = hook_length_count(n) if e == longest(n) else ref.word_count(e)
    if out.strip() != str(expected):
        return [f"count {out.strip()}, expected {expected}"]
    return []


def check_singletons(ref: Reference, e, out: str) -> list[str]:
    words = [parse_word(line, len(e)) for line in out.splitlines()]
    total = inversions(e)
    problems = [p for w in words for p in _singleton_problems(w, e, total)]
    if words != ref.singleton_words(e):
        problems.append(f"singleton words of {perm_text(e)} differ from the reference")
    return problems


def check_verify(ref: Reference, d: int, out: str) -> list[str]:
    lines = out.splitlines()
    words = sum(
        sum(1 for w in ws if w)
        for m in range(1, d + 1)
        for ws in ref.degree_singletons(m).values()
    )
    zigzags = sum(math.comb(m - 1, 2) for m in range(3, d + 1))
    expected = [
        rf"checked {words} singleton words up to degree {d} \({d} degenerate skipped, \d+ checks\)",
        rf"checked {zigzags} zigzag cases up to degree {d}",
        r"0 violations",
    ]
    if len(lines) != 3 or not all(re.fullmatch(p, s) for p, s in zip(expected, lines)):
        return [f"verify --max-n {d} printed {lines!r}"]
    return []


def check_search(ref: Reference, d: int, k: int, out: str) -> list[str]:
    expected = {
        perm_text(e): ws for e, ws in ref.degree_singletons(d).items() if len(ws) == k
    }
    lines = out.splitlines()
    if lines[0] != f"{len(expected)} matches":
        return [f"search printed {lines[0]!r}, expected {len(expected)} matches"]
    problems = []
    listed = []
    for line in lines[1:]:
        text, _, rest = line.partition(":")
        e = tuple(int(x) for x in (text.split(",") if d > 9 else text))
        words = [parse_word(t, d) for t in rest.split()]
        if not words and k == 1:
            words = [()]  # the identity's one singleton word is empty
        total = inversions(e)
        problems += [p for w in words for p in _singleton_problems(w, e, total)]
        if expected.get(text) != words:
            problems.append(f"{text} should not be listed with {words}")
        listed.append(text)
    if listed != sorted(expected):
        problems.append("matched permutations differ from the reference")
    return problems
