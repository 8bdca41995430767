"""
Reduced words that form singleton commutation classes.

A reduced word admits no commutation move exactly when every adjacent letter
pair differs by 1, so these words can be enumerated by a heavily pruned
depth-first search instead of materialising the full reduced-word set.  The
singleton words of the order-reversing permutation are the four symmetries
of one explicitly constructed word (two symmetries for n = 3, one for n = 2).

Every singleton word obeys a package of structural laws, checkable by
exhaustive sweep:

  - its pinnacle values rise then fall (a wedge) and its vale values fall
    then rise (a vee), the repeated extreme value allowed only in adjacent
    positions; at least one of the two profiles has a unique extreme;
  - some occurrence of the smallest profile value sits next to some
    occurrence of the largest in the merged pinnacle/vale sequence;
  - a profile value occurring more than once also occurs at an endpoint
    of the word;
  - between nearest occurrences of two letter values the word walks the
    consecutive values from one to the other, in order;
  - a repeated pinnacle value x with an occurrence at one endpoint and
    another occurrence away from the opposite endpoint forces the simple
    reflection with subscript x-1 to shorten the permutation on that
    endpoint's side (subscript x+1 for vales).

The ascending-then-descending-then-ascending "zig zag" words are never
reduced; the sweep checks that too, since it underpins the walk law above.

Sweeps over all of S_n are bounded (default n <= 7) and fail loudly past
the bound.
"""

from __future__ import annotations

import dataclasses

from redword import kernels
from redword.errors import SweepBoundExceeded
from redword.perm import Permutation, all_permutations
from redword.words import Word, is_vee, is_wedge, pinnacle_vale

SINGLETON_SWEEP_BOUND = 7


def singleton_words(p: Permutation) -> list[Word]:
    """The reduced words of ``p`` with all adjacent letter differences
    exactly 1, in lexicographic order.  For the identity this is the empty
    word alone, the degenerate singleton.

    >>> from redword.perm import Permutation
    >>> [w.to_text() for w in singleton_words(Permutation((3, 2, 1)))]
    ['121', '212']
    """
    n = p.degree
    return [Word(letters, n) for letters in kernels.singleton_word_list(p.entries)]


def long_element_singleton(n: int) -> Word:
    """The block word for the order-reversing permutation of degree ``n``:
    block k (k = 1 .. n//2) ascends k..n-k then descends n-k-1..k.

    >>> long_element_singleton(4).to_text()
    '123212'
    >>> long_element_singleton(5).to_text()
    '1234321232'
    """
    if n < 2:
        raise ValueError(f"degree {n} has no letters to build from; need n >= 2")
    letters: list[int] = []
    for k in range(1, n // 2 + 1):
        letters.extend(range(k, n - k + 1))
        letters.extend(range(n - k - 1, k - 1, -1))
    return Word(tuple(letters), n)


def long_element_class(n: int) -> frozenset[Word]:
    """The symmetries of the block word: all singleton words of the
    order-reversing permutation (exactly 4 of them for n >= 4)."""
    return long_element_singleton(n).symmetries()


@dataclasses.dataclass(frozen=True)
class TheoremReport:
    """Outcome of the five structural checks on one singleton word."""

    word: Word
    pinnacles_form_wedge: bool
    vales_form_vee: bool
    has_strict_side: bool
    extremes_adjacent: bool
    repeats_touch_endpoint: bool

    @property
    def all_pass(self) -> bool:
        return (
            self.pinnacles_form_wedge
            and self.vales_form_vee
            and self.has_strict_side
            and self.extremes_adjacent
            and self.repeats_touch_endpoint
        )


def _positions_by_value(
    entries: tuple[tuple[int, int], ...],
) -> dict[int, list[int]]:
    """Group (position, value) profile entries by value, positions in order."""
    by_value: dict[int, list[int]] = {}
    for pos, value in entries:
        by_value.setdefault(value, []).append(pos)
    return by_value


def check_theorem_properties(w: Word) -> TheoremReport:
    """Evaluate the five profile laws on ``w`` (see the module docstring).

    The word need not be a singleton word; the checker runs on any word
    with no adjacent equal letters.  Empty words are rejected.

    >>> from redword.words import Word
    >>> check_theorem_properties(Word((1, 2, 3, 2, 1, 2), 4)).all_pass
    True
    """
    letters = w.letters
    if not letters:
        raise ValueError("empty word has no profile to check")
    profile = pinnacle_vale(letters)
    wedge_ok, wedge_strict = is_wedge(profile.pinnacle_values)
    vee_ok, vee_strict = is_vee(profile.vale_values)
    strict_side = (wedge_ok and wedge_strict) or (vee_ok and vee_strict)

    pv_values = profile.pv_values
    lo, hi = min(pv_values), max(pv_values)
    extremes_adjacent = len(pv_values) == 1 or any(
        {pv_values[k], pv_values[k + 1]} == {lo, hi}
        for k in range(len(pv_values) - 1)
    )

    t = len(letters)
    repeats_ok = True
    for entries in (profile.pinnacles, profile.vales):
        for positions in _positions_by_value(entries).values():
            if len(positions) >= 2 and 1 not in positions and t not in positions:
                repeats_ok = False

    return TheoremReport(
        w, wedge_ok, vee_ok, strict_side, extremes_adjacent, repeats_ok
    )


def increasing_run_violations(w: Word) -> list[str]:
    """Check the walk law: between nearest occurrences of two letter values
    x < y, the word must read as the consecutive values from one to the
    other.  Returns one description per violated segment (empty when the
    law holds, as it must for singleton words).
    """
    letters = w.letters
    out: list[str] = []
    values = sorted(set(letters))
    for a_idx, x in enumerate(values):
        for y in values[a_idx + 1 :]:
            positions = [k for k, v in enumerate(letters) if v in (x, y)]
            for a, b in zip(positions, positions[1:]):
                if letters[a] == letters[b]:
                    continue
                step = 1 if letters[b] > letters[a] else -1
                expected = tuple(range(letters[a], letters[b] + step, step))
                if letters[a : b + 1] != expected:
                    out.append(
                        f"letters {x},{y}: positions {a + 1}..{b + 1} hold"
                        f" {''.join(map(str, letters[a : b + 1]))}, not a"
                        f" consecutive run"
                    )
    return out


@dataclasses.dataclass(frozen=True)
class RepeatedExtremeCase:
    """One matched hypothesis of the repeated-extreme length-drop law."""

    value: int
    side: str  # "left" or "right": which endpoint carries the repeat
    kind: str  # "pinnacle" or "vale"
    conclusion_holds: bool


def check_repeated_pinnacle_lemma(w: Word) -> list[RepeatedExtremeCase]:
    """Find every repeated pinnacle or vale value of ``w`` with one
    occurrence at an endpoint and another occurrence away from the opposite
    endpoint, and test the promised length drop.

    A right-endpoint repeat of pinnacle value x must make right
    multiplication by the simple reflection x-1 shorten the evaluated
    permutation; a left-endpoint repeat, left multiplication.  Vales use
    subscript x+1.  ``conclusion_holds`` is true in every case for genuine
    singleton words.

    >>> from redword.words import Word
    >>> cases = check_repeated_pinnacle_lemma(Word((1, 2, 3, 2, 1, 2), 4))
    >>> [(c.value, c.side, c.kind, c.conclusion_holds) for c in cases]
    [(1, 'left', 'vale', True)]
    """
    letters = w.letters
    if not letters:
        return []
    profile = pinnacle_vale(letters)
    p = w.evaluate()
    t = len(letters)
    out: list[RepeatedExtremeCase] = []
    for kind, entries, offset in (
        ("pinnacle", profile.pinnacles, -1),
        ("vale", profile.vales, +1),
    ):
        by_value = _positions_by_value(entries)
        for x in sorted(by_value):
            positions = by_value[x]
            if len(positions) < 2:
                continue
            subscript = x + offset
            if t in positions and any(q not in (1, t) for q in positions):
                holds = subscript in p.right_descents()
                out.append(RepeatedExtremeCase(x, "right", kind, holds))
            if 1 in positions and any(q not in (1, t) for q in positions):
                holds = subscript in p.left_descents()
                out.append(RepeatedExtremeCase(x, "left", kind, holds))
    return out


@dataclasses.dataclass(frozen=True)
class ZigzagCheck:
    """The constructed zig-zag word and everything verified about it."""

    word: Word
    reduced: bool
    evaluated_length: int
    permutation: Permutation
    window_matches: bool


def check_zigzag_lemma(i: int, j: int, n: int) -> ZigzagCheck:
    """Build the word ascending i..j, descending j-1..i, ascending i+1..j
    (3j-3i+1 letters) in degree ``n`` and report on it.

    The word is never reduced: it evaluates to a permutation of length
    3j-3i-1 that fixes everything outside positions i..j+1 and rearranges
    that window to j+1, i+2, i+3, ..., j, i, i+1.

    >>> c = check_zigzag_lemma(1, 3, 4)
    >>> c.word.to_text(), c.reduced, c.evaluated_length, c.permutation.to_text()
    ('1232123', False, 5, '4312')
    """
    if not 1 <= i < j <= n - 1:
        raise ValueError(f"need 1 <= i < j <= n-1, got i={i}, j={j}, n={n}")
    letters = (
        tuple(range(i, j + 1))
        + tuple(range(j - 1, i - 1, -1))
        + tuple(range(i + 1, j + 1))
    )
    word = Word(letters, n)
    product = word.evaluate()
    expected = list(range(1, n + 1))
    expected[i - 1 : j + 1] = [j + 1, *range(i + 2, j + 1), i, i + 1]
    return ZigzagCheck(
        word,
        word.is_reduced(),
        product.length(),
        product,
        product.entries == tuple(expected),
    )


@dataclasses.dataclass(frozen=True)
class Violation:
    """One failed check in a sweep: which check, on what, and how."""

    check: str
    subject: str
    detail: str


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Outcome of the exhaustive singleton-word sweep up to a degree."""

    max_degree: int
    words_checked: int
    degenerate_words: int
    checks_run: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclasses.dataclass(frozen=True)
class ZigzagSweepReport:
    """Outcome of the zig-zag construction sweep up to a degree."""

    max_degree: int
    cases_checked: int
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclasses.dataclass(frozen=True)
class SearchResult:
    """Permutations of one degree whose singleton-word count hits a target,
    with their words; sorted by one-line notation."""

    degree: int
    target_count: int
    matches: tuple[tuple[Permutation, tuple[Word, ...]], ...]


def _check_one_word(w: Word) -> tuple[int, list[Violation]]:
    subject = f"{w.to_text()} (n={w.degree})"
    violations: list[Violation] = []
    report = check_theorem_properties(w)
    for check, passed in (
        ("pinnacles-form-wedge", report.pinnacles_form_wedge),
        ("vales-form-vee", report.vales_form_vee),
        ("strict-side", report.has_strict_side),
        ("extremes-adjacent", report.extremes_adjacent),
        ("repeats-touch-endpoint", report.repeats_touch_endpoint),
    ):
        if not passed:
            violations.append(Violation(check, subject, "property is false"))
    run_problems = increasing_run_violations(w)
    for detail in run_problems:
        violations.append(Violation("increasing-run", subject, detail))
    cases = check_repeated_pinnacle_lemma(w)
    for case in cases:
        if not case.conclusion_holds:
            violations.append(
                Violation(
                    "repeated-extreme-length-drop",
                    subject,
                    f"value {case.value}, {case.kind}, {case.side} endpoint:"
                    f" no length drop",
                )
            )
    checks = 5 + 1 + len(cases)
    return checks, violations


def verify_theorem_sweep(
    max_n: int, sweep_bound: int = SINGLETON_SWEEP_BOUND
) -> VerificationReport:
    """Run every structural check on every singleton word of every
    permutation of degree at most ``max_n``.  Empty words (identity
    permutations) are counted as degenerate and skipped.

    The laws hold universally, so the report must carry zero violations.
    """
    if max_n < 1:
        raise ValueError(f"degree {max_n} is not positive")
    if max_n > sweep_bound:
        raise SweepBoundExceeded(max_n, sweep_bound)
    words_checked = 0
    degenerate = 0
    checks_run = 0
    violations: list[Violation] = []
    for n in range(1, max_n + 1):
        for p in all_permutations(n):
            for w in singleton_words(p):
                if not w.letters:
                    degenerate += 1
                    continue
                words_checked += 1
                word_checks, word_violations = _check_one_word(w)
                checks_run += word_checks
                violations.extend(word_violations)
    return VerificationReport(
        max_n, words_checked, degenerate, checks_run, tuple(violations)
    )


def verify_zigzag_sweep(max_n: int) -> ZigzagSweepReport:
    """Check every zig-zag word with 1 <= i < j <= n-1, n <= max_n: letter
    count, non-reducedness of the word and of its three symmetry variants,
    evaluated length, and the rearranged window."""
    cases = 0
    violations: list[Violation] = []
    for n in range(3, max_n + 1):
        for i in range(1, n - 1):
            for j in range(i + 1, n):
                cases += 1
                result = check_zigzag_lemma(i, j, n)
                subject = f"i={i} j={j} n={n}"
                word = result.word
                if len(word.letters) != 3 * j - 3 * i + 1:
                    violations.append(
                        Violation("zigzag-letter-count", subject,
                                  f"{len(word.letters)} letters")
                    )
                if result.reduced:
                    violations.append(
                        Violation("zigzag-not-reduced", subject, "word is reduced")
                    )
                for label, variant in (
                    ("reverse", word.reverse()),
                    ("complement", word.complement()),
                    ("reverse-complement", word.reverse_complement()),
                ):
                    if variant.is_reduced():
                        violations.append(
                            Violation(
                                "zigzag-not-reduced", subject,
                                f"{label} variant is reduced",
                            )
                        )
                if result.evaluated_length != 3 * j - 3 * i - 1:
                    violations.append(
                        Violation(
                            "zigzag-evaluated-length", subject,
                            f"length {result.evaluated_length}"
                            f" != {3 * j - 3 * i - 1}",
                        )
                    )
                if not result.window_matches:
                    violations.append(
                        Violation(
                            "zigzag-window", subject,
                            f"evaluates to {result.permutation.to_text()}",
                        )
                    )
    return ZigzagSweepReport(max_n, cases, tuple(violations))


def search_by_class_count(
    n: int, k: int, sweep_bound: int = SINGLETON_SWEEP_BOUND
) -> SearchResult:
    """All permutations of degree ``n`` with exactly ``k`` singleton words.

    >>> r = search_by_class_count(3, 2)
    >>> [(p.to_text(), [w.to_text() for w in ws]) for p, ws in r.matches]
    [('321', ['121', '212'])]
    """
    if n < 1:
        raise ValueError(f"degree {n} is not positive")
    if k < 0:
        raise ValueError(f"class count {k} is negative")
    if n > sweep_bound:
        raise SweepBoundExceeded(n, sweep_bound)
    matches = []
    for p in all_permutations(n):
        words = singleton_words(p)
        if len(words) == k:
            matches.append((p, tuple(words)))
    return SearchResult(n, k, tuple(matches))
