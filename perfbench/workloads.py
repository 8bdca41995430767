"""Seeded operation lists.  An operation is one CLI command on one input.

The seed decides which inputs the program sees; it does not decide how much
work a pass holds.  Each workload draws its inputs by strata of fixed cost,
and the fixed anchors carry the heaviest and most memory-hungry cases, so the
same measurement taken with another seed reads about the same.
"""

from __future__ import annotations

import bisect
import itertools
import random
from typing import NamedTuple

from oracles import Reference, longest, perm_text, swap

# quotient: classes on S_6 and S_7, drawn from this band of reduced-word
# counts in strata of equal width.  Fixed anchors: the longest elements of
# degree 4 and 5, and the four images of the largest partition with at most
# QUOTIENT_ANCHOR_WORDS words under inversion and under conjugation by the
# longest element.  Those maps carry reduced words and commutation classes
# one to one, so the four cost about the same: in json and in text they are
# two plateaus of four operations above every draw, and they set the peak
# memory.  The 90th percentile falls in the middle of the lower plateau
# (6 of the 60 operations lie above it), where it reads the bulk of similar
# samples rather than the tail of a single operation.
QUOTIENT_DEGREES = (6, 7)
QUOTIENT_BAND = (100, 3000)
QUOTIENT_DRAWS = 24
QUOTIENT_ANCHOR_WORDS = 8000

# sweep: every degree gets one verify and this many searches.  A search
# costs about the same whatever its class count, so the four at degree 7
# are a plateau below the one verify of degree 7 and above the rest; the
# 90th percentile falls in its middle (2.9 of the 29 operations lie above
# it).  The sweeps run at the default thread count, which users get.
SWEEP_SEARCHES = {5: 12, 6: 10, 7: 4}

# deep: fixed anchors, the longest elements of these degrees, which are the
# costliest inputs of their degree (the count memo of degree 9 holds all of
# S_9) and have closed-form oracles.  Draws: for each of 1, 2 and 3 steps,
# this many draws per degree of the longest element times that many simple
# transpositions, each of which shortens it.  There are enough cheap draws
# that the 90th percentile falls among the one-step draws, a dense cluster,
# rather than on a single anchor.
DEEP_ANCHORS = {"count": (9,), "singletons": (11, 12, 13, 14)}
DEEP_DRAWS = {"count": {8: 6}, "singletons": {11: 8, 12: 7}}
DEEP_STEPS = (1, 2, 3)


class Op(NamedTuple):
    argv: list[str]
    kind: str  # which oracle checks the output
    subject: tuple  # the oracle's inputs


def _classes(e, fmt):
    argv = ["classes", perm_text(e)] + (["--format", "json"] if fmt == "json" else [])
    return Op(argv, "classes", (e, fmt))


def _inverse(e: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(range(1, len(e) + 1), key=lambda i: e[i - 1]))


def _mirror(e: tuple[int, ...]) -> tuple[int, ...]:
    """Conjugation by the longest element, which swaps s_i and s_{n-i}."""
    n = len(e)
    return tuple(n + 1 - e[n - i] for i in range(1, n + 1))


def quotient(seed: int, ref: Reference) -> list[Op]:
    rng = random.Random(seed)
    by_count: dict[int, list] = {}
    for n in QUOTIENT_DEGREES:
        for e in itertools.permutations(range(1, n + 1)):
            by_count.setdefault(ref.word_count(e), []).append(e)
    counts = sorted(by_count)
    top = min(by_count[counts[bisect.bisect_right(counts, QUOTIENT_ANCHOR_WORDS) - 1]])
    band = counts[bisect.bisect_left(counts, QUOTIENT_BAND[0]) :
                  bisect.bisect_right(counts, QUOTIENT_BAND[1])]
    low, high = QUOTIENT_BAND
    width = (high - low) / QUOTIENT_DRAWS
    drawn = []
    for k in range(QUOTIENT_DRAWS):
        target = low + (k + rng.random()) * width
        nearest = min(band[max(0, bisect.bisect_left(band, target) - 1):][:2],
                      key=lambda c: abs(c - target))
        drawn.append(rng.choice(sorted(by_count[nearest])))
    rng.shuffle(drawn)
    anchors = [longest(4), longest(5), top, _inverse(top), _mirror(top),
               _mirror(_inverse(top))]
    return [_classes(e, fmt) for e in anchors + drawn for fmt in ("text", "json")]


def sweep(seed: int, ref: Reference) -> list[Op]:
    rng = random.Random(seed)
    ops = []
    for d, searches in SWEEP_SEARCHES.items():
        ops.append(Op(["verify", "--max-n", str(d)], "verify", (d,)))
        sizes = sorted({len(ws) for ws in ref.degree_singletons(d).values()})
        for _ in range(searches):
            k = rng.choice(sizes)
            argv = ["search", "--n", str(d), "--class-count", str(k)]
            ops.append(Op(argv, "search", (d, k)))
    rng.shuffle(ops)
    return ops


def _near_longest(n: int, steps: int, rng: random.Random) -> tuple[int, ...]:
    e = longest(n)
    for _ in range(steps):
        e = swap(e, rng.choice([i for i in range(1, n) if e[i - 1] > e[i]]))
    return e


def _deep_op(kind: str, e: tuple[int, ...]) -> Op:
    if kind == "count":
        return Op(["reduced-words", perm_text(e), "--count-only"], kind, (e,))
    return Op(["singletons", perm_text(e)], kind, (e,))


def deep(seed: int, ref: Reference) -> list[Op]:
    """The anchors come first, in a fixed order, so that the count memo of
    degree 9 sets the peak memory before any draw has fragmented the heap."""
    rng = random.Random(seed)
    draws = [
        _deep_op(kind, _near_longest(n, steps, rng))
        for kind, per_degree in DEEP_DRAWS.items()
        for n, per_step in per_degree.items()
        for steps in DEEP_STEPS
        for _ in range(per_step)
    ]
    rng.shuffle(draws)
    anchors = [_deep_op(kind, longest(n))
               for kind in ("count", "singletons") for n in DEEP_ANCHORS[kind]]
    return anchors + draws


WORKLOADS = {"quotient": quotient, "sweep": sweep, "deep": deep}
