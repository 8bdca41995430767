"""
Command-line front end.

Results go to stdout, diagnostics and timing to stderr.  For a fixed format
the stdout bytes are a pure function of argv and the environment variable
REDWORD_MAX_WORDS, so runs are diffable.  A ``--format json`` document is
written by this module's own renderer: the bytes of
``json.dumps(document, indent=2, sort_keys=True)``, which with an indent
runs the pure-Python encoder, in about 40% of its time.

Exit codes: 0 success, 1 verification found violations, 2 usage or parse
error, 3 enumeration cap, sweep bound, recursion limit or memory exceeded,
or stdout could not be written (a closed pipe, a full disk).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from json.encoder import encode_basestring_ascii

from redword import kernels
from redword.classes import (
    DEFAULT_MAX_WORDS,
    _word_list,
    class_partition,
    count_reduced_words,
)
from redword.errors import EnumerationCapExceeded, SweepBoundExceeded
from redword.perm import Permutation
from redword.singleton import (
    SINGLETON_SWEEP_BOUND,
    check_zigzag_lemma,
    long_element_class,
    long_element_singleton,
    search_by_class_count,
    verify_theorem_sweep,
    verify_zigzag_sweep,
)
from redword.words import Word, _letters_text


_INT_ONLY = {int}


def _render_scalar(value) -> str:
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return str(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    raise TypeError(f"cannot render {kind.__name__} as JSON")


def _render_json(document) -> str:
    """
    The bytes of ``json.dumps(document, indent=2, sort_keys=True)`` for a
    document of dicts with str keys, lists, str, exact int, bool and None;
    anything else raises TypeError.

    >>> print(_render_json({"b": [1, 2], "a": {"c": None, "d": []}}))
    {
      "a": {
        "c": null,
        "d": []
      },
      "b": [
        1,
        2
      ]
    }
    """
    chunks: list[str] = []
    append = chunks.append

    def render(value, newline: str) -> None:
        # newline is "\n" plus the indent of the line the value starts on
        kind = type(value)
        if kind is dict:
            if not value:
                append("{}")
                return
            inner = newline + "  "
            opening = "{" + inner
            # encode_basestring_ascii raises TypeError on a key that is not a str
            for key in sorted(value):
                item = value[key]
                append(f"{opening}{encode_basestring_ascii(key)}: ")
                if type(item) is str or type(item) is int:
                    append(_render_scalar(item))
                else:
                    render(item, inner)
                opening = "," + inner
            append(newline + "}")
        elif kind is list:
            if not value:
                append("[]")
                return
            inner = newline + "  "
            if set(map(type, value)) == _INT_ONLY:
                append(f"[{inner}{(',' + inner).join(map(str, value))}{newline}]")
                return
            opening = "[" + inner
            for item in value:
                append(opening)
                render(item, inner)
                opening = "," + inner
            append(newline + "]")
        else:
            append(_render_scalar(value))

    render(document, "\n")
    return "".join(chunks)


def _perm_payload(p: Permutation) -> dict:
    payload: dict = {"entries": list(p.entries)}
    if p.degree <= 9:
        payload["compact"] = p.to_text()
    return payload


def _word_payload(letters: tuple[int, ...], degree: int) -> dict:
    payload: dict = {"letters": list(letters)}
    if degree <= 10:
        payload["compact"] = _letters_text(letters, degree)
    return payload


def _words_result(args, inputs: dict, words: list[tuple[int, ...]], degree: int):
    # build only the requested format: one rendering per word
    if args.format == "json":
        payloads = [_word_payload(w, degree) for w in words]
        return inputs, {"count": len(words), "words": payloads}, [], 0
    return inputs, {}, [_letters_text(w, degree) for w in words], 0


def _resolve_max_words(args) -> int:
    if args.max_words is not None:
        if args.max_words < 1:
            raise ValueError(f"--max-words must be positive, got {args.max_words}")
        return args.max_words
    raw = os.environ.get("REDWORD_MAX_WORDS")
    if raw:
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"REDWORD_MAX_WORDS is not an integer: {raw!r}")
        if cap < 1:
            raise ValueError(f"REDWORD_MAX_WORDS must be positive, got {cap}")
        return cap
    return DEFAULT_MAX_WORDS


def _cmd_eval(args):
    word = Word.from_text(args.word, args.n)
    p = word.evaluate()
    inputs = {"n": args.n, "word": args.word}
    results = {"permutation": _perm_payload(p)}
    return inputs, results, [p.to_text()], 0


def _cmd_reduced_words(args):
    p = Permutation.from_text(args.permutation)
    cap = _resolve_max_words(args)
    inputs = {
        "permutation": p.to_text(),
        "count_only": bool(args.count_only),
        "max_words": cap,
    }
    if args.count_only:
        count = count_reduced_words(p)
        return inputs, {"count": count}, [str(count)], 0
    return _words_result(args, inputs, _word_list(p, cap), p.degree)


def _cmd_classes(args):
    p = Permutation.from_text(args.permutation)
    cap = _resolve_max_words(args)
    inputs = {"permutation": p.to_text(), "max_words": cap}
    partition = class_partition(p, cap)
    n = p.degree
    if args.format == "json":
        results = {
            "class_count": len(partition.classes),
            "total_words": partition.total_words,
            "classes": [
                {
                    "representative": _word_payload(cls.words[0], n),
                    "size": len(cls.words),
                    "members": [_word_payload(m, n) for m in cls.words],
                }
                for cls in partition.classes
            ],
        }
        return inputs, results, [], 0
    lines = [f"{len(partition.classes)} classes, {partition.total_words} words"]
    lines += [
        " ".join([_letters_text(m, n) for m in cls.words])
        for cls in partition.classes
    ]
    return inputs, {}, lines, 0


def _cmd_singletons(args):
    p = Permutation.from_text(args.permutation)
    inputs = {"permutation": p.to_text()}
    words = kernels.singleton_word_list(p.entries)
    return _words_result(args, inputs, words, p.degree)


def _cmd_longest(args):
    n = args.n
    word = long_element_singleton(n)
    symmetries = sorted(long_element_class(n))
    inputs = {"degree": n}
    if args.format == "json":
        results = {
            "degree": n,
            "word": _word_payload(word.letters, n),
            "symmetries": [_word_payload(w.letters, n) for w in symmetries],
        }
        return inputs, results, [], 0
    return inputs, {}, [w.to_text() for w in (word, *symmetries)], 0


def _cmd_verify(args):
    inputs = {"max_n": args.max_n, "sweep_bound": args.sweep_bound}
    report = verify_theorem_sweep(args.max_n, args.sweep_bound)
    zigzag = verify_zigzag_sweep(args.max_n)
    violations = list(report.violations) + list(zigzag.violations)
    lines = [
        f"checked {report.words_checked} singleton words up to degree"
        f" {report.max_degree} ({report.degenerate_words} degenerate skipped,"
        f" {report.checks_run} checks)",
        f"checked {zigzag.cases_checked} zigzag cases up to degree"
        f" {zigzag.max_degree}",
    ]
    for v in violations:
        lines.append(f"violation {v.check} on {v.subject}: {v.detail}")
    lines.append(f"{len(violations)} violations")
    results = {
        "max_degree": args.max_n,
        "singleton_words_checked": report.words_checked,
        "degenerate_words": report.degenerate_words,
        "checks_run": report.checks_run,
        "zigzag_cases_checked": zigzag.cases_checked,
        "violation_count": len(violations),
        "violations": [
            {"check": v.check, "subject": v.subject, "detail": v.detail}
            for v in violations
        ],
    }
    return inputs, results, lines, 0 if not violations else 1


def _cmd_search(args):
    inputs = {
        "n": args.n,
        "class_count": args.class_count,
        "sweep_bound": args.sweep_bound,
    }
    result = search_by_class_count(args.n, args.class_count, args.sweep_bound)
    if args.format == "json":
        results = {
            "degree": result.degree,
            "target_count": result.target_count,
            "matches": [
                {
                    "permutation": _perm_payload(p),
                    "words": [_word_payload(w.letters, w.degree) for w in words],
                }
                for p, words in result.matches
            ],
        }
        return inputs, results, [], 0
    lines = [f"{len(result.matches)} matches"]
    for p, words in result.matches:
        lines.append(" ".join([f"{p.to_text()}:", *(w.to_text() for w in words)]))
    return inputs, {}, lines, 0


def _cmd_zigzag(args):
    check = check_zigzag_lemma(args.i, args.j, args.n)
    inputs = {"i": args.i, "j": args.j, "n": args.n}
    results = {
        "word": _word_payload(check.word.letters, check.word.degree),
        "reduced": check.reduced,
        "evaluated_length": check.evaluated_length,
        "permutation": _perm_payload(check.permutation),
        "window_matches": check.window_matches,
    }
    lines = [
        f"word {check.word.to_text()}",
        f"reduced {str(check.reduced).lower()}",
        f"evaluated-length {check.evaluated_length}",
        f"permutation {check.permutation.to_text()}",
        f"window-matches {str(check.window_matches).lower()}",
    ]
    return inputs, results, lines, 0


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=["text", "json"], default="text",
        help="output format (default text)",
    )

    parser = argparse.ArgumentParser(
        prog="redword",
        description="Reduced words of permutations and their commutation classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser(
        "eval", parents=[common], help="evaluate a word to a permutation"
    )
    p_eval.add_argument("--n", type=int, required=True, help="ambient degree")
    p_eval.add_argument("word", help="letter string, e.g. 123 or 1,2,3")
    p_eval.set_defaults(func=_cmd_eval)

    p_rw = sub.add_parser(
        "reduced-words", parents=[common],
        help="enumerate or count all reduced words of a permutation",
    )
    p_rw.add_argument("permutation", help="one-line notation, e.g. 2341")
    p_rw.add_argument("--count-only", action="store_true",
                      help="print only the count")
    p_rw.add_argument("--max-words", type=int, default=None,
                      help=f"enumeration cap (default {DEFAULT_MAX_WORDS})")
    p_rw.set_defaults(func=_cmd_reduced_words)

    p_cl = sub.add_parser(
        "classes", parents=[common],
        help="partition the reduced words into commutation classes",
    )
    p_cl.add_argument("permutation")
    p_cl.add_argument("--max-words", type=int, default=None)
    p_cl.set_defaults(func=_cmd_classes)

    p_si = sub.add_parser(
        "singletons", parents=[common],
        help="reduced words that are their own commutation class",
    )
    p_si.add_argument("permutation")
    p_si.set_defaults(func=_cmd_singletons)

    p_lo = sub.add_parser(
        "longest", parents=[common],
        help="the block word of the order-reversing permutation, with symmetries",
    )
    p_lo.add_argument("n", type=int, help="degree, at least 2")
    p_lo.set_defaults(func=_cmd_longest)

    p_ve = sub.add_parser(
        "verify", parents=[common],
        help="exhaustively check the structural laws of singleton words",
    )
    p_ve.add_argument("--max-n", type=int, required=True)
    p_ve.add_argument("--sweep-bound", type=int, default=SINGLETON_SWEEP_BOUND)
    p_ve.set_defaults(func=_cmd_verify)

    p_se = sub.add_parser(
        "search", parents=[common],
        help="permutations with a given singleton-word count",
    )
    p_se.add_argument("--n", type=int, required=True)
    p_se.add_argument("--class-count", type=int, required=True)
    p_se.add_argument("--sweep-bound", type=int, default=SINGLETON_SWEEP_BOUND)
    p_se.set_defaults(func=_cmd_search)

    p_zz = sub.add_parser(
        "zigzag", parents=[common],
        help="build and inspect the ascending-descending-ascending word",
    )
    p_zz.add_argument("--i", type=int, required=True)
    p_zz.add_argument("--j", type=int, required=True)
    p_zz.add_argument("--n", type=int, required=True)
    p_zz.set_defaults(func=_cmd_zigzag)

    return parser


def run(argv: list[str] | None = None) -> int:
    """
    Run one command and return its exit code; results go to stdout.

    >>> run(["eval", "--n", "4", "123"])
    2341
    0
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    start = time.perf_counter()
    try:
        inputs, results, lines, code = args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EnumerationCapExceeded, SweepBoundExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RecursionError, MemoryError) as exc:
        print(f"error: input too large: {exc!r}", file=sys.stderr)
        return 3
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    try:
        if args.format == "json":
            document = {"command": args.command, "inputs": inputs, "results": results}
            print(_render_json(document))
        else:
            for line in lines:
                print(line)
        # a buffered write fails here rather than at interpreter exit
        sys.stdout.flush()
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            # the flush at exit would fail again; the signal module docs
            # advise pointing stdout at devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 3
    print(f"elapsed_ms {elapsed_ms:.3f}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
