"""Command-line behavior: output bytes, exit codes, diagnostics."""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest
from conftest import run_package

import redword
from redword.cli import _render_json, run
from redword.perm import Permutation
from redword.words import Word


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_permutation():
    # the commands read permutation arguments with Permutation.from_text
    assert Permutation.from_text("2341").entries == (2, 3, 4, 1)
    assert Permutation.from_text("7,2,6,5,4,1,3").entries == (7, 2, 6, 5, 4, 1, 3)
    with pytest.raises(ValueError, match="value 3 repeated"):
        Permutation.from_text("2331")
    with pytest.raises(ValueError, match="invalid entry 'x' at position 2"):
        Permutation.from_text("1x3")
    with pytest.raises(ValueError, match="empty"):
        Permutation.from_text("  ")


def test_parse_word():
    # the commands read word arguments with Word.from_text
    assert Word.from_text("123212", 4).letters == (1, 2, 3, 2, 1, 2)
    assert Word.from_text("4345654321234543", 7).to_text() == "4345654321234543"
    with pytest.raises(ValueError, match="letter 5 exceeds n-1 = 3 at position 2"):
        Word.from_text("15", 4)


def test_eval_command(capsys):
    code, out, err = invoke(capsys, "eval", "--n", "4", "123")
    assert code == 0
    assert out == "2341\n"
    assert err.startswith("elapsed_ms ")


def test_eval_json(capsys):
    code, out, _ = invoke(capsys, "eval", "--n", "4", "123", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["command"] == "eval"
    assert document["inputs"] == {"n": 4, "word": "123"}
    assert document["results"]["permutation"]["entries"] == [2, 3, 4, 1]
    assert document["results"]["permutation"]["compact"] == "2341"


def test_output_is_byte_identical_across_runs(capsys):
    first = invoke(capsys, "singletons", "7,2,6,5,4,1,3", "--format", "json")
    second = invoke(capsys, "singletons", "7,2,6,5,4,1,3", "--format", "json")
    assert first[0] == second[0] == 0
    assert first[1] == second[1]


def test_sweeps_take_no_thread_option(capsys):
    code, out, _ = invoke(capsys, "verify", "--max-n", "4", "--threads", "2")
    assert code == 2
    assert out == ""


def test_parse_errors_exit_2(capsys):
    code, out, err = invoke(capsys, "eval", "--n", "4", "15")
    assert code == 2
    assert out == ""
    assert "letter 5 exceeds n-1 = 3 at position 2" in err

    code, _, err = invoke(capsys, "reduced-words", "2331")
    assert code == 2
    assert "value 3 repeated" in err

    # digits outside ASCII are no entries or letters, though str.isdigit
    # accepts them
    code, out, err = invoke(capsys, "eval", "--n", "4", "１２")
    assert (code, out) == (2, "")
    assert "invalid letter '１' at position 1" in err
    code, out, err = invoke(capsys, "reduced-words", "٢١")
    assert (code, out) == (2, "")
    assert "invalid entry '٢' at position 1" in err

    code, _, _ = invoke(capsys, "no-such-command")
    assert code == 2

    code, _, _ = invoke(capsys)
    assert code == 2


def test_reduced_words_command(capsys):
    code, out, _ = invoke(capsys, "reduced-words", "321")
    assert code == 0
    assert out == "121\n212\n"

    code, out, _ = invoke(capsys, "reduced-words", "4321", "--count-only")
    assert code == 0
    assert out == "16\n"


def test_reduced_words_cap_exits_3(capsys):
    code, out, err = invoke(capsys, "reduced-words", "4321", "--max-words", "5")
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_long_cycle_is_counted(capsys):
    # the cycle 2,3,...,1100,1 has one reduced word of 1099 letters, deeper
    # than Python's default recursion limit; no kernel recurses
    cycle = ",".join(map(str, [*range(2, 1101), 1]))
    code, out, _ = invoke(capsys, "reduced-words", cycle, "--count-only")
    assert (code, out) == (0, "1\n")


def test_recursion_limit_exits_3(capsys, monkeypatch):
    def too_deep(p):
        raise RecursionError("maximum recursion depth exceeded")

    monkeypatch.setattr("redword.cli.count_reduced_words", too_deep)
    code, out, err = invoke(capsys, "reduced-words", "4321", "--count-only")
    assert code == 3
    assert out == ""
    assert err.startswith("error: input too large: RecursionError(")
    assert "Traceback" not in err


def test_cap_env_var_and_flag_priority(capsys, monkeypatch):
    monkeypatch.setenv("REDWORD_MAX_WORDS", "5")
    code, _, _ = invoke(capsys, "reduced-words", "4321")
    assert code == 3
    # the flag outranks the environment
    code, out, _ = invoke(capsys, "reduced-words", "4321", "--max-words", "100")
    assert code == 0
    assert len(out.splitlines()) == 16

    monkeypatch.setenv("REDWORD_MAX_WORDS", "banana")
    code, _, err = invoke(capsys, "reduced-words", "4321")
    assert code == 2
    assert "REDWORD_MAX_WORDS" in err


def test_classes_command(capsys):
    code, out, _ = invoke(capsys, "classes", "4321")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "8 classes, 16 words"
    assert len(lines) == 9

    code, out, _ = invoke(capsys, "classes", "2143")
    assert out.splitlines() == ["1 classes, 2 words", "13 31"]


# 26 classes of 7887 words: class order, member order and rendering in
# both formats are part of the output contract
CLASSES_DIGESTS = {
    ("classes", "2761534", "--format", "text"):
        "0377739fc2254c74498a895fe12f8510c02052e186445e34c5d7bfd129a2232f",
    ("classes", "2761534", "--format", "json"):
        "07c721575501bab04a0c12ee02b921be0190f629247d0c00c6c0888e39de561a",
}

# each command renders only the requested format; the bytes are the output
# contract
WORD_LIST_DIGESTS = {
    ("reduced-words", "4321"):
        "a7c14241849cdfde65da87d30edb082d0c8da43a73552c53407774dbdeb7c626",
    ("reduced-words", "4321", "--format", "json"):
        "eb779ab3e38d347226648e1d79f9f4c0cf7734b7fd7f4f3dcc5393f7cbb271b6",
    ("singletons", "7,2,6,5,4,1,3"):
        "ca1411987ef1dbc0ea373e9970d94b73ffec9d5d917ef3782bafbb5e7655568a",
    ("singletons", "7,2,6,5,4,1,3", "--format", "json"):
        "941eff0d5b2958d46da6ef50e33a825bd5cd8e871f8fc67c77afc50d64cee77d",
    ("verify", "--max-n", "6"):
        "9a3a3bd5d57518ff409836f228a6cfd17fbc5b27cc90dab1fb3ba1963098cc23",
    ("search", "--n", "6", "--class-count", "2"):
        "86ef4133a2c8037e7eda8d02bf81b7684b2df5f7dca1f6b2e1b88afb1e7295bb",
}


def test_classes_output_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.delenv("REDWORD_MAX_WORDS", raising=False)
    for argv, digest in CLASSES_DIGESTS.items():
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_word_output_commands_build_no_word(capsys, monkeypatch):
    # classes, reduced-words and singletons render the kernel's letter
    # tuples directly; a Word is built only where a caller asks for one
    built = []
    original = Word.__post_init__

    def counted(self):
        built.append(self.letters)
        original(self)

    monkeypatch.setattr(Word, "__post_init__", counted)
    for argv in (
        ("classes", "2761534"),
        ("reduced-words", "2761534"),
        ("singletons", "7,2,6,5,4,1,3"),
    ):
        for fmt in ("text", "json"):
            code, out, _ = invoke(capsys, *argv, "--format", fmt)
            assert code == 0 and out
    assert built == []
    # the count sees constructions: longest builds its words
    assert invoke(capsys, "longest", "4")[0] == 0
    assert built


def test_singletons_command(capsys):
    code, out, _ = invoke(capsys, "singletons", "7,2,6,5,4,1,3")
    assert code == 0
    assert out.splitlines() == [
        "3456543212345434",
        "4345654321234543",
        "4543456543212345",
        "5434565432123454",
    ]

    code, out, _ = invoke(capsys, "singletons", "2143")
    assert code == 0
    assert out == ""


def test_longest_command(capsys):
    code, out, _ = invoke(capsys, "longest", "5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "1234321232"
    assert len(lines) == 5  # the word, then its four symmetries sorted

    code, _, err = invoke(capsys, "longest", "1")
    assert code == 2
    assert "degree" in err


def test_verify_command(capsys):
    code, out, _ = invoke(capsys, "verify", "--max-n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "0 violations"
    assert "7 singleton words" in lines[0]

    code, _, err = invoke(capsys, "verify", "--max-n", "9")
    assert code == 3
    assert "bound" in err

    # a sweep over no degree at all must not report success
    for max_n in ("0", "-3"):
        code, out, err = invoke(capsys, "verify", "--max-n", max_n)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


def test_verify_json(capsys):
    code, out, _ = invoke(capsys, "verify", "--max-n", "3", "--format", "json")
    assert code == 0
    document = json.loads(out)
    results = document["results"]
    assert results["violation_count"] == 0
    assert results["singleton_words_checked"] == 7
    assert results["degenerate_words"] == 3
    assert results["violations"] == []

    code, out, _ = invoke(capsys, "verify", "--max-n", "5", "--format", "json")
    assert code == 0
    document = json.loads(out)
    assert document["inputs"] == {"max_n": 5, "sweep_bound": 7}
    assert document["results"] == {
        "checks_run": 744,
        "degenerate_words": 5,
        "max_degree": 5,
        "singleton_words_checked": 120,
        "violation_count": 0,
        "violations": [],
        "zigzag_cases_checked": 10,
    }


def test_search_command(capsys):
    code, out, _ = invoke(capsys, "search", "--n", "4", "--class-count", "0")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].endswith("matches")
    assert "2143:" in lines

    code, _, err = invoke(capsys, "search", "--n", "8", "--class-count", "4")
    assert code == 3
    assert "bound" in err

    for n in ("0", "-1"):
        code, out, err = invoke(capsys, "search", "--n", n, "--class-count", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    # no permutation has a negative count; 0 is a count (2143 has it)
    code, out, err = invoke(capsys, "search", "--n", "3", "--class-count", "-1")
    assert (code, out) == (2, "")
    assert err == "error: class count -1 is negative\n"


def test_zigzag_command(capsys):
    code, out, _ = invoke(capsys, "zigzag", "--i", "1", "--j", "3", "--n", "4")
    assert code == 0
    assert out.splitlines() == [
        "word 1232123",
        "reduced false",
        "evaluated-length 5",
        "permutation 4312",
        "window-matches true",
    ]

    code, _, err = invoke(capsys, "zigzag", "--i", "3", "--j", "1", "--n", "4")
    assert code == 2
    assert "need 1 <= i < j <= n-1" in err


def test_json_word_payload_shape(capsys):
    code, out, _ = invoke(
        capsys, "singletons", "7,2,6,5,4,1,3", "--format", "json"
    )
    assert code == 0
    words = json.loads(out)["results"]["words"]
    assert len(words) == 4
    assert words[0]["letters"] == [3, 4, 5, 6, 5, 4, 3, 2, 1, 2, 3, 4, 5, 4, 3, 4]
    assert words[0]["compact"] == "3456543212345434"


def test_round_trip_parse_format_parse(capsys):
    code, out, _ = invoke(capsys, "eval", "--n", "7", "4345654321234543")
    assert code == 0
    assert Permutation.from_text(out.strip()).entries == (7, 2, 6, 5, 4, 1, 3)


def test_word_list_output_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.delenv("REDWORD_MAX_WORDS", raising=False)
    for argv, digest in WORD_LIST_DIGESTS.items():
        code, out, _ = invoke(capsys, *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_pinned_output_bytes_hold_on_the_compiled_backend(
    built_package, monkeypatch
):
    # the tests import redword from src/, where no extension is built, so
    # the pins above run on the pure backend; here they run on a fresh build
    monkeypatch.delenv("REDWORD_MAX_WORDS", raising=False)
    for argv, digest in {**CLASSES_DIGESTS, **WORD_LIST_DIGESTS}.items():
        backend, out = run_package(built_package, list(argv))
        assert backend == "compiled"
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def _cli_env():
    """The environment for a fresh ``python -m redword.cli`` of the package
    these tests import, with the default word cap."""
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(redword.__file__).parents[1]))
    env.pop("REDWORD_MAX_WORDS", None)
    return env


def test_closed_pipe_exits_3_without_traceback():
    # as in `redword reduced-words 654321 | head -1`: 292,864 words, far
    # more than a pipe buffer holds
    proc = subprocess.Popen(
        [sys.executable, "-m", "redword.cli", "reduced-words", "654321"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_cli_env(),
    )
    assert proc.stdout.readline() == b"121321432154321\n"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 3
    assert err.startswith("error: cannot write output: [Errno 32]")
    assert "Traceback" not in err and "Exception ignored" not in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_disk_exits_3_without_traceback():
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "redword.cli", "classes", "4321"],
            stdout=full, stderr=subprocess.PIPE, text=True, env=_cli_env(),
        )
    assert done.returncode == 3
    assert done.stderr.startswith("error: cannot write output: [Errno 28]")
    assert "Traceback" not in done.stderr
    assert "Exception ignored" not in done.stderr


def _json_argvs():
    for n in range(1, 6):
        for entries in itertools.permutations(range(1, n + 1)):
            p = "".join(map(str, entries))
            yield "reduced-words", p
            yield "reduced-words", p, "--count-only"
            yield "classes", p
            yield "singletons", p
    for n in range(2, 9):
        yield "longest", str(n)
    for n in range(1, 7):
        yield "verify", "--max-n", str(n)
        for k in range(6):
            yield "search", "--n", str(n), "--class-count", str(k)
    for i, j, n in ((1, 3, 4), (1, 2, 3), (2, 4, 6), (1, 4, 5), (3, 1, 4)):
        yield "zigzag", "--i", str(i), "--j", str(j), "--n", str(n)
    yield "eval", "--n", "4", "123"
    yield "eval", "--n", "12", "11"
    yield "reduced-words", "54321", "--max-words", "767"
    yield "verify", "--max-n", "0"


def test_json_renderer_matches_json_dumps_on_every_command(capsys, monkeypatch):
    monkeypatch.delenv("REDWORD_MAX_WORDS", raising=False)
    rendered = []

    def checked(document):
        text = _render_json(document)
        assert text == json.dumps(document, indent=2, sort_keys=True)
        rendered.append(text)
        return text

    monkeypatch.setattr("redword.cli._render_json", checked)
    succeeded = failed = 0
    for argv in _json_argvs():
        before = len(rendered)
        code, out, _ = invoke(capsys, *argv, "--format", "json")
        if code == 0:
            succeeded += 1
            assert len(rendered) == before + 1
            assert out == rendered[-1] + "\n"
        else:
            failed += 1
            assert (len(rendered), out) == (before, "")
    assert len(rendered) == succeeded == 667
    assert failed == 3


def test_json_renderer_rejects_what_no_command_builds():
    class Count(int):
        pass

    for document in (
        {"x": 1.5},
        {"x": (1, 2)},
        {1: "a"},
        {"x": Count(3)},
        {"x": [1, Count(3)]},
    ):
        with pytest.raises(TypeError):
            _render_json(document)
