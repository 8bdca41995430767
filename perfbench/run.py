#!/usr/bin/env python3
"""The redword benchmark: one workload, end to end or traced by layer.

    python3 perfbench/run.py --workload quotient --seed 1 --seconds 20 --trace 0

Run from the root of a redword checkout.  It builds the package in place
(``setup.py build_ext --inplace``, which compiles whatever extension the
checkout's build defines), times fresh interpreters importing
``redword.cli``, runs the workload's seeded operation list in a process of
its own (``worker.py``), checks every output against the oracles in
``oracles.py`` and prints a report.  The last line of stdout is one JSON
object: the end-to-end metrics with ``--trace 0``, the per-layer metrics of
a traced pass with ``--trace 1``.  Run files go to ``.bench_build/perfbench``.

Exits 0 after printing a result, correct or not; exits non-zero without a
result when the checkout cannot be built or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from typing import NoReturn

import oracles
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SETUP_STARTS = 21  # interpreter starts timed for setup_s, after one untimed
MIN_OPS = 100  # timed operations per run, so ten samples lie beyond p90
MIN_PASSES = 4  # timed passes per run, for a median time of each operation
WORKER_TIMEOUT = 150


def fail(message: str, code: int = 1) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def child_env(nproc: int) -> dict[str, str]:
    """The user's environment, minus redword's own settings, with the
    checkout's sources first on the path.  The sweeps default to one thread
    per CPU the OS reports; cap that at the CPUs this process may use."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REDWORD_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    if (os.cpu_count() or 1) > nproc:
        env["REDWORD_THREADS"] = str(nproc)
    return env


def build(env: dict[str, str]) -> None:
    done = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=900,
    )
    if done.returncode != 0:
        fail(f"build failed:\n{done.stderr[-2000:]}")


def setup_seconds(env: dict[str, str]) -> list[float]:
    """A fresh interpreter until ``import redword.cli`` returns.  The clock
    is CLOCK_MONOTONIC, shared by parent and child."""
    code = "import time; import redword.cli; print(repr(time.perf_counter()))"
    samples = []
    for _ in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if done.returncode != 0:
            fail(f"cannot import redword.cli:\n{done.stderr[-2000:]}")
        samples.append(float(done.stdout) - start)
    return samples[1:]


def source_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for folder, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".pyx", ".c", ".h")):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() or "none"


CHECKS = {
    "classes": oracles.check_classes,
    "count": oracles.check_count,
    "singletons": oracles.check_singletons,
    "verify": oracles.check_verify,
    "search": oracles.check_search,
}


def check(ref: oracles.Reference, op, record: dict) -> list[str]:
    if record["error"]:
        return [record["error"]]
    if record["code"] != 0:
        return [f"exit code {record['code']}"]
    try:
        return CHECKS[op.kind](ref, *op.subject, record["stdout"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def check_digest(key: str, digest: str) -> str | None:
    """The same argv list must print the same bytes in every run."""
    path = os.path.join(RUN_DIR, "digests.json")
    seen = {}
    if os.path.exists(path):
        with open(path) as fh:
            seen = json.load(fh)
    if seen.setdefault(key, digest) != digest:
        return f"stdout digest {digest} differs from {seen[key]} of an earlier run"
    with open(path + ".tmp", "w") as fh:
        json.dump(seen, fh, indent=1, sort_keys=True)
    os.replace(path + ".tmp", path)
    return None


def in_units(cpus: list[list[float]], units: list[list[float]]) -> list[list[float]]:
    """Each operation's CPU time over the mean of the calibration loops timed
    just before and just after it: its cost in calibration loops, which the
    shared machine's swings in speed move far less than the time itself."""
    return [[cpu / ((before + after) / 2) for cpu, before, after in zip(row, unit, unit[1:])]
            for row, unit in zip(cpus, units)]


def layer_metrics(trace: dict, untraced_wall: float) -> dict[str, tuple[float, str]]:
    s, c = trace["self_s"], trace["counts"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}
    for layer in ("kernels.list", "kernels.count", "kernels.singleton", "classes",
                  "singleton.theorem", "singleton.runs", "singleton.lemma",
                  "singleton.sweep", "cli", "words", "perm", "bench"):
        out[f"{layer}.self_s"] = (s.get(layer, 0.0), "s")
    for name in ("kernels.list.calls", "kernels.list.words_out", "kernels.count.calls",
                 "kernels.singleton.calls", "kernels.singleton.words_out",
                 "classes.words_in", "classes.classes_out",
                 "words.constructed", "perm.constructed"):
        out[name] = (c.get(name, 0), "count")
    out["kernels.singleton.hit_ratio"] = (
        ratio(c.get("kernels.singleton.hits", 0), c.get("kernels.singleton.calls", 0)), "ratio")
    out["classes.words_per_class"] = (
        ratio(c.get("classes.words_in", 0), c.get("classes.classes_out", 0)), "words/class")
    out["singleton.words_checked"] = (c.get("singleton.theorem.calls", 0), "count")
    out["cli.stdout_bytes"] = (trace["stdout_bytes"], "bytes")
    out["trace.wall_s"] = (trace["wall_s"], "s")
    out["trace.overhead_s"] = (trace["wall_s"] - untraced_wall, "s")
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in ("setup.py", os.path.join("src", "redword", "cli.py")):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail(f"{needed} is missing: run from the root of a redword checkout", 2)
    os.makedirs(RUN_DIR, exist_ok=True)
    nproc = len(os.sched_getaffinity(0))
    env = child_env(nproc)
    build(env)

    ref = oracles.Reference()
    ops = WORKLOADS[args.workload](args.seed, ref)
    setup = setup_seconds(env)

    stem = os.path.join(RUN_DIR, f"{args.workload}-{args.seed}")
    config = {
        "root": ROOT, "ops": [op.argv for op in ops], "seconds": args.seconds,
        "min_ops": MIN_OPS, "min_passes": MIN_PASSES, "trace": bool(args.trace),
        "outputs_path": stem + ".outputs.jsonl", "trace_path": stem + ".spans.json",
    }
    try:
        done = subprocess.run([sys.executable, os.path.join(HERE, "worker.py")],
                              input=json.dumps(config), cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=WORKER_TIMEOUT)
    except subprocess.TimeoutExpired:
        fail(f"the workload did not finish within {WORKER_TIMEOUT} s")
    if done.returncode != 0:
        fail(f"the workload process failed:\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.splitlines()[-1])
    with open(stem + ".samples.json", "w") as fh:
        json.dump({"ops": config["ops"], "walls": result["walls"], "cpus": result["cpus"],
                   "units": result["units"], "setup": setup}, fh)

    problems = {}
    with open(config["outputs_path"]) as fh:
        for index, (op, line) in enumerate(zip(ops, fh)):
            found = check(ref, op, json.loads(line))
            if found:
                problems[index] = found
    mismatched = {tuple(m) for m in result["mismatches"]}
    attempted = result["passes"] * len(ops)
    failed = sum(
        1 for p in range(result["passes"]) for i in range(len(ops))
        if i in problems or (p, i) in mismatched
    )
    notes = [f"{' '.join(ops[i].argv)}: {'; '.join(found[:3])}" for i, found in problems.items()]
    notes += [f"pass {p}: output of {' '.join(ops[i].argv)} changed" for p, i in sorted(mismatched)]
    key = hashlib.sha256(json.dumps([args.workload, config["ops"]]).encode()).hexdigest()
    digest_note = check_digest(key, result["digest"])
    if digest_note:
        notes.append(digest_note)

    walls, cpus, units = result["walls"], result["cpus"], result["units"]
    costs = in_units(cpus, units)
    cost_samples = [c for timed in costs for c in timed]
    wall_samples = [t for timed in walls for t in timed]
    end_to_end = {
        "setup_s": (statistics.median(setup), "s"),
        "cost_ref": (sum(map(statistics.median, zip(*costs))), "ref"),
        "op_p50_ref": (statistics.median(cost_samples), "ref"),
        "op_p90_ref": (statistics.quantiles(cost_samples, n=10)[8], "ref"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    unit_ms = statistics.median(u for timed in units for u in timed) * 1000
    raw = {  # printed, not gated: they swing with the shared machine's speed
        "cpu_s": (statistics.median(map(sum, cpus)), "s"),
        "wall_s": (statistics.median(map(sum, walls)), "s"),
        "op_p50_ms": (statistics.median(wall_samples) * 1000, "ms"),
        "op_p90_ms": (statistics.quantiles(wall_samples, n=10)[8] * 1000, "ms"),
    }
    print(f"perfbench {args.workload} seed={args.seed} backend={result['backend']}"
          f" python={sys.version.split()[0]} commit={git_commit()}"
          f" source={source_digest()[:16]} nproc={nproc}"
          f" threads={env.get('REDWORD_THREADS', os.cpu_count())}")
    print(f"  {len(ops)} operations per pass, one client, closed loop; stdout sha256"
          f" {result['digest']}")
    count = len(cost_samples)
    samples = {
        "setup_s": f"median of {len(setup)} interpreter starts",
        "cost_ref": f"sum over operations of each one's median over {len(costs)} timed passes",
        "op_p50_ref": f"{count} samples",
        "op_p90_ref": f"{count} samples, {count // 10} beyond",
        "peak_rss_mb": "the workload process, over its first pass",
        "cpu_s": f"median of {len(cpus)} timed passes",
        "wall_s": f"median of {len(walls)} timed passes",
        "op_p50_ms": f"{count} samples",
        "op_p90_ms": f"{count} samples, {count // 10} beyond",
    }
    print(f"  1 ref = {unit_ms:.4f} ms here, the median of {count + len(units)} calibration loops")
    for name, (value, unit) in {**end_to_end, **raw}.items():
        print(f"  {name:<14} {value:>12.4f} {unit:<3} ({samples[name]})")
    print(f"  {'error_rate':<14} {failed / attempted:>12.4f}     "
          f"({failed} of {attempted} operations failed)")
    for note in notes[:20]:
        print(f"  FAILED {note}", file=sys.stderr)

    correct = failed == 0 and digest_note is None
    if args.trace:
        trace = result["trace"]
        metrics = layer_metrics(trace, raw["wall_s"][0])
        attributed = sum(trace["self_s"].values())
        if abs(attributed - trace["wall_s"]) > 1e-6:
            correct = False
            print(f"  FAILED layer self times add up to {attributed} s, not the traced"
                  f" wall {trace['wall_s']} s", file=sys.stderr)
        print(f"  traced pass: {trace['spans']} spans in {config['trace_path']}")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<28} {value:>14.6g} {unit}")
    else:
        metrics = end_to_end
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
