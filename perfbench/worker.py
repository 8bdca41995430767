"""Runs one workload's operation list through ``redword.cli.run`` in this
process, as a closed loop with one client, and prints one JSON result line.

Reads its configuration as JSON on stdin (see ``run.py``).  The first pass
warms up and writes every output to a file for the oracles; it is not timed.
Timed passes follow until the run has measured long enough and holds enough
operations; each of their outputs must hash to what the first pass printed.
Every operation is timed twice: by the wall clock and by the CPU time of
this process, all its threads together, which leaves out the time the
process waited for a CPU.  A fixed calibration loop is timed just before
each operation of a timed pass and once after its last.  The heap is
collected before each operation, untimed, so that no operation pays for the
garbage of the one before.
With tracing on, one traced pass follows the timed ones.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time


CALIBRATION_STEPS = 8000


def calibrate() -> float:
    """CPU seconds of a fixed loop of the dict, tuple, int and str work that
    pure-Python redword does, which no change to redword can alter.  Timed
    next to every operation, it gives the speed the shared machine ran at
    that moment."""
    start = time.process_time()
    table: dict[tuple[int, int], int] = {}
    for i in range(CALIBRATION_STEPS):
        key = (i % 97, i * 7919 % 1009)
        table[key] = table.get(key, 0) + len(str(i))
    return time.process_time() - start


def run_op(cli, argv: list[str]) -> tuple[float, float, int | None, str, str]:
    """One operation: (wall seconds, CPU seconds, exit code, stdout, error).
    An exception is recorded as the error, with no exit code."""
    out = io.StringIO()
    error = ""
    code = None
    start, start_cpu = time.perf_counter(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.run(argv)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - start, time.process_time() - start_cpu
    return wall, cpu, code, out.getvalue(), error


def main() -> None:
    config = json.load(sys.stdin)
    import redword
    import redword.cli as cli

    expected_root = os.path.join(config["root"], "src", "redword")
    if os.path.dirname(os.path.abspath(redword.__file__)) != expected_root:
        sys.exit(f"redword was imported from {redword.__file__}, not {expected_root}")

    argvs = config["ops"]
    digests = []
    workload_digest = hashlib.sha256()
    with open(config["outputs_path"], "w") as fh:
        for argv in argvs:
            gc.collect()
            _, _, code, out, error = run_op(cli, argv)
            data = out.encode()
            digests.append(hashlib.sha256(data).hexdigest())
            workload_digest.update(data)
            fh.write(json.dumps({"code": code, "error": error, "stdout": out}) + "\n")
    # over one pass of the list, so that it does not grow with the pass count
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def differs(index: int, code, out: str, error: str) -> bool:
        digest = hashlib.sha256(out.encode()).hexdigest()
        return bool(error) or code != 0 or digest != digests[index]

    walls: list[list[float]] = []  # per timed pass, per operation
    cpus: list[list[float]] = []
    units: list[list[float]] = []  # the calibration loop around each operation
    mismatches = []  # (pass, op index) whose output changed since the first pass
    while (
        sum(map(sum, walls)) < config["seconds"]
        or len(walls) * len(argvs) < config["min_ops"]
        or len(walls) < config["min_passes"]
    ):
        walls.append([])
        cpus.append([])
        units.append([])
        for index, argv in enumerate(argvs):
            gc.collect()
            units[-1].append(calibrate())
            wall, cpu, code, out, error = run_op(cli, argv)
            walls[-1].append(wall)
            cpus[-1].append(cpu)
            if differs(index, code, out, error):
                mismatches.append([len(walls), index])
        gc.collect()
        units[-1].append(calibrate())

    result = {
        "backend": redword.KERNEL_BACKEND,
        "digest": workload_digest.hexdigest(),
        "walls": walls,
        "cpus": cpus,
        "units": units,
        "passes": len(walls) + 1,
        "mismatches": mismatches,
        "peak_rss_mb": peak_rss_mb,
    }
    if config["trace"]:
        result["trace"] = traced_pass(cli, argvs, differs, config["trace_path"])
        result["passes"] += 1
        mismatches += [[result["passes"] - 1, i] for i in result["trace"].pop("mismatches")]
    print(json.dumps(result))


def traced_pass(cli, argvs, differs, trace_path: str) -> dict:
    from tracing import Tracer, installed, self_times

    tracer = Tracer()
    stdout_bytes = 0
    mismatches = []
    with installed(tracer):
        for index, argv in enumerate(argvs):
            gc.collect()
            with tracer.span("bench"):
                _, _, code, out, error = run_op(cli, argv)
            stdout_bytes += len(out.encode())
            if differs(index, code, out, error):
                mismatches.append(index)
    tracer.write(trace_path)
    wall = sum(e - s for s, e, layer, _ in tracer.spans if layer == "bench")
    return {
        "wall_s": wall,
        "self_s": self_times(tracer.spans),
        "counts": dict(tracer.totals()),
        "stdout_bytes": stdout_bytes,
        "spans": len(tracer.spans),
        "mismatches": mismatches,
    }


if __name__ == "__main__":
    main()
