"""Run workload commands inside one Python process.

    python3 bench/inproc.py --workload W --seed N --workdir DIR --out FILE --loop SECONDS
        the timed loop: run the workload's commands over and over, one
        at a time, for SECONDS seconds (at least three times each), and
        write every execution's latency and exit code, each command's
        distinct stdout texts, the reference timings and the peak RSS
        after the first pass to FILE;
    python3 bench/inproc.py --workload W --seed N --workdir DIR --out FILE [--trace]
        run the whole workload once, optionally with the layer tracer
        installed, and write per-command outcomes (and the trace) to FILE.

CLI commands call ``diagramalg.cli.main(argv)`` with stdout captured;
library commands call the ``diagramalg.combinatorics`` function.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time

import oracle
import workloads

SRC = os.path.join(os.path.dirname(workloads.HERE), "src")
MIN_EXECUTIONS = 3  # per command in the timed loop; the first is warm-up
REFERENCE_PAYLOAD = oracle.seeded_payload(0, m=4, factors=2, nterms=6)


def run_command(cmd: dict, cli) -> tuple[int, str]:
    if "lib" in cmd:
        return 0, workloads.call_library(cmd)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(cmd["argv"])
    return rc, buf.getvalue()


def reference_work() -> float:
    """Seconds taken by a fixed piece of work in the benchmark's own code:
    an oracle product (Fractions, dicts, frozensets) and small int64 numpy
    row updates, the two kinds of work diagramalg does.  Timed around
    every command, it tracks how fast the host is running at that moment."""
    import numpy

    start = time.perf_counter()
    oracle.product(REFERENCE_PAYLOAD)
    row = numpy.arange(300, dtype=numpy.int64)
    for i in range(300):
        row = (row * 7 + i) % 1000003
        row[i] = 0
    return time.perf_counter() - start


def timed_loop(commands: list[dict], cli, seconds: float) -> dict:
    """Closed loop, one command at a time, until ``seconds`` have passed
    and every command ran ``MIN_EXECUTIONS`` times.  Execution k runs
    between reference timings k and k + 1."""
    executions = []            # [command id, exit code, wall s, output index]
    outputs: dict[str, list[str]] = {c["id"]: [] for c in commands}
    counts = dict.fromkeys(outputs, 0)
    reference = [reference_work()]
    first_pass_maxrss_kib = None
    start = time.perf_counter()
    done = False
    while not done:
        if first_pass_maxrss_kib is None and executions:
            first_pass_maxrss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for cmd in commands:
            t0 = time.perf_counter()
            rc, out = run_command(cmd, cli)
            wall = time.perf_counter() - t0
            reference.append(reference_work())
            seen = outputs[cmd["id"]]
            if out not in seen:
                seen.append(out)
            executions.append([cmd["id"], rc, wall, seen.index(out)])
            counts[cmd["id"]] += 1
            if (time.perf_counter() - start >= seconds
                    and min(counts.values()) >= MIN_EXECUTIONS):
                done = True
                break
    return {"loop_s": time.perf_counter() - start, "executions": executions,
            "outputs": outputs, "reference_s": reference,
            "first_pass_maxrss_kib": first_pass_maxrss_kib}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--loop", type=float)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    from diagramalg import cli
    import_s = time.perf_counter() - t0

    commands = workloads.prepare(args.workload, args.seed, args.workdir, write=False)
    if args.loop is not None:
        report = timed_loop(commands, cli, args.loop)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    results = []
    pass_start = time.perf_counter()
    for cmd in commands:
        if tracer is not None:
            tracer.command = cmd["id"]
        start = time.perf_counter()
        rc, out = run_command(cmd, cli)
        results.append({"id": cmd["id"], "rc": rc, "stdout": out,
                        "wall_s": time.perf_counter() - start})
    wall_s = time.perf_counter() - pass_start
    report = {"import_s": import_s, "wall_s": wall_s, "commands": results}
    if tracer is not None:
        tracer.uninstall()
        report["metrics"] = tracer.metrics()
        report["graded_union_s"] = tracer.graded_union_s()
        report["trace"] = tracer.dump()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
