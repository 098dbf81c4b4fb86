"""Time-to-verdict benchmark for diagramalg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: it times a no-work CLI invocation several times (set-up), and
in between runs the workload's commands in one child process, one at a
time and over and over, for ``--seconds`` seconds.  Latencies are
scaled to a fixed host speed by a reference work timed around each
command (see ``bench/README.md``) and reported as medians over the run.  Every output is checked against
``bench/expected.json``, and stdout bytes must repeat exactly from one
execution of a command to the next.  ``--trace 1`` measures the per-layer
metrics: it runs the workload once untraced and once traced, each inside
one child process, and derives layer times and counts from the trace.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric with its unit, and a run record plus the raw outcomes go to
``bench/out/``.
"""
from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(BENCH, "out")
WORK = os.path.join(OUT, "work")   # payload files and in-process pass reports
SRC = os.path.join(ROOT, "src")
SETUP_SAMPLES = 10      # no-work invocations per run, half before and half after the loop
SETUP_ARGV = ["derangements", "--max", "0"]
SETUP_STDOUT = b'{"max":0,"rows":[{"N":"1","k":0,"method":"enumeration"}]}\n'
RUN_DEADLINE_S = 170.0
# Duration of inproc.reference_work() on the host of the recorded baseline
# (2-vCPU Xeon VM) when it runs fast; it only fixes the unit of the scaled
# latencies, which read as seconds at that speed.
REFERENCE_NOMINAL_S = 0.004

END_TO_END_UNITS = {"wall_s": "s", "cmd_p50_s": "s", "cmd_max_s": "s",
                    "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "MB" if name.endswith("_mb") else "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    return env


def run_record(args) -> dict:
    """Machine, toolchain and input facts of this run."""
    import numpy

    digest = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True)):
        digest.update(os.path.relpath(path, SRC).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    env = child_env()
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": commit, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "mem_total": None, "cpu_model": None,
        "child_env": {k: env[k] for k in
                      ("PYTHONPATH", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                       "MKL_NUM_THREADS")},
    }
    for path, key, field in (("/proc/meminfo", "mem_total", "MemTotal"),
                             ("/proc/cpuinfo", "cpu_model", "model name")):
        try:
            with open(path, encoding="utf-8") as fh:
                for line in fh:
                    if line.startswith(field):
                        record[key] = line.split(":", 1)[1].strip()
                        break
        except OSError:
            pass
    return record


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.perf_counter() + seconds

    def left(self) -> float:
        return max(self.end - time.perf_counter(), 1.0)


def run_child(argv: list[str], deadline: Deadline) -> tuple[float, int, bytes, str]:
    """Wall time, exit code, stdout and stderr tail of one child process."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(argv, capture_output=True, env=child_env(), cwd=ROOT,
                              timeout=deadline.left())
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, -1, b"", "timed out"
    wall = time.perf_counter() - start
    return wall, proc.returncode, proc.stdout, proc.stderr.decode(errors="replace")[-400:]


def inproc_argv(args, out_path: str) -> list[str]:
    return [sys.executable, os.path.join(BENCH, "inproc.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--workdir", WORK, "--out", out_path]


def read_report(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    os.remove(path)
    return report


class Outcomes:
    """Checks every execution and tracks failures and determinism."""

    def __init__(self, commands: list[dict]):
        self.commands = {c["id"]: c for c in commands}
        self.strength = workloads.load_spec()["method_strength"]
        self.first_stdout: dict[str, bytes] = {}
        self.attempted = 0
        self.failures: list[str] = []   # one per failed execution
        self.problems: list[str] = []   # run-level: child crash, self-check
        self.verify_reports = 0
        self.proven_reports = 0

    def add(self, cmd_id: str, rc: int, stdout: bytes) -> None:
        self.attempted += 1
        cmd = self.commands[cmd_id]
        problems = workloads.check(cmd, rc, stdout, self.strength)
        first = self.first_stdout.setdefault(cmd_id, stdout)
        if stdout != first:
            problems.append("stdout bytes differ from the first repetition")
        if problems:
            self.failures.append(f"{cmd_id}: {'; '.join(problems)}")
        verdict = workloads.proven(stdout)
        if verdict is not None:
            self.verify_reports += 1
            self.proven_reports += verdict

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.failures and not self.problems


def setup_samples(count: int, deadline: Deadline,
                  outcomes: Outcomes) -> tuple[list[float], list[float]]:
    """Unscaled and scaled wall times of ``count`` no-work CLI processes
    (``setup_probe.py``), each checked."""
    walls, scaled = [], []
    for _ in range(count):
        wall, rc, out, err = run_child(
            [sys.executable, os.path.join(BENCH, "setup_probe.py"), *SETUP_ARGV], deadline)
        outcomes.attempted += 1
        try:
            probe = json.loads(err.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            probe = None
        if rc != 0 or out != SETUP_STDOUT or probe is None:
            outcomes.failures.append(f"set-up: exit {rc}, stdout {out[:80]!r} {err.strip()}")
            continue
        wall -= probe["tail_s"]
        walls.append(wall)
        scaled.append(wall * REFERENCE_NOMINAL_S / statistics.median(probe["reference_s"]))
    return walls, scaled


def command_medians(latencies: dict[str, list[float]]) -> dict[str, float]:
    """Median latency of each command over its executions after the first."""
    return {k: statistics.median(v[1:]) for k, v in latencies.items()}


def end_to_end(args, commands: list[dict], deadline: Deadline) -> tuple[dict, Outcomes, dict]:
    """Set-up samples around one timed closed loop in a child process.

    Each latency is scaled to the reference host speed by the reference
    work timed just before and just after it; each command's first
    execution is warm-up.  Outputs are checked after the loop."""
    outcomes = Outcomes(commands)
    setup_walls, setup_scaled = setup_samples(SETUP_SAMPLES // 2, deadline, outcomes)
    out_path = os.path.join(WORK, f"{args.workload}-{args.seed}-loop.json")
    _, rc, _, err = run_child(inproc_argv(args, out_path) + ["--loop", str(args.seconds)],
                              deadline)
    more_walls, more_scaled = setup_samples(SETUP_SAMPLES // 2, deadline, outcomes)
    setup_walls += more_walls
    setup_scaled += more_scaled
    if rc != 0:
        outcomes.problems.append(f"timed loop: exit {rc} {err.strip()}")
    if rc != 0 or not setup_walls:
        return {}, outcomes, {}
    report = read_report(out_path)
    outputs, reference = report["outputs"], report["reference_s"]
    raw: dict[str, list[float]] = {c["id"]: [] for c in commands}
    scaled: dict[str, list[float]] = {c["id"]: [] for c in commands}
    for k, (cmd_id, code, wall, index) in enumerate(report["executions"]):
        outcomes.add(cmd_id, code, outputs[cmd_id][index].encode("utf-8"))
        raw[cmd_id].append(wall)
        scaled[cmd_id].append(wall * REFERENCE_NOMINAL_S * 2 / (reference[k] + reference[k + 1]))
    per_command = command_medians(scaled)
    raw_per_command = command_medians(raw)
    slowest = max(per_command, key=per_command.get)
    metrics = {
        "wall_s": sum(per_command.values()),
        "cmd_p50_s": statistics.median(per_command.values()),
        "cmd_max_s": per_command[slowest],
        "peak_rss_mb": report["first_pass_maxrss_kib"] / 1024.0,
        "setup_s": statistics.median(setup_scaled),
    }
    detail = {"loop_s": report["loop_s"],
              "latency_samples": sum(len(v) - 1 for v in raw.values()),
              "samples_per_command": min(len(v) - 1 for v in raw.values()),
              "slowest_command": slowest,
              "host_speed": REFERENCE_NOMINAL_S / statistics.median(reference),
              "unscaled_wall_s": sum(raw_per_command.values()),
              "unscaled_cmd_max_s": raw_per_command[slowest],
              "per_command_median_s": per_command, "unscaled_latencies_s": raw,
              "reference_s": reference, "setup_samples": len(setup_scaled),
              "unscaled_setup_s": statistics.median(setup_walls),
              "setup_walls_s": setup_walls, "setup_scaled_s": setup_scaled}
    return metrics, outcomes, detail


def inproc_pass(args, trace: bool, deadline: Deadline, tag: str) -> tuple[dict | None, str]:
    out_path = os.path.join(WORK, f"{args.workload}-{args.seed}-{tag}.json")
    argv = inproc_argv(args, out_path) + (["--trace"] if trace else [])
    _, rc, _, err = run_child(argv, deadline)
    if rc != 0:
        return None, f"{tag} pass: exit {rc} {err.strip()}"
    return read_report(out_path), ""


def per_layer(args, commands: list[dict], deadline: Deadline) -> tuple[dict, Outcomes, dict]:
    outcomes = Outcomes(commands)
    plain, problem = inproc_pass(args, False, deadline, "untraced")
    traced, problem2 = inproc_pass(args, True, deadline, "traced") if plain else (None, "")
    if plain is None or traced is None:
        outcomes.problems.append(problem or problem2)
        return {}, outcomes, {}
    for report in (plain, traced):
        for res in report["commands"]:
            outcomes.add(res["id"], res["rc"], res["stdout"].encode("utf-8"))
    metrics = {"cli.import_s": traced["import_s"], **traced["metrics"],
               "trace.overhead_s": traced["wall_s"] - plain["wall_s"]}
    spec = workloads.load_spec()["workloads"][args.workload]
    for name in spec["trace_nonzero"]:
        if not metrics[name]:
            outcomes.problems.append(f"self-check: {name} is zero on {args.workload}")
    for name in spec["trace_zero"]:
        if metrics[name]:
            outcomes.problems.append(f"self-check: {name} is {metrics[name]} on {args.workload}, "
                                     f"expected zero")
    detail = {"untraced_wall_s": plain["wall_s"], "traced_wall_s": traced["wall_s"],
              "graded_union_s": traced["graded_union_s"],
              "per_command_wall_s": {r["id"]: r["wall_s"] for r in plain["commands"]},
              "trace": traced["trace"]}
    return metrics, outcomes, detail


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.workload_names())
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "diagramalg", "cli.py")):
        sys.stderr.write(f"bench: no diagramalg sources under {SRC}; "
                         f"run from the root of a checkout\n")
        return 2
    deadline = Deadline(RUN_DEADLINE_S)
    record = run_record(args)
    commands = workloads.prepare(args.workload, args.seed, WORK)
    if args.trace:
        metrics, outcomes, detail = per_layer(args, commands, deadline)
        units = {name: per_layer_unit(name) for name in metrics}
    else:
        metrics, outcomes, detail = end_to_end(args, commands, deadline)
        units = END_TO_END_UNITS

    for key in ("commit", "src_sha256", "python", "numpy", "nproc", "mem_total",
                "cpu_model", "seed"):
        print(f"record {key}: {record[key]}")
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_share = {outcomes.failed}/{outcomes.attempted}")
    if outcomes.verify_reports:
        print(f"{args.workload} proven_share = "
              f"{outcomes.proven_reports / outcomes.verify_reports:.3g} "
              f"({outcomes.proven_reports}/{outcomes.verify_reports} verify reports)")
    for key in ("loop_s", "latency_samples", "samples_per_command", "setup_samples",
                "slowest_command", "host_speed", "unscaled_wall_s", "unscaled_cmd_max_s",
                "unscaled_setup_s", "untraced_wall_s", "traced_wall_s", "graded_union_s"):
        if key in detail:
            print(f"{args.workload} {key}: {detail[key]}")
    for failure in outcomes.failures + outcomes.problems:
        print(f"FAIL {failure}")

    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": metrics, "detail": detail,
                   "attempted": outcomes.attempted, "failures": outcomes.failures,
                   "problems": outcomes.problems,
                   "verify_reports": outcomes.verify_reports,
                   "proven_reports": outcomes.proven_reports}, fh, indent=1)

    correct = outcomes.correct
    print(json.dumps({
        "correct": correct,
        "attempted": max(outcomes.attempted, 1),
        "failed": max(outcomes.failed, 0 if correct else 1),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
