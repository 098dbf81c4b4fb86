"""Workload commands, their seeded inputs and the output checks.

The commands and every expected value live in ``expected.json`` next to
this file; the only seeded input is the multiply payload of the
algebra-invariants workload, whose product is checked against the
independent routine in ``oracle.py``.
"""
from __future__ import annotations

import dataclasses
import json
import os
from fractions import Fraction

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_PATH = os.path.join(HERE, "expected.json")

# The criterion-12 payload: the wall-crossing generator on two columns, twice.
FIXED_PAYLOAD = [{"m": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}] * 2
SEEDED_SHAPE = {"m": 6, "factors": 3, "nterms": 8}


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def workload_names() -> list[str]:
    return list(load_spec()["workloads"])


def prepare(workload: str, seed: int, workdir: str, write: bool = True) -> list[dict]:
    """The workload's commands with argv resolved; ``write`` writes the
    payload files the argv refer to (child processes reuse them)."""
    spec = load_spec()["workloads"][workload]
    payloads = {
        "fixed": FIXED_PAYLOAD,
        "seeded": oracle.seeded_payload(seed, **SEEDED_SHAPE),
    }
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for kind, payload in payloads.items():
        paths[f"{kind}_payload"] = path = os.path.join(workdir, f"{kind}-{seed}.json")
        if write:
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
    commands = []
    for cmd in spec["commands"]:
        cmd = dict(cmd)
        if "cli" in cmd:
            cmd["argv"] = [arg.format(**paths) for arg in cmd["cli"]]
        if "payload" in cmd:
            cmd["payload_data"] = payloads[cmd["payload"]]
        commands.append(cmd)
    return commands


def call_library(cmd: dict) -> str:
    """Run a 'lib' command in this process; returns its JSON stdout."""
    from diagramalg import combinatorics

    result = getattr(combinatorics, cmd["lib"])(*cmd["args"], **cmd.get("kwargs", {}))
    if isinstance(result, int):
        obj = {"value": result}
    else:
        obj = dataclasses.asdict(result)
        obj["consistent"] = result.consistent
    return json.dumps(obj, sort_keys=True) + "\n"


def _lookup(obj, path: list[str]):
    if not path:
        return obj
    head, rest = path[0], path[1:]
    if head == "*":
        return [_lookup(item, rest) for item in obj]
    return _lookup(obj[head], rest)


def method_class(tag: str) -> str:
    return "mod-p" if tag.startswith("mod-p(") else tag


def check(cmd: dict, rc: int, stdout: bytes, strength: dict) -> list[str]:
    """Problems with one command's outcome; empty when it is correct."""
    if rc != cmd["exit"]:
        return [f"exit {rc}, expected {cmd['exit']}"]
    try:
        text = stdout.decode("utf-8")
        obj = json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        return [f"stdout is not one JSON document: {exc}"]
    if text.count("\n") != 1 or not text.endswith("\n"):
        return ["stdout is not exactly one line"]
    problems = []
    for path, want in cmd["expect"].items():
        try:
            got = _lookup(obj, path.split("."))
        except (KeyError, IndexError, TypeError):
            problems.append(f"{path}: missing")
            continue
        if got != want:
            problems.append(f"{path}: {got!r}, expected {want!r}")
    if "min_method" in cmd:
        tag = method_class(str(obj.get("method")))
        if strength.get(tag, 0) < strength[cmd["min_method"]]:
            problems.append(f"method {obj.get('method')!r} weaker than {cmd['min_method']!r}")
    if cmd.get("oracle") == "multiply":
        if "oracle_product" not in cmd:
            cmd["oracle_product"] = oracle.product(cmd["payload_data"])
        want = cmd["oracle_product"]
        got = {oracle.diagram_of(t["diagram"]): oracle.trim(Fraction(s) for s in t["coeff"])
               for t in obj["terms"]}
        if got != want:
            problems.append(f"product differs from the oracle ({len(got)} vs {len(want)} terms)")
    return problems


def proven(stdout: bytes) -> bool | None:
    """True/False for a verify report's method tag; None for other output."""
    try:
        obj = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    if not isinstance(obj, dict) or "method" not in obj or "dims" not in obj:
        return None
    return obj["method"] in ("exact", "mod-p-confirmed-exact")
