"""Golden stdout: exact bytes and exit codes of a fixed set of commands.

Speed and refactoring work must not change what the CLI prints.  Each
command below runs in-process through ``cli.main`` and its stdout bytes
and exit code are compared with ``golden_stdout.json``.  A change that
alters any of them on purpose regenerates the file with
``PYTHONPATH=src python tests/test_golden_stdout.py`` and says why.
"""
import contextlib
import io
import json
import os
import sys

import pytest

from diagramalg import cli

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_stdout.json")

# The wall-crossing generator on two columns, twice; ``{file}`` in an
# argv stands for a file holding this payload.
PAYLOAD = [{"m": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}] * 2

COMMANDS = [
    ["dims", "--family", "brauer", "--r", "5"],
    ["dims", "--family", "walled", "--r", "4", "--s", "2"],
    ["dims", "--family", "deranged", "--r", "2", "--n", "4"],
    ["derangements", "--max", "20"],
    ["verify", "--duality", "glA", "--n", "2", "--r", "2"],
    ["verify", "--duality", "glA", "--n", "2", "--r", "3"],
    ["verify", "--duality", "glA", "--n", "3", "--r", "2"],
    ["verify", "--duality", "o", "--n", "3", "--r", "2"],
    ["verify", "--duality", "o", "--n", "3", "--r", "3"],
    ["verify", "--duality", "sp", "--n", "2", "--r", "2"],
    ["verify", "--duality", "sp", "--n", "2", "--r", "3"],
    ["verify", "--duality", "sp", "--n", "4", "--r", "2"],
    ["verify", "--duality", "walled", "--n", "2", "--r", "1", "--s", "1"],
    ["verify", "--duality", "walled", "--n", "2", "--r", "2", "--s", "1"],
    ["verify", "--duality", "walled", "--n", "3", "--r", "1", "--s", "1"],
    ["verify", "--duality", "so-direct", "--n", "2", "--r", "1"],
    ["verify", "--duality", "sp", "--n", "4", "--r", "2", "--mode", "modular"],
    ["verify", "--duality", "o", "--n", "3", "--r", "3", "--mode", "exact"],
    ["verify", "--duality", "deranged", "--n", "3", "--r", "1"],
    ["verify", "--duality", "deranged", "--n", "3", "--r", "1", "--mode", "exact"],
    ["--output", "text", "verify", "--duality", "walled", "--n", "2", "--r", "1", "--s", "1"],
    ["verify", "--duality", "glA", "--n", "3", "--r", "2", "--solver-cap", "10"],
    ["multiply", "--file", "{file}"],
]


def run(argv, payload_path):
    argv = [payload_path if a == "{file}" else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def load_golden():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_command():
    assert [case["argv"] for case in load_golden()] == COMMANDS


@pytest.mark.parametrize("index", range(len(COMMANDS)), ids=lambda i: " ".join(COMMANDS[i]))
def test_stdout_bytes_and_exit_code(index, tmp_path):
    case = load_golden()[index]
    path = tmp_path / "payload.json"
    path.write_text(json.dumps(PAYLOAD))
    code, stdout = run(COMMANDS[index], str(path))
    assert code == case["exit"]
    assert stdout == case["stdout"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "payload.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(PAYLOAD, fh)
        cases = []
        for argv in COMMANDS:
            code, stdout = run(argv, path)
            cases.append({"argv": argv, "exit": code, "stdout": stdout})
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    sys.exit(0)
