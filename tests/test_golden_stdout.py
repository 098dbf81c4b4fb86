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
import random
import sys
from fractions import Fraction

import pytest

from diagramalg import cli

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_stdout.json")

# The wall-crossing generator on two columns, twice; ``{file}`` in an
# argv stands for a file holding this payload.
PAYLOAD = [{"m": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}] * 2


def product_payload(x0=None, seed=37, m=6, factors=3, nterms=8):
    """Three random 8-term elements on 6 columns with coefficients of degree
    at most 2, generic or (``x0``) evaluated at x0: their product has
    closed loops and composites reached by many term pairs."""
    rng, labels = random.Random(seed), [f"{row}{k}" for row in "tb" for k in range(1, m + 1)]
    out = []
    for _ in range(factors):
        terms = []
        for _ in range(nterms):
            rng.shuffle(labels)
            coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(2)]
            keep = rng.randrange(3)
            coeffs = coeffs[:keep] + [Fraction(rng.choice([-3, -1, 2]), rng.randint(1, 4))]
            coeff = ([str(c) for c in coeffs] if x0 is None else
                     str(sum(c * Fraction(x0) ** i for i, c in enumerate(coeffs))))
            terms.append({"diagram": {"m": m, "edges": [sorted(labels[i:i + 2])
                                                        for i in range(0, 2 * m, 2)]},
                          "coeff": coeff})
        out.append({"m": m, "ring": "generic" if x0 is None else {"x0": x0}, "terms": terms})
    return out


# ``{name}`` in an argv stands for a file holding that payload.
PAYLOADS = {"file": PAYLOAD, "product": product_payload(), "product_x": product_payload("3/2")}

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
    ["verify", "--duality", "sp", "--n", "4", "--r", "2", "--mode", "exact"],
    ["verify", "--duality", "o", "--n", "3", "--r", "3", "--mode", "exact"],
    ["verify", "--duality", "deranged", "--n", "3", "--r", "1"],
    ["verify", "--duality", "deranged", "--n", "3", "--r", "1", "--mode", "exact"],
    ["--output", "text", "verify", "--duality", "walled", "--n", "2", "--r", "1", "--s", "1"],
    ["verify", "--duality", "glA", "--n", "3", "--r", "2", "--solver-cap", "1"],
    ["multiply", "--file", "{file}"],
    ["multiply", "--file", "{product}"],
    ["multiply", "--x", "3/2", "--file", "{product_x}"],
]


def write_payloads(directory) -> dict:
    paths = {}
    for name, payload in PAYLOADS.items():
        paths[name] = os.path.join(directory, f"{name}.json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
    return paths


def run(argv, paths):
    argv = [a.format(**paths) if a.startswith("{") else a for a in argv]
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
    code, stdout = run(COMMANDS[index], write_payloads(tmp_path))
    assert code == case["exit"]
    assert stdout == case["stdout"]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        paths = write_payloads(tmp)
        cases = []
        for argv in COMMANDS:
            code, stdout = run(argv, paths)
            cases.append({"argv": argv, "exit": code, "stdout": stdout})
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(cases, fh, indent=1)
        fh.write("\n")
    sys.exit(0)
