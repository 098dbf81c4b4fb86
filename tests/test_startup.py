"""The command line starts without numpy.

Only a dense array needs numpy, and only ``verify`` builds one, so
``import diagramalg.cli`` and every ``derangements``, ``dims`` and
``multiply`` command run without loading it.  Each check runs in a fresh
interpreter: the test process itself has numpy loaded.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs each argv through cli.main in one process and prints, per step, the
# exit code, the stdout and whether numpy is loaded after it.
CHILD = r"""
import contextlib, io, json, sys

from diagramalg import cli

steps = [{"argv": None, "rc": 0, "stdout": "", "numpy": "numpy" in sys.modules}]
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    steps.append({"argv": argv, "rc": rc, "stdout": out.getvalue(),
                  "numpy": "numpy" in sys.modules})
print(json.dumps(steps))
"""

# the wall-crossing generator on two columns, twice
WALL_PAYLOAD = [{"m": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}] * 2


def run_steps(argvs):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_verify_loads_numpy(tmp_path):
    payload = tmp_path / "wall.json"
    payload.write_text(json.dumps(WALL_PAYLOAD))
    light = [
        ["derangements", "--max", "20"],
        ["dims", "--family", "brauer", "--r", "4"],
        ["dims", "--family", "walled", "--r", "2", "--s", "1"],
        ["dims", "--family", "deranged", "--r", "2", "--n", "4"],
        ["multiply", "--file", str(payload)],
    ]
    steps = run_steps(light + [["verify", "--duality", "glA", "--n", "2", "--r", "2"]])
    *before, verify = steps
    assert [(s["argv"], s["rc"], s["numpy"]) for s in before] == \
        [(None, 0, False)] + [(argv, 0, False) for argv in light]
    assert json.loads(before[1]["stdout"])["rows"][20]["N"] == "895014631192902121"
    assert json.loads(before[5]["stdout"])["terms"] == [
        {"coeff": ["0", "1"], "diagram": {"edges": [["t1", "t2"], ["b1", "b2"]], "m": 2}}]
    report = json.loads(verify["stdout"])
    assert verify["rc"] == 0 and verify["numpy"] is True
    assert report["dims"] == {"group_image": 10, "diagram_image": 2,
                              "commutant_of_diagram": 10, "commutant_of_group": 2}
    assert report["equal_a"] is report["equal_b"] is True
