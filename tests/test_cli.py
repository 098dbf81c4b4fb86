import json
import subprocess
import sys

import pytest

from diagramalg import cli, combinatorics

CMD = [sys.executable, "-m", "diagramalg.cli"]

CROSSING = {"m": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}
IDENTITY = {"m": 2, "edges": [["t1", "b1"], ["t2", "b2"]]}


def run_cli(*args):
    proc = subprocess.run(CMD + list(args), capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def write_json(tmp_path, payload, name="input.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestMultiply:
    def test_crossing_squared_generic(self, tmp_path):
        path = write_json(tmp_path, [CROSSING, CROSSING])
        rc, out, _ = run_cli("multiply", "--file", path)
        assert rc == 0
        obj = json.loads(out)
        assert obj["ring"] == "generic"
        assert obj["terms"] == [{"coeff": ["0", "1"], "diagram": CROSSING}]

    def test_identity_echo(self, tmp_path):
        path = write_json(tmp_path, [IDENTITY])
        rc, out, _ = run_cli("multiply", "--file", path)
        assert rc == 0
        assert json.loads(out)["terms"] == [{"coeff": ["1"], "diagram": IDENTITY}]

    def test_specialized_product(self, tmp_path):
        path = write_json(tmp_path, [CROSSING, CROSSING])
        rc, out, _ = run_cli("multiply", "--file", path, "--x", "-2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["ring"] == {"x0": "-2"}
        assert obj["terms"][0]["coeff"] == "-2"

    def test_mixed_column_counts_exit_2(self, tmp_path):
        other = {"m": 3, "edges": [["t1", "b1"], ["t2", "b2"], ["t3", "b3"]]}
        path = write_json(tmp_path, [CROSSING, other])
        rc, _, err = run_cli("multiply", "--file", path)
        assert rc == 2
        assert "column" in err

    def test_malformed_json_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("[{]")
        rc, _, err = run_cli("multiply", "--file", str(path))
        assert rc == 2
        assert "line" in err

    def test_invariant_violation_exit_2(self, tmp_path):
        path = write_json(tmp_path, [{"m": 2, "edges": [["t1", "t2"], ["t1", "b2"]]}])
        rc, _, err = run_cli("multiply", "--file", str(path))
        assert rc == 2
        assert "twice" in err

    def test_element_ring_must_match_flag(self, tmp_path):
        element = {"m": 2, "ring": {"x0": "3"},
                   "terms": [{"diagram": IDENTITY, "coeff": "1"}]}
        path = write_json(tmp_path, [element])
        rc, _, err = run_cli("multiply", "--file", path, "--x", "generic")
        assert rc == 2
        assert "ring" in err


class TestDims:
    def test_brauer(self):
        rc, out, _ = run_cli("dims", "--family", "brauer", "--r", "3")
        assert rc == 0
        obj = json.loads(out)
        assert obj["formula"] == 15 and obj["enumerated"] == 15 and obj["match"]

    def test_walled(self):
        rc, out, _ = run_cli("dims", "--family", "walled", "--r", "4", "--s", "2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["formula"] == 720 and obj["match"]

    def test_deranged(self):
        rc, out, _ = run_cli("dims", "--family", "deranged", "--r", "2", "--n", "4")
        assert rc == 0
        obj = json.loads(out)
        assert obj["formula"] == 9 and obj["enumerated"] == 9 and obj["match"]

    def test_cap_exceeded_still_prints_formula(self):
        rc, out, _ = run_cli("dims", "--family", "brauer", "--r", "9")
        assert rc == 3
        obj = json.loads(out)
        assert obj["formula"] == 34459425
        assert obj["enumerated"] is None and obj["match"] is None

    def test_walled_needs_s(self):
        rc, _, err = run_cli("dims", "--family", "walled", "--r", "2")
        assert rc == 2
        assert "--s" in err

    def test_deranged_needs_n(self):
        rc, _, _ = run_cli("dims", "--family", "deranged", "--r", "2")
        assert rc == 2

    @pytest.mark.parametrize("family,extra", [
        ("brauer", ()),
        ("walled", ("--s", "0")),
        ("deranged", ("--n", "2")),
    ])
    def test_zero_columns_counts_the_empty_object(self, family, extra):
        rc, out, _ = run_cli("dims", "--family", family, "--r", "0", *extra)
        assert rc == 0
        obj = json.loads(out)
        assert obj["formula"] == 1 and obj["enumerated"] == 1 and obj["match"]

    def test_negative_r_rejected(self):
        rc, _, _ = run_cli("dims", "--family", "brauer", "--r", "-1")
        assert rc == 2


class TestVerify:
    def test_gl_verified_exit_0(self):
        rc, out, _ = run_cli("verify", "--duality", "glA", "--n", "2", "--r", "2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["equal_a"] and obj["equal_b"] and obj["faithful"]
        assert obj["dims"]["group_image"] == 10
        assert obj["elapsed_ms"] is None

    def test_symplectic_unfaithful_still_exit_0(self):
        rc, out, _ = run_cli("verify", "--duality", "sp", "--n", "2", "--r", "2")
        assert rc == 0
        obj = json.loads(out)
        assert obj["faithful"] is False
        assert obj["equal_a"] and obj["equal_b"]

    def test_so_direct(self):
        rc, out, _ = run_cli("verify", "--duality", "so-direct", "--n", "2", "--r", "1")
        assert rc == 0
        obj = json.loads(out)
        assert obj["proper_subalgebra"] is True
        assert obj["so_commutant"] == 2 and obj["o_commutant"] == 1

    def test_usage_errors(self):
        rc, _, _ = run_cli("verify", "--duality", "sp", "--n", "3", "--r", "2")
        assert rc == 2
        rc, _, _ = run_cli("verify", "--duality", "nope", "--n", "2", "--r", "2")
        assert rc == 2
        rc, _, _ = run_cli("verify", "--duality", "walled", "--n", "2", "--r", "1")
        assert rc == 2

    def test_solver_cap_exit_3(self):
        rc, _, err = run_cli("verify", "--duality", "glA", "--n", "3", "--r", "2",
                             "--solver-cap", "10")
        assert rc == 3
        assert "cap" in err

    def test_modes_agree_on_dims_and_tag_their_route(self):
        # 729 and 365 unknowns: above the exact cap of mode auto
        tags = {"auto": "mod-p-confirmed-exact", "exact": "exact",
                "modular": "mod-p-confirmed-exact"}
        dims = []
        for mode, tag in tags.items():
            rc, out, _ = run_cli("verify", "--duality", "o", "--n", "3", "--r", "3",
                                 "--mode", mode)
            assert rc == 0
            obj = json.loads(out)
            assert obj["method"] == tag, mode
            dims.append(obj["dims"])
        assert dims[0] == dims[1] == dims[2]

    def test_timing_flag_fills_elapsed(self):
        rc, out, _ = run_cli("verify", "--duality", "glA", "--n", "2", "--r", "2",
                             "--timing")
        assert rc == 0
        assert isinstance(json.loads(out)["elapsed_ms"], int)


class TestInternalErrors:
    @pytest.mark.parametrize("exc,line", [
        (ArithmeticError("primes [3, 5] disagree: [1, 2]"),
         "diagramalg: internal error: ArithmeticError: primes [3, 5] disagree: [1, 2]\n"),
        (MemoryError(), "diagramalg: internal error: MemoryError\n"),
    ], ids=["arithmetic", "memory"])
    def test_internal_failure_exit_4(self, monkeypatch, capsys, exc, line):
        # Exit 1 is reserved for an equality that is false; a failure of
        # the engine itself must not look like one.
        def failing(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "verify_duality", failing)
        rc = cli.main(["verify", "--duality", "deranged", "--n", "2", "--r", "1"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_INTERNAL == 4
        assert err == line
        assert out == ""


class TestDerangementsCommand:
    def test_table(self):
        rc, out, _ = run_cli("derangements", "--max", "5")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert [int(row["N"]) for row in rows] == [1, 0, 1, 2, 9, 44]

    def test_zero(self):
        rc, out, _ = run_cli("derangements", "--max", "0")
        assert rc == 0
        assert [row["N"] for row in json.loads(out)["rows"]] == ["1"]

    def test_methods_switch_past_enumeration_cap(self):
        rc, out, _ = run_cli("derangements", "--max", "20")
        assert rc == 0
        rows = json.loads(out)["rows"]
        assert rows[8]["method"] == "enumeration"
        assert rows[20]["method"] == "formula"

    def test_negative_rejected(self):
        rc, _, _ = run_cli("derangements", "--max", "-1")
        assert rc == 2

    def test_table_past_cap_exit_3(self, monkeypatch, capsys):
        # past the cap the table would not print on a default CPython build
        monkeypatch.setattr(combinatorics, "TABLE_CAP", 5)
        assert cli.main(["derangements", "--max", "6"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "cap" in err
        assert cli.main(["derangements", "--max", "5"]) == 0
        assert len(json.loads(capsys.readouterr().out)["rows"]) == 6


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("dims", "--family", "walled", "--r", "3", "--s", "2"),
        ("derangements", "--max", "8"),
        ("verify", "--duality", "glA", "--n", "2", "--r", "2"),
    ])
    def test_thread_count_cannot_change_bytes(self, args):
        runs = [run_cli("--threads", t, *args) for t in ("1", "4")]
        assert runs[0][0] == runs[1][0]
        assert runs[0][1] == runs[1][1]

    def test_text_mode_is_a_rendering_of_the_same_object(self):
        rc, out, _ = run_cli("--output", "text", "dims", "--family", "brauer", "--r", "2")
        assert rc == 0
        assert "formula: 3" in out
        assert "match: true" in out
