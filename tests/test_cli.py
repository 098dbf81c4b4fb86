import json
import subprocess
import sys
import time

import pytest

from diagramalg import algebra, cli, combinatorics, duality

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

    @pytest.mark.parametrize("make", [
        lambda m: {"m": m, "edges": [["t1", "b1"]]},
        lambda m: {"m": m, "ring": "generic",
                   "terms": [{"diagram": {"m": 1, "edges": [["t1", "b1"]]}, "coeff": ["1"]}]},
    ], ids=["diagram", "element"])
    def test_boolean_column_count_exit_2(self, tmp_path, make):
        path = write_json(tmp_path, [make(True)])
        rc, out, err = run_cli("multiply", "--file", path)
        assert rc == 2 and out == ""
        assert "'m' must be a positive integer, got True" in err
        assert run_cli("multiply", "--file", write_json(tmp_path, [make(1)]))[0] == 0

    @pytest.mark.parametrize("x,coeff", [
        ("1e200000000", "1"), ("1e-200000000", "1"), ("2", "1e200000000"),
    ], ids=["x", "x-negative-exponent", "json-coefficient"])
    def test_huge_rational_literal_refused_fast(self, tmp_path, capsys, x, coeff):
        element = {"m": 2, "ring": {"x0": "2"}, "terms": [{"diagram": IDENTITY, "coeff": coeff}]}
        path = write_json(tmp_path, [element])
        start = time.perf_counter()
        assert cli.main(["multiply", "--file", path, "--x", x]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "bad rational literal" in err

    @pytest.mark.parametrize("ring,coeff,x", [
        ("generic", [1], "generic"), ({"x0": 2}, "1", "2"), ("generic", ["1", None], "generic"),
    ], ids=["generic-int-coefficient", "int-x0", "null-coefficient"])
    def test_non_string_rational_literal_exit_2(self, tmp_path, ring, coeff, x):
        element = {"m": 2, "ring": ring, "terms": [{"diagram": IDENTITY, "coeff": coeff}]}
        rc, out, err = run_cli("multiply", "--file", write_json(tmp_path, [element]), "--x", x)
        assert rc == 2 and out == ""
        assert "bad rational literal" in err and "Traceback" not in err

    @pytest.mark.parametrize("x,x0", [("3/2", "3/2"), ("-2", "-2"), ("1e400", "1" + "0" * 400)],
                             ids=["fraction", "integer", "401-digits"])
    def test_ordinary_rational_literal_still_parses(self, tmp_path, capsys, x, x0):
        assert cli.main(["multiply", "--file", write_json(tmp_path, [CROSSING]), "--x", x]) == 0
        assert json.loads(capsys.readouterr().out)["ring"] == {"x0": x0}


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

    @pytest.mark.parametrize("family,sizes,formula", [
        ("brauer", ("--r", "9"), 34459425),
        ("walled", ("--r", "4", "--s", "3"), 5040),
        ("deranged", ("--r", "4", "--n", "8"), 14833),  # past DERANGED_R_CAP
    ], ids=["brauer", "walled", "deranged"])
    def test_cap_exceeded_still_prints_formula(self, family, sizes, formula):
        rc, out, _ = run_cli("dims", "--family", family, *sizes)
        assert rc == 3
        obj = json.loads(out)
        assert obj["formula"] == formula
        assert obj["enumerated"] is None and obj["match"] is None

    @pytest.mark.parametrize("family,fits,past", [
        ("brauer", ("--r", "3"), ("--r", "4")),
        ("walled", ("--r", "3", "--s", "1"), ("--r", "4", "--s", "1")),
        ("deranged", ("--r", "2", "--n", "4"), ("--r", "4", "--n", "8")),
    ])
    def test_formula_past_digits_cap_exit_3(self, monkeypatch, capsys, family, fits, past):
        monkeypatch.setattr(cli, "FORMULA_DIGITS_CAP", 2)
        assert cli.main(["dims", "--family", family, *past]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "cap" in err
        assert cli.main(["dims", "--family", family, *fits]) == 0
        assert json.loads(capsys.readouterr().out)["match"]

    def test_formula_too_long_to_print_exit_3_at_default_cap(self, capsys):
        # (3999)!! has 6336 digits, past CPython's default int-to-str limit
        assert cli.main(["dims", "--family", "brauer", "--r", "2000"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "cap" in err

    @pytest.mark.parametrize("family,sizes,counter", [
        ("brauer", ("--r", "100000"), "diagram_count"),
        ("walled", ("--r", "50000", "--s", "50000"), "walled_count"),
        ("deranged", ("--r", "5000", "--n", "10000"), "derangements"),
    ])
    def test_formula_far_past_digits_cap_refused_before_counting(
            self, monkeypatch, capsys, family, sizes, counter):
        def refuse(*args):
            raise AssertionError(f"{counter} was called")

        monkeypatch.setattr(cli, counter, refuse)
        monkeypatch.setattr(cli, "deranged_basis", refuse)
        assert cli.main(["dims", "--family", family, *sizes]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "cap" in err

    def test_walled_needs_s(self):
        rc, _, err = run_cli("dims", "--family", "walled", "--r", "2")
        assert rc == 2
        assert "--s" in err

    def test_deranged_needs_n(self):
        rc, _, _ = run_cli("dims", "--family", "deranged", "--r", "2")
        assert rc == 2

    @pytest.mark.parametrize("family,extra", [
        ("brauer", ("--s", "1")),
        ("brauer", ("--n", "3")),
        ("walled", ("--s", "1", "--n", "3")),
        ("deranged", ("--n", "4", "--s", "2")),
    ])
    def test_unused_flag_refused(self, capsys, family, extra):
        assert cli.main(["dims", "--family", family, "--r", "2", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"does not use {extra[-2]}" in err

    def test_deranged_needs_n_at_least_2r(self, capsys):
        assert cli.main(["dims", "--family", "deranged", "--r", "2", "--n", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "n >= 2r" in err

    @pytest.mark.parametrize("r,n", [(0, -5), (0, -1), (1, 1)])
    def test_deranged_n_rule_at_every_r(self, capsys, r, n):
        # zero columns never reach deranged_basis, which holds the rule too
        assert cli.main(["dims", "--family", "deranged", "--r", str(r), "--n", str(n)]) == 2
        assert capsys.readouterr() == ("", f"diagramalg: need n >= 2r (got n={n}, r={r})\n")

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

    @pytest.mark.parametrize("family,n,r", [("deranged", "3", "1"), ("sp", "4", "2")])
    def test_modular_mode_is_refused(self, capsys, family, n, r):
        # verify takes auto or exact; argparse names both on refusal
        args = ["verify", "--duality", family, "--n", n, "--r", r, "--mode", "modular"]
        assert cli.main(args) == 2
        out, err = capsys.readouterr()
        assert out == ""
        refusal = err.splitlines()[-1]
        assert "modular" in refusal and "auto" in refusal and "exact" in refusal

    def test_solver_cap_exit_3(self):
        rc, _, err = run_cli("verify", "--duality", "glA", "--n", "3", "--r", "2",
                             "--solver-cap", "1")
        assert rc == 3
        assert "cap" in err

    @pytest.mark.parametrize("cap,rc,err", [
        ("2", 3, "diagramalg: cap exceeded: 3 unknowns exceed the solver cap 2; "
                 "raise it with --solver-cap\n"),
        ("3", 3, "diagramalg: cap exceeded: 4 unknowns exceed the solver cap 3; "
                 "raise it with --solver-cap\n"),
        ("4", 0, ""),
    ], ids=["weight-space", "hom-system", "verifies"])
    def test_solver_cap_bounds_each_solve_of_the_route(self, capsys, cap, rc, err):
        # glA(2,3): the weight space of (2,1) has 3 unknowns, and the Hom
        # system of its 2-dimensional multiplicity space with itself has 4
        args = ["verify", "--duality", "glA", "--n", "2", "--r", "3", "--solver-cap", cap]
        assert cli.main(args) == rc
        out, got = capsys.readouterr()
        assert got == err and bool(out) == (rc == 0)

    def test_largest_hom_system_refused_before_any_hom_solve(self, monkeypatch, capsys):
        # glA(2,4): the weight spaces have at most 6 unknowns, the multiplicity
        # space of (3,1) has dimension 3, so its Hom system has 9
        def refuse(*args, **kwargs):
            raise AssertionError("a Hom system was solved")

        monkeypatch.setattr(duality, "intertwiner_kernel", refuse)
        args = ["verify", "--duality", "glA", "--n", "2", "--r", "4", "--solver-cap", "8"]
        assert cli.main(args) == 3
        assert capsys.readouterr() == (
            "", "diagramalg: cap exceeded: 9 unknowns exceed the solver cap 8; "
                "raise it with --solver-cap\n")

    @pytest.mark.parametrize("cap,rc,err", [
        ("0", 2, "diagramalg: --solver-cap must be at least 1\n"),
        ("-1", 2, "diagramalg: --solver-cap must be at least 1\n"),
        ("1", 3, "diagramalg: cap exceeded: 2 unknowns exceed the solver cap 1; "
                 "raise it with --solver-cap\n"),
    ], ids=["0", "-1", "1"])
    def test_solver_cap_below_one_is_a_usage_error(self, capsys, cap, rc, err):
        # exit 3 means a cap was hit; a cap no system can meet is malformed input
        args = ["verify", "--duality", "glA", "--n", "2", "--r", "2", "--solver-cap", cap]
        assert cli.main(args) == rc
        assert capsys.readouterr() == ("", err)

    def test_deranged_s_must_equal_r(self, capsys):
        args = ["verify", "--duality", "deranged", "--n", "2", "--r", "1"]
        assert cli.main(args + ["--s", "2"]) == 2
        assert capsys.readouterr() == ("", "diagramalg: the deranged family lives on (r, r) columns\n")
        assert cli.main(args + ["--s", "1"]) == 0
        with_s = capsys.readouterr()
        assert cli.main(args) == 0
        assert capsys.readouterr() == with_s

    def test_deranged_matrix_space_cap_before_any_work(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        monkeypatch.setattr(algebra, "deranged_basis", refuse)
        monkeypatch.setattr(duality, "deranged_ops", refuse)
        monkeypatch.setattr(duality, "derivation_ops_sparse", refuse)
        args = ["verify", "--duality", "deranged", "--n", "4", "--r", "1", "--solver-cap", "100"]
        assert cli.main(args) == 3
        assert capsys.readouterr() == (
            "", "diagramalg: cap exceeded: 225 matrix-space unknowns exceed the solver cap 100\n")

    def test_modes_agree_on_dims_and_tag_their_route(self):
        # 729 and 365 unknowns: above the exact cap of mode auto
        tags = {"auto": "mod-p-confirmed-exact", "exact": "exact"}
        dims = []
        for mode, tag in tags.items():
            rc, out, _ = run_cli("verify", "--duality", "o", "--n", "3", "--r", "3",
                                 "--mode", mode)
            assert rc == 0
            obj = json.loads(out)
            assert obj["method"] == tag, mode
            dims.append(obj["dims"])
        assert dims[0] == dims[1]

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

    @pytest.mark.parametrize("failures,lines", [
        (1, ["diagramalg: internal error: MemoryError\n"]),
        (2, []),
    ], ids=["constant-line", "no-line"])
    def test_memory_error_while_reporting_still_exit_4(
            self, monkeypatch, capsys, failures, lines):
        # A MemoryError report whose own write runs out of memory must not
        # escape main, where it would exit 1 ("an equality is false").
        class StarvedStderr:
            def __init__(self):
                self.failures, self.lines = failures, []

            def write(self, text):
                if self.failures:
                    self.failures -= 1
                    raise MemoryError()
                self.lines.append(text)

        def failing(*args, **kwargs):
            raise MemoryError("equation dict of 82600000 rows")

        stderr = StarvedStderr()
        monkeypatch.setattr(cli, "verify_duality", failing)
        monkeypatch.setattr(sys, "stderr", stderr)
        rc = cli.main(["verify", "--duality", "glA", "--n", "2", "--r", "7"])
        assert rc == cli.EXIT_INTERNAL == 4
        assert stderr.lines == lines
        assert capsys.readouterr().out == ""


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

    def test_text_mode_marks_each_compound_list_item(self):
        rc, out, _ = run_cli("--output", "text", "derangements", "--max", "2")
        assert rc == 0
        lines = out.splitlines()
        rows = lines[lines.index("rows:") + 1:]
        assert [line for line in rows if line.strip() == "-"] == ["  -"] * 3
        assert rows[1:4] == ["    N: 1", "    k: 0", "    method: enumeration"]

    def test_text_mode_keeps_edge_pairs_apart(self, tmp_path):
        # the wall-crossing contraction: one cap t1-t2 and one cup b1-b2
        path = write_json(tmp_path, [CROSSING])
        rc, out, _ = run_cli("--output", "text", "multiply", "--file", path)
        assert rc == 0
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.strip() == "edges:")
        edges = [line.strip() for line in lines[start + 1:start + 7]]
        assert edges == ["-", "- t1", "- t2", "-", "- b1", "- b2"]

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_2(self, capsys, threads):
        rc = cli.main(["--threads", threads, "derangements", "--max", "2"])
        out, err = capsys.readouterr()
        assert rc == cli.EXIT_USAGE == 2
        assert err == "diagramalg: --threads must be at least 1\n"
        assert out == ""
