import itertools
from math import comb, factorial

import pytest

from diagramalg import combinatorics, tensor
from diagramalg.combinatorics import (
    AdjointMultiplicityReport,
    _highest_weight_multiplicity,
    _invariants_by_characters,
    _permutation_tables,
    DerangementTable,
    derangement_table,
    derangements,
    derangements_by_enumeration,
    diagram_count,
    multiplicity_adjoint,
    multiplicity_trivial,
    nearest_integer_to_k_factorial_over_e,
    walled_count,
)
from diagramalg.diagrams import CapExceededError, Wall, enumerate_diagrams, is_walled
from diagramalg.linalg import DEFAULT_UNKNOWN_CAP

from oracles import (
    closed_form_multiplicity,
    full_basis_adjoint_multiplicity,
    full_basis_trivial_multiplicity,
    riordan,
)


def highest_root(n):
    return (1,) + (0,) * (n - 2) + (-1,)


class TestDerangements:
    def test_base_values(self):
        assert derangements(0) == 1
        assert derangements(1) == 0
        assert [derangements(k) for k in range(2, 6)] == [1, 2, 9, 44]

    def test_formula_matches_enumeration(self):
        for k in range(9):
            assert derangements(k) == derangements_by_enumeration(k)

    @pytest.mark.parametrize("k", range(8))
    def test_enumeration_table_holds_every_permutation_once(self, k):
        # the table is its k byte columns; the table of range(0) is one empty row
        columns = _permutation_tables(k)[k]
        assert len(columns) == k and all(len(c) == factorial(k) for c in columns)
        rows = list(zip(*columns)) if columns else [()]
        assert sorted(rows) == sorted(itertools.permutations(range(k)))

    def test_recurrence(self):
        vals = [derangements(k) for k in range(31)]
        for k in range(2, 31):
            assert vals[k] == (k - 1) * (vals[k - 1] + vals[k - 2])

    def test_nearest_integer_to_k_factorial_over_e(self):
        for k in range(1, 31):
            assert nearest_integer_to_k_factorial_over_e(k) == derangements(k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            derangements(-1)


class TestDerangementTable:
    def test_methods_and_values(self):
        table = derangement_table(12)
        assert table.values[:6] == (1, 0, 1, 2, 9, 44)
        assert table.methods[8] == "enumeration"
        assert table.methods[9] == "formula"
        rows = table.rows()
        assert rows[4] == {"k": 4, "N": "9", "method": "enumeration"}

    @pytest.mark.parametrize("kmax,inserts", [(0, 0), (3, 6), (8, 36), (20, 36)])
    def test_permutation_tables_are_built_in_one_pass(self, monkeypatch, kmax, inserts):
        # each k <= min(kmax, 8) is enumerated on the way to the largest
        # table: 1 + 2 + ... + 8 slot insertions, not the 120 of a rebuild per k
        calls = []
        original = combinatorics._slot_columns

        def counting(columns, slot, j):
            calls.append(j)
            return original(columns, slot, j)

        monkeypatch.setattr(combinatorics, "_slot_columns", counting)
        table = derangement_table(kmax)
        monkeypatch.undo()
        assert len(calls) == inserts
        assert table.values[:9] == tuple(derangements_by_enumeration(k)
                                         for k in range(min(kmax, 8) + 1))

    def test_validation_rejects_broken_tables(self):
        with pytest.raises(ArithmeticError):
            DerangementTable((1, 0, 1, 3), ("formula",) * 4)
        with pytest.raises(ArithmeticError):
            DerangementTable((2, 0), ("formula",) * 2)


class TestCounts:
    def test_diagram_count_against_enumeration(self):
        for r in range(1, 6):
            assert diagram_count(r) == sum(1 for _ in enumerate_diagrams(r))

    def test_walled_count_against_enumeration(self):
        for r, s in [(1, 1), (2, 1), (2, 2), (4, 2)]:
            wall = Wall(r, s)
            assert walled_count(r, s) == sum(
                1 for d in enumerate_diagrams(wall.m) if is_walled(d, wall))

    def test_walled_count_group_algebra_case(self):
        for r in range(5):
            assert walled_count(r, 0) == factorial(r)

    def test_example_value(self):
        assert walled_count(4, 2) == 720


class TestMultiplicities:
    def test_trivial_multiplicity_small(self):
        assert multiplicity_trivial(2, 1) == 0
        assert multiplicity_trivial(3, 1) == 0

    def test_trivial_multiplicity_matches_derangements(self):
        assert multiplicity_trivial(4, 2) == derangements(2) == 1

    def test_adjoint_multiplicity_cross_check(self):
        report = multiplicity_adjoint(4, 2)
        assert isinstance(report, AdjointMultiplicityReport)
        assert report.consistent
        assert report.derangement_reference == derangements(1) == 0
        # the computed value is recorded, not asserted against the
        # derangement reference: the two genuinely differ here
        assert report.computed == report.cross_check

    def test_adjoint_multiplicity_rank_one(self):
        report = multiplicity_adjoint(2, 1)
        assert report.computed == 1
        assert report.cross_check == 1


class TestAdjointMultiplicitySparse:
    def test_no_dense_operators(self, monkeypatch):
        from diagramalg import tensor
        from diagramalg.linalg import LinOp

        def refuse(*args, **kwargs):
            raise AssertionError("dense operator built")

        monkeypatch.setattr(tensor, "ad_action", refuse)
        monkeypatch.setattr(LinOp, "from_dense", refuse)
        report = multiplicity_adjoint(3, 2)
        assert report.consistent
        assert report.computed == 2


class TestHighestWeightMultiplicities:
    @pytest.mark.parametrize("n,r", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2), (5, 2)])
    @pytest.mark.parametrize("mode", ["auto", "exact", "modular"])
    def test_match_the_full_basis_route(self, n, r, mode):
        assert multiplicity_trivial(n, r, mode=mode) == full_basis_trivial_multiplicity(n, r, mode)
        report = multiplicity_adjoint(n, r, mode=mode)
        assert report.computed == full_basis_adjoint_multiplicity(n, r, mode)
        assert report.consistent

    def test_riordan_numbers(self):
        # the inverse binomial transform of the Catalan numbers
        catalan = [comb(2 * k, k) // (k + 1) for k in range(7)]
        want = [sum((-1) ** (r - k) * comb(r, k) * catalan[k] for k in range(r + 1))
                for r in range(7)]
        assert [riordan(r) for r in range(7)] == want == [1, 0, 1, 1, 3, 6, 15]

    @pytest.mark.parametrize("r", range(1, 7))
    def test_sl2_riordan(self, r):
        assert multiplicity_trivial(2, r) == riordan(r) == closed_form_multiplicity(2, r, False)
        assert (_highest_weight_multiplicity(2, r, (1, -1), "auto") == riordan(r + 1)
                == closed_form_multiplicity(2, r, True))

    @pytest.mark.parametrize("n,r,adjoint,want", [
        (3, 3, False, 2), (4, 2, False, 1), (4, 4, False, 9), (5, 3, False, 2),
        (3, 2, True, 2), (4, 3, True, 9), (5, 3, True, 9), (6, 3, True, 9)])
    def test_stable_range_derangements(self, n, r, adjoint, want):
        weight = highest_root(n) if adjoint else (0,) * n
        k = r + 1 if adjoint else r
        assert closed_form_multiplicity(n, r, adjoint) == want == derangements(k)
        assert _highest_weight_multiplicity(n, r, weight, "auto") == want

    def test_weight_space_beyond_the_cap_is_refused_before_any_row(self, monkeypatch):
        # the zero-weight space of sl_2^(x 12) has the central trinomial
        # coefficient of 12 vectors
        central = sum(comb(12, 2 * k) * comb(2 * k, k) for k in range(7))
        assert central == 73789 > DEFAULT_UNKNOWN_CAP

        def refuse(*args, **kwargs):
            raise AssertionError("an equation row was built")

        monkeypatch.setattr(tensor, "_ad_cols", refuse)
        monkeypatch.setattr(tensor, "_lift_entries", refuse)
        with pytest.raises(CapExceededError):
            multiplicity_trivial(2, 12)


class TestCharacterCount:
    """The adjoint cross-check counts invariants from characters, with no
    solve; on a grid where the solve is cheap the two counts agree, also
    in the unstable range n < r.  Its work is bounded by the partitions of
    r, whatever n is."""

    @pytest.mark.parametrize("n,r", [(n, r) for n in range(2, 6) for r in range(1, 5)
                                     if (n, r) != (5, 4)])
    def test_equals_the_highest_weight_solve(self, n, r):
        assert _invariants_by_characters(n, r) == multiplicity_trivial(n, r)

    @pytest.mark.parametrize("n,r,want", [(4, 4, 9), (5, 5, 44), (4, 5, 43)])
    def test_closed_values(self, n, r, want):
        # N(r) once n >= r; at n = 4 < r = 5 the count falls below N(5) = 44
        assert _invariants_by_characters(n, r) == want
        assert (want == derangements(r)) == (n >= r)

    def test_sl2_riordan_numbers(self):
        assert [_invariants_by_characters(2, r) for r in range(7)] == [1, 0, 1, 1, 3, 6, 15]

    def test_work_does_not_grow_with_n(self, monkeypatch):
        from diagramalg import combinatorics

        tableaux, calls = combinatorics._standard_tableaux, []
        monkeypatch.setattr(combinatorics, "_standard_tableaux",
                            lambda shape: calls.append(shape) or tableaux(shape))
        counts = []
        for n in (8, 60):
            calls.clear()
            assert _invariants_by_characters(n, 8) == derangements(8)
            counts.append(len(calls))
        # one shape per partition of j = 0..8: 1+1+2+3+5+7+11+15+22
        assert counts == [67, 67]

    def test_wide_adjoint_report_is_answered(self):
        # sl_30^(x 3) has about 1.5e5 zero-weight unknowns and about 2e7
        # distinct weights; the count reads neither
        report = multiplicity_adjoint(30, 2)
        assert (report.computed, report.cross_check) == (2, 2)

    def test_adjoint_solves_once_and_cross_checks_in_every_mode(self, monkeypatch):
        from diagramalg import combinatorics

        solve, calls = combinatorics.solve_sparse_system, []

        def spy(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(combinatorics, "solve_sparse_system", spy)
        reports = []
        for mode in ("auto", "exact", "modular"):
            calls.clear()
            reports.append(multiplicity_adjoint(4, 3, mode=mode))
            assert len(calls) == 1
        assert {(rep.computed, rep.cross_check) for rep in reports} == {(9, 9)}
