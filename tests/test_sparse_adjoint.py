"""The adjoint action from the sparse structure constants of sl_n,
checked against dense commutators, and the sparse deranged verify."""
import random
from fractions import Fraction

import numpy as np
import pytest

from diagramalg import duality, linalg, tensor
from diagramalg.combinatorics import _highest_weight_equations
from diagramalg.duality import verify_duality
from diagramalg.linalg import (
    LinOp,
    rows_from_dense,
    zeros_matrix,
)
from diagramalg.tensor import (
    AdjointSpace,
    _lift_entries,
    _weight_support,
    ad_action,
    adjoint_transport,
    derivation_action,
    derivation_ops_sparse,
    weight_vectors,
)

from oracles import dense_ad_action, identity_matrix, lie_basis, matrices_equal, sl_coordinates


def random_fraction_matrix(n, rng):
    x = zeros_matrix(n, n)
    for a in range(n):
        for b in range(n):
            if rng.random() < 0.7:
                x[a, b] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return x


def sample_matrices(n):
    rng = random.Random(100 + n)
    return lie_basis("gl", n) + [random_fraction_matrix(n, rng) for _ in range(4)]


def entry_types(mat):
    return [[type(v) for v in row] for row in mat.tolist()]


class TestAdAction:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_dense_commutators(self, n):
        for x in sample_matrices(n):
            got, want = ad_action(x, n), dense_ad_action(x, n)
            assert matrices_equal(got, want)
            assert entry_types(got) == entry_types(want)

    def test_fraction_entries_survive(self):
        x = zeros_matrix(3, 3)
        x[0, 0], x[1, 2] = Fraction(1, 2), Fraction(6, 3)
        got = ad_action(x, 3)
        assert any(type(v) is Fraction for v in got.flat)
        assert all(type(v) in (int, Fraction) for v in got.flat)
        assert entry_types(got) == entry_types(dense_ad_action(x, 3))

    @pytest.mark.parametrize("shape", [(3, 3), (2, 3), (3, 2), (1, 1)])
    def test_mis_sized_x_raises(self, shape):
        x = zeros_matrix(*shape)
        with pytest.raises(ValueError):
            ad_action(x, 2)
        with pytest.raises(ValueError):
            derivation_ops_sparse(x, AdjointSpace(2, 1))


class TestAdjointLift:
    @pytest.mark.parametrize("n", [2, 3])
    def test_sparse_rows_match_dense(self, n):
        space = AdjointSpace(n, 2)
        for x in sample_matrices(n):
            dense = derivation_action(x, space)
            assert derivation_ops_sparse(x, space).rows == rows_from_dense(dense)

    @pytest.mark.parametrize("n", [2, 3])
    def test_leibniz_sum_of_dense_oracle(self, n):
        space = AdjointSpace(n, 2)
        one = identity_matrix(n * n - 1)
        for x in sample_matrices(n):
            ad = dense_ad_action(x, n)
            assert matrices_equal(derivation_action(x, space),
                                  np.kron(ad, one) + np.kron(one, ad))

    def test_lifted_rows_hold_no_zeros(self):
        # diag(1, 0) acts on e_01 (x) e_10 by 1 - 1: the Leibniz sum cancels
        x = lie_basis("gl", 2)[0]
        rows = derivation_ops_sparse(x, AdjointSpace(2, 2)).rows
        assert all(v != 0 for row in rows for v in row.values())


class TestTransport:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_dense_coordinates(self, n):
        s, t = adjoint_transport(n, 1)
        basis = lie_basis("sl", n)
        for k, b in enumerate(basis):
            assert [s[g, k] for g in range(n * n)] == list(b.reshape(-1))
        for a in range(n):
            for c in range(n):
                unit = zeros_matrix(n, n)
                unit[a, c] = 1
                if a == c:
                    unit = unit - Fraction(1, n) * identity_matrix(n)
                want = sl_coordinates(unit)
                got = [t[k, a * n + c] for k in range(len(basis))]
                assert got == want
                assert [type(v) for v in got] == [type(v) for v in want]


def zero_and_highest_root(n):
    return [(0,) * n, (1,) + (0,) * (n - 2) + (-1,)]


class TestZeroWeightSupport:
    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 2), (3, 3), (4, 2)])
    def test_matches_weight_filter(self, n, r):
        weights = weight_vectors(AdjointSpace(n, r))
        for mu in zero_and_highest_root(n):
            assert _weight_support(n, r, mu) == [i for i, w in enumerate(weights) if w == mu]

    @pytest.mark.parametrize("n,r", [(2, 2), (3, 2), (3, 3), (4, 2)])
    def test_equation_rows_unchanged(self, n, r):
        # the highest-weight equations as the weight filter and the dense
        # commutators of the simple raising units E_(a,a+1) give them,
        # key order included
        space = AdjointSpace(n, r)
        for mu in zero_and_highest_root(n):
            support = [i for i, w in enumerate(weight_vectors(space)) if w == mu]
            want = []
            for a in range(n - 1):
                x = zeros_matrix(n, n)
                x[a, a + 1] = 1
                lifted, _ = _lift_entries([rows_from_dense(dense_ad_action(x, n).T)] * r,
                                          [n * n - 1] * r, columns=support)
                want.extend(lifted)
            rows, got_support = _highest_weight_equations(n, r, mu)
            assert got_support == support
            assert rows == want
            assert [list(row.items()) for row in rows] == [list(row.items()) for row in want]


class TestSparseDerangedPath:
    def test_generators_never_dense(self, monkeypatch):
        # every family builds its operators sparse: no dense matrix is
        # turned into rows anywhere in a verify, and no dense derivation
        # is built, wherever a module binds those names
        dense_calls = []

        def counting(name, original):
            def counted(*args, **kwargs):
                dense_calls.append(name)
                return original(*args, **kwargs)
            return counted

        from_dense = LinOp.from_dense.__func__
        monkeypatch.setattr(LinOp, "from_dense", classmethod(counting("from_dense", from_dense)))
        for module in (linalg, tensor, duality):
            for name in ("rows_from_dense", "derivation_action"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        for family, n, r, s in [("glA", 2, 3, None), ("o", 3, 2, None), ("sp", 2, 2, None),
                                ("so-direct", 2, 1, None), ("walled", 2, 1, 1)]:
            rep = verify_duality(family, n, r, s)
            assert rep.verified or rep.extra["proper_subalgebra"]
        rep = verify_duality("deranged", 3, 1)
        assert rep.verified
        assert rep.dims["commutant_of_group"] == 1
        assert dense_calls == []
