import itertools
import random
from fractions import Fraction

import pytest

from diagramalg.algebra import AlgebraElement, RingMismatchError, idempotent_e
from diagramalg.diagrams import (
    CapExceededError,
    Wall,
    c_generator,
    compose,
    enumerate_diagrams,
    identity_diagram,
    inverse_word,
    is_walled,
    permutation_to_diagram,
    wall_generator,
    word_sign,
)
from diagramalg.linalg import ExactRref, LinOp, zeros_matrix
from diagramalg.tensor import (
    AdjointSpace,
    BilinearForm,
    MixedSpace,
    SpecializationError,
    TensorSpace,
    _element_rows,
    _walled_rows,
    _weight_support,
    ad_action,
    adjoint_transport,
    deranged_matrix,
    deranged_ops,
    derivation_action,
    derivation_ops_sparse,
    diagram_matrix,
    matrix_unit,
    mixed_diagram_matrix,
    reflection_matrix,
    sigma_perm,
    weight_vectors,
)

from oracles import (fraction_deranged_ops, frac_matrix, identity_matrix, lie_basis,
                     matrices_equal, orthogonal_diagram_matrix)


def element_matrix(el, space, form):
    """Dense matrix of the sparse rows of a specialized element."""
    return LinOp(space.dim, _element_rows(el, space.n, form)).to_dense()


def walled_matrix(el, space):
    """Dense matrix of the sparse rows of a walled element."""
    return LinOp(space.dim, _walled_rows(el, space)).to_dense()


def rank(mat):
    acc = ExactRref(mat.shape[1])
    for row in mat:
        acc.insert(row)
    return acc.rank


def random_word(m, rng):
    w = list(range(m))
    rng.shuffle(w)
    return tuple(w)


class TestSigmaPerm:
    def test_identity(self):
        space = TensorSpace(2, 2)
        assert matrices_equal(sigma_perm((0, 1), space), identity_matrix(4))

    def test_transposition_swaps_mixed_basis_vectors(self):
        # basis order: e0e0, e0e1, e1e0, e1e1; the swap fixes the pure ones
        space = TensorSpace(2, 2)
        mat = sigma_perm((1, 0), space)
        assert mat[0, 0] == 1 and mat[3, 3] == 1
        assert mat[2, 1] == 1 and mat[1, 2] == 1
        assert mat[1, 1] == 0

    def test_multiplicative_on_random_pairs(self):
        space = TensorSpace(2, 3)
        rng = random.Random(15)
        for _ in range(50):
            v, w = random_word(3, rng), random_word(3, rng)
            vw = tuple(v[w[i]] for i in range(3))
            assert matrices_equal(sigma_perm(vw, space),
                                  sigma_perm(v, space) @ sigma_perm(w, space))

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            sigma_perm((0, 0), TensorSpace(2, 2))


class TestContraction:
    @pytest.mark.parametrize("n,flavor", [
        (2, "symmetric"), (3, "symmetric"), (4, "symmetric"),
        (2, "symplectic"), (4, "symplectic"),
    ])
    def test_eigenvalue_law_all_positions(self, n, flavor):
        form = BilinearForm(flavor, n)
        space = TensorSpace(n, 3)
        for i, j in itertools.permutations(range(1, 4), 2):
            c = diagram_matrix(c_generator(3, i, j), space, form)
            assert matrices_equal(c @ c, form.eps * n * c)

    def test_symmetric_three_by_three(self):
        form = BilinearForm("symmetric", 3)
        space = TensorSpace(3, 2)
        c = diagram_matrix(c_generator(2, 1, 2), space, form)
        assert matrices_equal(c @ c, 3 * c)

    def test_symplectic_two_by_two(self):
        form = BilinearForm("symplectic", 2)
        space = TensorSpace(2, 2)
        c = diagram_matrix(c_generator(2, 1, 2), space, form)
        assert matrices_equal(c @ c, -2 * c)

    def test_commutes_with_disjoint_permutations(self):
        form = BilinearForm("symmetric", 2)
        space = TensorSpace(2, 4)
        c = diagram_matrix(c_generator(4, 1, 2), space, form)
        swap34 = sigma_perm((0, 1, 3, 2), space)
        assert matrices_equal(c @ swap34, swap34 @ c)

    @pytest.mark.parametrize("flavor", ["symmetric", "symplectic"])
    def test_symmetric_in_positions(self, flavor):
        form = BilinearForm(flavor, 2)
        space = TensorSpace(2, 3)
        for i, j in itertools.combinations(range(1, 4), 2):
            assert matrices_equal(diagram_matrix(c_generator(3, i, j), space, form),
                                  diagram_matrix(c_generator(3, j, i), space, form))

    def test_position_validation(self):
        form = BilinearForm("symmetric", 2)
        with pytest.raises(ValueError):
            diagram_matrix(c_generator(2, 1, 1), TensorSpace(2, 2), form)
        with pytest.raises(ValueError):
            diagram_matrix(c_generator(2, 0, 2), TensorSpace(2, 2), form)

    def test_odd_symplectic_rejected(self):
        with pytest.raises(ValueError):
            BilinearForm("symplectic", 3)

    @pytest.mark.parametrize("flavor,n", [("symmetric", 3), ("symplectic", 4)])
    def test_nonzeros_read_once(self, flavor, n):
        # the (row, column, value) triples of gram and gram_inv, cached as
        # tuples on the form
        form = BilinearForm(flavor, n)
        want = tuple(tuple((u, v, mat[u, v]) for u in range(n) for v in range(n) if mat[u, v])
                     for mat in (form.gram, form.gram_inv))
        assert form.nonzeros == want
        assert form.nonzeros is form.nonzeros
        assert all(type(part) is tuple for part in form.nonzeros)


class TestDiagramMatrix:
    def test_crossing_generator_matches_contraction(self):
        # the Weyl contraction pairs the two inputs with the form and emits
        # its dual element: C[(k, l), (i, j)] = G[i, j] G^-1[k, l]
        for n, flavor in [(2, "symmetric"), (2, "symplectic"), (3, "symmetric")]:
            form = BilinearForm(flavor, n)
            space = TensorSpace(n, 2)
            g, ginv = form.gram, form.gram_inv
            contraction = frac_matrix([[g[i, j] * ginv[k, l] for i in range(n) for j in range(n)]
                                       for k in range(n) for l in range(n)])
            assert matrices_equal(diagram_matrix(c_generator(2, 1, 2), space, form), contraction)

    def test_permutation_diagram_action(self):
        rng = random.Random(33)
        for flavor in ("symmetric", "symplectic"):
            form = BilinearForm(flavor, 2)
            space = TensorSpace(2, 3)
            for _ in range(10):
                w = random_word(3, rng)
                mat = diagram_matrix(permutation_to_diagram(w), space, form)
                expected = sigma_perm(inverse_word(w), space)
                if flavor == "symplectic" and word_sign(w) < 0:
                    expected = -expected
                assert matrices_equal(mat, expected)

    @pytest.mark.parametrize("n,flavor,x0", [
        (2, "symmetric", 2), (2, "symplectic", -2), (3, "symmetric", 3),
    ])
    def test_multiplicative_exhaustive_two_columns(self, n, flavor, x0):
        form = BilinearForm(flavor, n)
        space = TensorSpace(n, 2)
        mats = {d: diagram_matrix(d, space, form) for d in enumerate_diagrams(2)}
        for d1, d2 in itertools.product(mats, repeat=2):
            res = compose(d1, d2)
            assert matrices_equal(mats[d1] @ mats[d2],
                                  Fraction(x0) ** res.loops * mats[res.composite])

    @pytest.mark.parametrize("flavor,x0", [("symmetric", 2), ("symplectic", -2)])
    def test_multiplicative_exhaustive_three_columns(self, flavor, x0):
        # three columns mix pairs and free columns in the reading words,
        # which exercises the symplectic sign
        form = BilinearForm(flavor, 2)
        space = TensorSpace(2, 3)
        mats = {d: diagram_matrix(d, space, form) for d in enumerate_diagrams(3)}
        for d1, d2 in itertools.product(mats, repeat=2):
            res = compose(d1, d2)
            assert matrices_equal(mats[d1] @ mats[d2],
                                  Fraction(x0) ** res.loops * mats[res.composite])

    def test_form_size_must_match_space(self):
        c = c_generator(2, 1, 2)
        symplectic4 = BilinearForm("symplectic", 4)
        with pytest.raises(ValueError):
            diagram_matrix(c, TensorSpace(2, 2), symplectic4)
        with pytest.raises(ValueError):
            element_matrix(AlgebraElement.from_diagram(c, 1, -2), TensorSpace(2, 2), symplectic4)
        with pytest.raises(ValueError):
            diagram_matrix(c, TensorSpace(4, 2), BilinearForm("symmetric", 2))

    def test_matches_edge_delta_oracle(self):
        for n in (2, 3):
            form = BilinearForm("symmetric", n)
            for m in (1, 2, 3):
                space = TensorSpace(n, m)
                for d in enumerate_diagrams(m):
                    assert matrices_equal(diagram_matrix(d, space, form),
                                          orthogonal_diagram_matrix(d, n))


class TestSigmaElement:
    def test_unit_is_identity(self):
        form = BilinearForm("symmetric", 2)
        space = TensorSpace(2, 2)
        one = AlgebraElement.unit(2, 2)
        assert matrices_equal(element_matrix(one, space, form), identity_matrix(4))

    def test_crossing_squares_to_scaled_crossing(self):
        form = BilinearForm("symplectic", 2)
        space = TensorSpace(2, 2)
        c = AlgebraElement.from_diagram(c_generator(2, 1, 2), 1, -2)
        mc = element_matrix(c, space, form)
        assert matrices_equal(element_matrix(c * c, space, form), mc @ mc)
        assert matrices_equal(mc @ mc, -2 * mc)

    def test_multiplicative_on_random_pairs(self):
        form = BilinearForm("symmetric", 3)
        space = TensorSpace(3, 2)
        rng = random.Random(71)
        diagrams = list(enumerate_diagrams(2))
        for _ in range(50):
            a = AlgebraElement.from_diagram(
                diagrams[rng.randrange(3)], Fraction(rng.randint(-3, 3), 2), 3)
            b = (AlgebraElement.from_diagram(diagrams[rng.randrange(3)], 1, 3)
                 + AlgebraElement.from_diagram(diagrams[rng.randrange(3)], 2, 3))
            assert matrices_equal(element_matrix(a * b, space, form),
                                  element_matrix(a, space, form)
                                  @ element_matrix(b, space, form))


class TestSigmaMixed:
    def test_crossing_is_rank_one_with_trace_eigenvalue(self):
        space = MixedSpace(2, 1, 1)
        c = mixed_diagram_matrix(wall_generator(Wall(1, 1), 1, 1), space)
        assert rank(c) == 1
        assert matrices_equal(c @ c, 2 * c)

    def test_identity(self):
        space = MixedSpace(2, 1, 1)
        one = AlgebraElement.unit(2, 2)
        assert matrices_equal(walled_matrix(one, space), identity_matrix(4))

    def test_multiplicative_exhaustive(self):
        space = MixedSpace(2, 2, 1)
        wall = Wall(2, 1)
        walled = [d for d in enumerate_diagrams(3) if is_walled(d, wall)]
        mats = {d: mixed_diagram_matrix(d, space) for d in walled}
        for d1, d2 in itertools.product(walled, repeat=2):
            res = compose(d1, d2)
            assert matrices_equal(mats[d1] @ mats[d2],
                                  Fraction(2) ** res.loops * mats[res.composite])

    @pytest.mark.parametrize("n,r,s", [(2, 1, 1), (2, 2, 1), (2, 1, 2), (3, 1, 1), (2, 2, 2)])
    def test_matches_edge_delta_oracle(self, n, r, s):
        # the V / V* pairing is the identity form, so every edge is a
        # Kronecker delta
        space = MixedSpace(n, r, s)
        wall = Wall(r, s)
        for d in enumerate_diagrams(r + s):
            if is_walled(d, wall):
                assert matrices_equal(mixed_diagram_matrix(d, space),
                                      orthogonal_diagram_matrix(d, n))

    def test_rejects_non_walled_support(self):
        space = MixedSpace(2, 2, 0)
        bad = AlgebraElement.from_diagram(c_generator(2, 1, 2), 1, 2)
        with pytest.raises(ValueError):
            _walled_rows(bad, space)

    def test_rejects_wrong_specialization(self):
        space = MixedSpace(2, 1, 1)
        el = AlgebraElement.unit(2, 3)
        with pytest.raises(SpecializationError):
            _walled_rows(el, space)
        with pytest.raises(RingMismatchError):
            _walled_rows(AlgebraElement.unit(2), space)


class TestLieBasis:
    def test_classical_dimensions(self):
        assert len(lie_basis("so", 3)) == 3
        assert len(lie_basis("sp", 2)) == 3
        assert len(lie_basis("sl", 2)) == 3
        assert len(lie_basis("gl", 3)) == 9
        assert len(lie_basis("sp", 4)) == 10
        assert len(lie_basis("so", 4)) == 6

    @pytest.mark.parametrize("family,n", [("so", 3), ("so", 4), ("sp", 2), ("sp", 4)])
    def test_defining_equation(self, family, n):
        form = BilinearForm("symplectic" if family == "sp" else "symmetric", n)
        gram = form.gram
        for x in lie_basis(family, n):
            assert matrices_equal(x.T @ gram + gram @ x, zeros_matrix(n, n))

    def test_sl_traceless(self):
        for x in lie_basis("sl", 3):
            assert sum(x[i, i] for i in range(3)) == 0

    def test_sp_odd_rejected(self):
        with pytest.raises(ValueError):
            lie_basis("sp", 3)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            lie_basis("e8", 8)


class TestDerivationAction:
    def test_identity_scalars(self):
        x = identity_matrix(2)
        assert matrices_equal(derivation_action(x, TensorSpace(2, 3)),
                              3 * identity_matrix(8))
        assert matrices_equal(derivation_action(x, MixedSpace(2, 2, 1)),
                              (2 - 1) * identity_matrix(8))
        assert matrices_equal(derivation_action(x, AdjointSpace(2, 2)),
                              zeros_matrix(9, 9))

    def test_commutator_compatibility(self):
        rng = random.Random(3)

        def rand(n):
            m = zeros_matrix(n, n)
            for i in range(n):
                for j in range(n):
                    m[i, j] = rng.randint(-3, 3)
            return m

        for space in (TensorSpace(2, 2), MixedSpace(2, 1, 1), AdjointSpace(2, 2)):
            for _ in range(5):
                x, y = rand(2), rand(2)
                lhs = derivation_action(x @ y - y @ x, space)
                a, b = derivation_action(x, space), derivation_action(y, space)
                assert matrices_equal(lhs, a @ b - b @ a)

    def test_sparse_matches_dense(self):
        space = MixedSpace(2, 1, 1)
        for x in lie_basis("gl", 2):
            dense = derivation_action(x, space)
            assert matrices_equal(derivation_ops_sparse(x, space).to_dense(), dense)


class TestBimoduleCommutation:
    def test_orthogonal(self):
        form = BilinearForm("symmetric", 3)
        space = TensorSpace(3, 2)
        ops = [derivation_action(x, space) for x in lie_basis("so", 3)]
        ops.append(reflection_matrix(3, 2))
        for d in enumerate_diagrams(2):
            s = diagram_matrix(d, space, form)
            for g in ops:
                assert matrices_equal(s @ g, g @ s)

    def test_symplectic(self):
        form = BilinearForm("symplectic", 2)
        space = TensorSpace(2, 2)
        for d in enumerate_diagrams(2):
            s = diagram_matrix(d, space, form)
            for x in lie_basis("sp", 2):
                g = derivation_action(x, space)
                assert matrices_equal(s @ g, g @ s)

    def test_mixed(self):
        space = MixedSpace(2, 1, 1)
        wall = Wall(1, 1)
        for d in enumerate_diagrams(2):
            if not is_walled(d, wall):
                continue
            s = mixed_diagram_matrix(d, space)
            for x in lie_basis("gl", 2):
                g = derivation_action(x, space)
                assert matrices_equal(s @ g, g @ s)


class TestAdjointSummand:
    def test_transport_sections(self):
        # at r = 1 the pair is (S, T) of gl = V (x) V* and sl: T S = 1
        for n in (2, 3):
            incl, coords = adjoint_transport(n, 1)
            assert matrices_equal(coords @ incl, identity_matrix(n * n - 1))

    def test_projection_rank_and_idempotence(self):
        p = walled_matrix(idempotent_e(1, 2), MixedSpace(2, 1, 1))
        assert matrices_equal(p @ p, p)
        assert rank(p) == 3
        incl, coords = adjoint_transport(2, 1)
        assert matrices_equal(p, incl @ coords)

    def test_projection_r2(self):
        p = walled_matrix(idempotent_e(2, 2), MixedSpace(2, 2, 2))
        assert matrices_equal(p @ p, p)
        assert rank(p) == 9

    def test_projection_equivariant(self):
        space = MixedSpace(3, 1, 1)
        p = walled_matrix(idempotent_e(1, 3), space)
        for x in lie_basis("gl", 3):
            g = derivation_action(x, space)
            assert matrices_equal(g @ p, p @ g)

    @pytest.mark.parametrize("n,r", [(3, 2), (4, 1), (4, 2)])
    def test_projection_rank_via_transport(self, n, r):
        # P factors exactly through the adjoint power: rank (n^2-1)^r
        # without eliminating the big matrix
        from diagramalg.linalg import dense_from_rows, rows_from_dense, sparse_matmul
        from diagramalg.tensor import MixedSpace, adjoint_transport

        incl, coords = adjoint_transport(n, r)
        e = idempotent_e(r, n)
        p_rows = _walled_rows(e, MixedSpace(n, r, r))
        prod = sparse_matmul(rows_from_dense(incl), rows_from_dense(coords))
        assert p_rows == prod
        section = sparse_matmul(rows_from_dense(coords), rows_from_dense(incl))
        d = (n * n - 1) ** r
        assert matrices_equal(dense_from_rows(section, d), identity_matrix(d))
        pp = sparse_matmul(p_rows, p_rows)
        assert pp == p_rows

    def test_deranged_ops_checks_the_mixed_space_once(self, monkeypatch):
        # the transport pair checks MixedSpace(n, r, r) against the cap;
        # each element keeps its specialization and walled-support checks
        from diagramalg import tensor
        from diagramalg.algebra import deranged_basis

        spaces = []
        original = tensor.check_dim
        monkeypatch.setattr(tensor, "check_dim",
                            lambda space, *cap: spaces.append(space) or original(space, *cap))
        tensor.deranged_ops([el.element for el in deranged_basis(2, 4)], 4, 2)
        assert spaces == [MixedSpace(4, 2, 2)]
        across = AlgebraElement.from_diagram(permutation_to_diagram([1, 0]), 1, 3)
        with pytest.raises(ValueError, match="walled"):
            tensor.deranged_ops([across], 3, 1)
        with pytest.raises(SpecializationError):
            tensor.deranged_ops([AlgebraElement.unit(2, 4)], 3, 1)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_integer_transport_equals_the_fraction_route(self, n):
        # values and entry types, for bare diagrams (as verify transports
        # them), their sandwiches and an element with a proper denominator
        from diagramalg.algebra import deranged_basis

        elements = deranged_basis(1, n)
        els = [AlgebraElement.from_diagram(el.diagram, 1, n) for el in elements]
        els += [el.element for el in elements]
        els.append(idempotent_e(1, n).scale(Fraction(2, 3)) + els[0])
        ours, ref = deranged_ops(els, n, 1), fraction_deranged_ops(els, n, 1)
        assert [op.rows for op in ours] == [op.rows for op in ref]
        assert ([[type(c) for row in op.rows for c in row.values()] for op in ours]
                == [[type(c) for row in op.rows for c in row.values()] for op in ref])

    def test_deranged_identity(self):
        e = idempotent_e(1, 2)
        assert matrices_equal(deranged_matrix(e, 2, 1), identity_matrix(3))

    def test_deranged_multiplicative_small(self):
        # sandwiched elements act through the transported matrices as an
        # algebra map; exercised at r=1 where everything is tiny
        e = idempotent_e(1, 3)
        c = AlgebraElement.from_diagram(wall_generator(Wall(1, 1), 1, 1), 1, 3)
        v = e * c * e
        av = deranged_matrix(v, 3, 1)
        avv = deranged_matrix(v * v, 3, 1)
        assert matrices_equal(av @ av, avv)

    def test_ad_action_bracket(self):
        x = zeros_matrix(2, 2)
        x[0, 1] = 1
        y = zeros_matrix(2, 2)
        y[1, 0] = 1
        lhs = ad_action(x @ y - y @ x, 2)
        rhs = ad_action(x, 2) @ ad_action(y, 2) - ad_action(y, 2) @ ad_action(x, 2)
        assert matrices_equal(lhs, rhs)


class TestWeights:
    def test_tensor_weights_count_digits(self):
        space = TensorSpace(2, 2)
        assert weight_vectors(space) == [(2, 0), (1, 1), (1, 1), (0, 2)]

    def test_mixed_weights_subtract_duals(self):
        space = MixedSpace(2, 1, 1)
        assert weight_vectors(space) == [(0, 0), (1, -1), (-1, 1), (0, 0)]

    @pytest.mark.parametrize("space", [TensorSpace(4, 2), MixedSpace(4, 1, 1), MixedSpace(2, 2, 1),
                                       AdjointSpace(4, 1)], ids=repr)
    def test_sp_weights_are_the_gl_ones_projected(self, space):
        # the sp_n coordinates w_i - w_(m+i) of the gl_n weight w
        m = space.n // 2
        assert weight_vectors(space, "sp") == [tuple(w[i] - w[m + i] for i in range(m))
                                               for w in weight_vectors(space)]

    @pytest.mark.parametrize("kind,space", [
        ("gl", TensorSpace(3, 2)), ("gl", MixedSpace(3, 2, 1)), ("gl", MixedSpace(2, 0, 3)),
        ("sp", TensorSpace(4, 3)), ("sp", MixedSpace(4, 1, 1)), ("sp", AdjointSpace(2, 2))],
        ids=repr)
    def test_weight_support_is_the_weight_filter(self, kind, space):
        weights = weight_vectors(space, kind)
        for mu in set(weights):
            want = [i for i, w in enumerate(weights) if w == mu]
            assert _weight_support(space, mu, kind) == want

    def test_adjoint_weights_match_diagonal_derivations(self):
        space = AdjointSpace(2, 1)
        ws = weight_vectors(space)
        units = lie_basis("gl", 2)
        for a in range(2):
            d = derivation_action(units[a * 2 + a], space)
            for i, w in enumerate(ws):
                assert d[i, i] == w[a]


class TestTensorSpaceIsMixed:
    """TensorSpace(n, r) is the mixed space with no dual factors."""

    def test_instance_without_duals(self):
        space = TensorSpace(3, 2)
        assert isinstance(space, MixedSpace) and space.s == 0 and space.dim == 9

    @pytest.mark.parametrize("args", [(2, 3, 1), (2, 0), (1, 2)])
    def test_bad_shape_rejected(self, args):
        with pytest.raises(ValueError, match="need n >= 2 and r >= 1"):
            TensorSpace(*args)

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 3), (3, 2), (4, 2)])
    def test_same_actions_and_weights_as_mixed(self, n, r):
        plain, mixed = TensorSpace(n, r), MixedSpace(n, r, 0)
        assert weight_vectors(plain) == weight_vectors(mixed)
        for x in lie_basis("gl", n) + lie_basis("so", n):
            assert derivation_ops_sparse(x, plain).rows == derivation_ops_sparse(x, mixed).rows


class TestSizeCapsAreConstants:
    """The dense builders refuse a space above DENSE_DIM_CAP (4096) and
    the sparse derivation one above DEFAULT_DIM_CAP (65536), before any
    matrix or row is allocated."""

    @pytest.fixture
    def no_allocation(self, monkeypatch):
        from diagramalg import tensor

        def refuse(*args, **kwargs):
            raise AssertionError("allocated before the cap check")

        for name in ("zeros_matrix", "dense_from_rows", "_diagram_rows",
                     "_position_actions", "adjoint_transport_rows"):
            monkeypatch.setattr(tensor, name, refuse)

    def test_dense_builders(self, no_allocation):
        space = TensorSpace(2, 13)  # 8192 > 4096
        form = BilinearForm("symmetric", 2)
        x = frac_matrix([[0, 1], [0, 0]])
        builders = [
            lambda: sigma_perm(tuple(range(13)), space),
            lambda: diagram_matrix(identity_diagram(13), space, form),
            lambda: derivation_action(x, space),
            lambda: reflection_matrix(2, 13),
            lambda: adjoint_transport(2, 7),  # mixed space 16384
        ]
        for build in builders:
            with pytest.raises(CapExceededError, match="exceeds cap 4096"):
                build()

    def test_sparse_derivation(self):
        with pytest.raises(CapExceededError, match="exceeds cap 65536"):
            derivation_ops_sparse(matrix_unit(2, 0, 1), TensorSpace(2, 17))
