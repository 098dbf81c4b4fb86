import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from diagramalg import linalg
from diagramalg.algebra import deranged_basis
from diagramalg.combinatorics import _highest_weight_equations
from diagramalg.diagrams import Wall, enumerate_diagrams, is_walled
from diagramalg.ring import exactify
from diagramalg.linalg import (
    DEFAULT_PRIMES,
    ExactRref,
    LinOp,
    MatrixSpan,
    ModRref,
    algebra_closure,
    commutant,
    dense_from_rows,
    graded_commutant_dim,
    intertwiner_kernel,
    kernel_modp_dense,
    mat_to_modp,
    rational_reconstruct,
    solve_sparse_system,
    span_equal,
    zeros_matrix,
)
from diagramalg.tensor import (
    AdjointSpace,
    MixedSpace,
    TensorSpace,
    deranged_matrix,
    deranged_ops,
    derivation_action,
    diagram_matrix,
    mixed_diagram_matrix,
    reflection_matrix,
    sigma_perm,
    weight_vectors,
    BilinearForm,
)

import oracles
from oracles import frac_matrix, gauss_jordan_modp, identity_matrix, lie_basis, matrices_equal


def echelon(mat) -> ExactRref:
    """The exact echelon form of the rows of a dense matrix."""
    acc = ExactRref(mat.shape[1])
    for row in mat:
        acc.insert(row)
    return acc


def random_rational_matrix(rng, rows, cols, den=5):
    return frac_matrix([[Fraction(rng.randint(-9, 9), rng.randint(1, den))
                         for _ in range(cols)] for _ in range(rows)])


class TestRref:
    def test_identity(self):
        acc = echelon(identity_matrix(3))
        assert acc.rank == 3
        assert acc.pivot_cols == [0, 1, 2]
        assert matrices_equal(dense_from_rows(acc.rows, 3), identity_matrix(3))

    def test_zero(self):
        acc = echelon(zeros_matrix(3, 4))
        assert acc.rank == 0
        assert acc.pivot_cols == []

    def test_rank_matches_two_prime_moduli(self):
        rng = random.Random(100)
        for _ in range(3):
            mat = random_rational_matrix(rng, 20, 20)
            # force a rank drop
            for j in range(20):
                mat[7, j] = mat[3, j] + 2 * mat[5, j]
            rank_exact = echelon(mat).rank
            for p in DEFAULT_PRIMES:
                acc = ModRref(20, p)
                reduced = mat_to_modp(mat, p)
                for i in range(20):
                    acc.insert(reduced[i])
                assert acc.rank == rank_exact

    def test_modular_rank_is_lower_bound(self):
        p = DEFAULT_PRIMES[0]
        mat = frac_matrix([[p, 0], [0, 1]])
        rank_exact = echelon(mat).rank
        acc = ModRref(2, p)
        for row in mat_to_modp(mat, p):
            acc.insert(row)
        assert acc.rank == 1 < rank_exact


class TestExactRref:
    def test_kernel_of_known_system(self):
        # x + y + z = 0, x - z = 0  ->  kernel spanned by (1, -2, 1)
        acc = ExactRref(3)
        acc.insert([1, 1, 1])
        acc.insert([1, 0, -1])
        (vec,) = acc.kernel_basis()
        assert vec[0] == vec[2]
        assert vec[1] == -2 * vec[0]

    def test_contains(self):
        acc = ExactRref(3)
        acc.insert([1, 2, 3])
        assert acc.contains([2, 4, 6])
        assert not acc.contains([1, 0, 0])

    def test_nullspace_exact_roundtrip(self):
        rng = random.Random(8)
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(6)] for _ in range(3)]
        for vec in solve_sparse_system(rows, 6, mode="exact").kernel:
            for row in rows:
                assert sum(c * v for c, v in zip(row, vec)) == 0


class TestReconstruction:
    def test_rational_reconstruct_roundtrip(self):
        p1, p2 = DEFAULT_PRIMES
        modulus = p1 * p2
        rng = random.Random(17)
        for _ in range(200):
            q = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**6))
            residue = q.numerator * pow(q.denominator, -1, modulus) % modulus
            assert rational_reconstruct(residue, modulus) == q


class TestSolveSparse:
    @staticmethod
    def small_system():
        # unknowns (x, y, z, w): x = y, z = 2w
        return [{0: Fraction(1), 1: Fraction(-1)},
                {2: Fraction(1), 3: Fraction(-2)}], 4

    @pytest.mark.parametrize("mode,label", [
        ("exact", "exact"),
        ("modular", "mod-p"),
    ])
    def test_modes_agree(self, mode, label):
        rows, ncols = self.small_system()
        res = solve_sparse_system(rows, ncols, mode=mode)
        assert res.nullity == 2
        assert res.method.startswith(label)

    def test_certified_path(self):
        rows, ncols = self.small_system()
        # force the modular route regardless of size
        import diagramalg.linalg as linalg
        res_exact = solve_sparse_system(rows, ncols, mode="exact")
        old = linalg.EXACT_UNKNOWN_CAP
        linalg.EXACT_UNKNOWN_CAP = 0
        try:
            res = solve_sparse_system(rows, ncols, mode="auto")
        finally:
            linalg.EXACT_UNKNOWN_CAP = old
        assert res.method == "mod-p-confirmed-exact"
        assert res.nullity == res_exact.nullity
        assert res.kernel == res_exact.kernel

    def test_exact_stops_at_full_rank(self):
        # once the rank reaches ncols the remaining rows lie in the span
        class Sentinel:
            def __iter__(self):
                raise AssertionError("row read after full rank")

        res = solve_sparse_system([{0: 1}, {1: 1}, Sentinel()], 2, mode="exact")
        assert (res.rank, res.nullity) == (2, 0)


class TestPrimeRule:
    P1 = DEFAULT_PRIMES[0]
    NEXT_TWO = "mod-p(33554383,33554371)"

    @classmethod
    def unlucky_system(cls):
        # x + y = 0 and x + (1 + p1) y = 0: the rows agree modulo p1 only
        return [{0: Fraction(1), 1: Fraction(1)},
                {0: Fraction(1), 1: Fraction(1 + cls.P1)}], 2

    def test_modular_skips_a_disagreeing_prime(self):
        res = solve_sparse_system(*self.unlucky_system(), mode="modular")
        assert (res.nullity, res.method) == (0, self.NEXT_TWO)

    def test_graded_skips_a_disagreeing_prime(self):
        gen = zeros_matrix(2, 2)
        gen[0, 0], gen[1, 1] = 1, 1 + self.P1
        assert graded_commutant_dim([gen], [(0,), (1,)]) == (2, self.NEXT_TWO)

    def test_failed_check_falls_back_to_exact(self, monkeypatch):
        # modulo p1 the kernel is (-1, 1), which lifts cleanly and fails
        # the exact check
        monkeypatch.setattr(linalg, "EXACT_UNKNOWN_CAP", 0)
        res = solve_sparse_system(*self.unlucky_system(), mode="auto")
        assert (res.nullity, res.rank, res.kernel, res.method) == (0, 2, [], "exact")

    def test_failed_reconstruction_falls_back_to_exact(self, monkeypatch):
        rows, ncols = TestSolveSparse.small_system()
        expected = solve_sparse_system(rows, ncols, mode="exact")
        monkeypatch.setattr(linalg, "EXACT_UNKNOWN_CAP", 0)
        monkeypatch.setattr(linalg, "rational_reconstruct", lambda a, modulus: None)
        res = solve_sparse_system(rows, ncols, mode="auto")
        assert res.method == "exact"
        assert (res.nullity, res.kernel) == (2, expected.kernel)

    @pytest.mark.parametrize("mode,tables,method", [
        ("auto", 1, "mod-p-confirmed-exact"),
        ("exact", 0, "exact"),
    ])
    def test_modular_tables_above_the_cap(self, monkeypatch, mode, tables, method):
        # x_0 = x_1 = ... = x_n on n + 1 > EXACT_UNKNOWN_CAP unknowns
        built = []

        class Counting(ModRref):
            def __init__(self, *args, **kwargs):
                built.append(args)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(linalg, "ModRref", Counting)
        n = linalg.EXACT_UNKNOWN_CAP
        rows = [{i: Fraction(1), i + 1: Fraction(-1)} for i in range(n)]
        res = solve_sparse_system(rows, n + 1, mode=mode)
        assert (res.nullity, res.method) == (1, method)
        assert res.kernel == [[1] * (n + 1)]
        assert len(built) == tables

    def test_running_out_of_primes_raises(self):
        den = 1
        for p in DEFAULT_PRIMES + linalg.EXTRA_PRIMES:
            den *= p
        with pytest.raises(ArithmeticError, match="ran out of primes"):
            solve_sparse_system([{0: Fraction(1, den)}], 2, mode="modular")


class TestCommutant:
    def test_no_generators_gives_full_algebra(self):
        span, res = commutant([], 3)
        assert res.nullity == 9
        assert span.dim == 9
        assert span.contains_matrix(identity_matrix(3))

    def test_symmetric_group_on_two_tensor_factors(self):
        space = TensorSpace(2, 2)
        mats = [sigma_perm(w, space) for w in itertools.permutations(range(2))]
        span, res = commutant(mats, 4)
        assert res.nullity == 10

    def test_symplectic_derived_action(self):
        space = TensorSpace(2, 2)
        gens = [derivation_action(x, space) for x in lie_basis("sp", 2)]
        _, res = commutant(gens, 4)
        assert res.nullity == 2

    def test_contains_identity_and_multiplication_closed(self):
        space = TensorSpace(2, 2)
        mats = [sigma_perm(w, space) for w in itertools.permutations(range(2))]
        span, _ = commutant(mats, 4)
        assert span.contains_matrix(identity_matrix(4))
        for a, b in itertools.product(span.basis[:4], span.basis[:4]):
            assert span.contains_matrix(a @ b)

    def test_triple_commutant_stability(self):
        space = TensorSpace(2, 2)
        gens = [sigma_perm((1, 0), space)]
        c1, _ = commutant(gens, 4)
        c2, _ = commutant(c1.basis, 4)
        c3, _ = commutant(c2.basis, 4)
        assert span_equal(c1, c3)


class TestClosure:
    def test_identity_seed(self):
        span = algebra_closure([identity_matrix(4)], 4)
        assert span.dim == 1

    def test_enveloping_image_equals_commutant_of_symmetric_group(self):
        space = TensorSpace(2, 2)
        gens = [derivation_action(x, space) for x in lie_basis("gl", 2)]
        closure = algebra_closure(gens, 4)
        assert closure.dim == 10
        perms = [sigma_perm(w, space) for w in itertools.permutations(range(2))]
        comm, _ = commutant(perms, 4)
        assert span_equal(closure, comm)

    def test_closure_is_multiplication_closed(self):
        space = TensorSpace(2, 2)
        gens = [derivation_action(x, space) for x in lie_basis("gl", 2)]
        closure = algebra_closure(gens, 4)
        for a, b in itertools.product(closure.basis[:5], closure.basis[:5]):
            assert closure.contains_matrix(a @ b)

    def test_brauer_image_equals_rotation_reflection_commutant(self):
        # diagram side generated matrices against the full orthogonal
        # commutant on two tensor factors, n = 3
        space = TensorSpace(3, 2)
        form = BilinearForm("symmetric", 3)
        seed = [diagram_matrix(d, space, form) for d in enumerate_diagrams(2)]
        closure = algebra_closure(seed, 9)
        gens = [derivation_action(x, space) for x in lie_basis("so", 3)]
        gens.append(reflection_matrix(3, 2))
        comm, _ = commutant(gens, 9)
        assert span_equal(closure, comm)


class TestSpanEqual:
    def test_span_vs_itself(self):
        span = MatrixSpan.from_matrices([identity_matrix(2)], 2)
        assert span_equal(span, span)

    def test_full_algebra_vs_empty_commutant(self):
        full = MatrixSpan.from_matrices(
            [frac_matrix([[1 if (i, j) == (a, b) else 0 for j in range(2)]
                          for i in range(2)])
             for a in range(2) for b in range(2)], 2)
        comm, _ = commutant([], 2)
        assert span_equal(full, comm)

    def test_dimension_mismatch(self):
        a = MatrixSpan.from_matrices([identity_matrix(2)], 2)
        b = MatrixSpan.from_matrices([identity_matrix(3)], 3)
        with pytest.raises(ValueError):
            span_equal(a, b)


class TestGradedCommutant:
    def test_matches_plain_commutant(self):
        space = TensorSpace(2, 2)
        mats = [sigma_perm(w, space) for w in itertools.permutations(range(2))]
        weights = weight_vectors(space)
        dim_mod, method = graded_commutant_dim(mats, weights, mode="modular")
        dim_exact, method_exact = graded_commutant_dim(mats, weights, mode="exact")
        _, res = commutant(mats, 4)
        assert dim_mod == dim_exact == res.nullity == 10
        assert method.startswith("mod-p(")
        assert method_exact == "exact"

    def test_prime_dividing_a_denominator_is_skipped(self):
        # DEFAULT_PRIMES[0] divides a denominator, so the solver walks on
        # to the next default prime and then the first extra prime.  The
        # graded solve scales its generator to integers first, so it meets
        # no denominator and keeps the first two default primes.
        q = Fraction(1, DEFAULT_PRIMES[0])
        res = solve_sparse_system([{0: q}], 3, mode="modular")
        assert (res.nullity, res.method) == (2, "mod-p(33554383,33554371)")
        gen = zeros_matrix(2, 2)
        gen[0, 0] = q
        assert graded_commutant_dim([gen], [(0,), (1,)]) == (2, "mod-p(33554393,33554383)")

    def test_rejects_non_graded_generators(self):
        mat = zeros_matrix(2, 2)
        mat[0, 1] = 1
        mat[1, 0] = 1
        with pytest.raises(ValueError):
            graded_commutant_dim([mat], [(0,), (1,)])


class TestInvariantVectors:
    def test_trivial_isotypic_of_group_algebra(self):
        # invariants of the swap on 2 tensor factors: symmetric part, dim 3
        space = TensorSpace(2, 2)
        swap = sigma_perm((1, 0), space) - identity_matrix(4)
        res, support = intertwiner_kernel([swap], [LinOp(1, [{}])], 4, 1)
        assert res.nullity == 3
        assert [i for i, _ in support] == [0, 1, 2, 3]


class TestKernelModP:
    def test_small_kernel(self):
        p = DEFAULT_PRIMES[0]
        mat = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
        kern = kernel_modp_dense(mat, p)
        assert kern.shape == (3, 1)
        assert (mat @ kern % p == 0).all()


class TestLinOp:
    def test_diagonal_detection(self):
        d = frac_matrix([[2, 0], [0, 3]])
        assert LinOp.from_dense(d).diagonal_vector() == [2, 3]
        nd = frac_matrix([[0, 1], [0, 0]])
        assert LinOp.from_dense(nd).diagonal_vector() is None

    def test_dense_roundtrip(self):
        mat = frac_matrix([[1, Fraction(1, 2)], [0, -3]])
        assert matrices_equal(LinOp.from_dense(mat).to_dense(), mat)


def mixed_rank_stack(rng, p, batch, nrows, ncols):
    """A (batch, nrows, ncols) stack over GF(p): an all-zero member, a
    full-rank member, and members of every rank in between."""
    stack = np.zeros((batch, nrows, ncols), dtype=np.int64)
    for b in range(1, batch):
        rank = min(b - 1, nrows, ncols) if b < batch - 1 else min(nrows, ncols)
        if rank == min(nrows, ncols):
            # unit upper-triangular rows, shuffled: full rank for sure
            tri = np.triu(rng.integers(0, p, (nrows, ncols)), 1)
            tri[np.arange(rank), np.arange(rank)] = 1
            stack[b] = tri[rng.permutation(nrows)]
        elif rank:
            left = rng.integers(0, p, (nrows, rank))
            right = rng.integers(0, p, (rank, ncols))
            stack[b] = (left @ right) % p  # entries < 2**50 * rank
    return stack


class TestBatchedModRref:
    """Single forms on each member of a mixed-rank stack, checked against
    the plain modular Gauss-Jordan of ``oracles.gauss_jordan_modp``."""

    @pytest.mark.parametrize("nrows,ncols", [(8, 6), (4, 7), (6, 6)])
    def test_agrees_with_separate_forms(self, nrows, ncols):
        p = DEFAULT_PRIMES[1]
        rng = np.random.default_rng(nrows * 10 + ncols)
        stack = mixed_rank_stack(rng, p, 7, nrows, ncols)
        ranks = []
        for mat in stack:
            acc = ModRref(ncols, p)
            for row in mat:
                assert type(acc.insert(row)) is bool
            pivots, kern = gauss_jordan_modp(mat, ncols, p)
            assert (acc.rank, acc.pivot_cols) == (len(pivots), tuple(pivots))
            assert np.array_equal(acc.kernel_basis(), kern)
            assert not (mat @ kern % p).any()
            ranks.append(acc.rank)
        assert ranks[0] == 0 and ranks[-1] == min(nrows, ncols)

    @pytest.mark.parametrize("nrows,ncols", [(8, 6), (4, 7), (6, 6)])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_sparse_single_forms_match_dense_batch_row_by_row(self, nrows, ncols, sparse):
        p = DEFAULT_PRIMES[0]
        rng = np.random.default_rng(nrows * 10 + ncols + 1)
        stack = mixed_rank_stack(rng, p, 7, nrows, ncols)
        # the rows again, shuffled: every one arrives after its form saturated
        stack = np.concatenate([stack, stack[:, rng.permutation(nrows)]], axis=1)
        for mat in stack:
            acc, rank = ModRref(ncols, p), 0
            for i, row in enumerate(mat):
                grew = (acc.insert_sparse((j, int(x)) for j, x in enumerate(row) if x)
                        if sparse else acc.insert(row))
                before, rank = rank, len(gauss_jordan_modp(mat[:i + 1], ncols, p)[0])
                assert grew == (rank > before)
                assert acc.rank == rank
                assert not (grew and i >= nrows)
            pivots, kern = gauss_jordan_modp(mat, ncols, p)
            assert acc.pivot_cols == tuple(pivots)
            assert np.array_equal(acc.kernel_basis(), kern)

    def test_lifted_kernel_of_invariant_equations_is_the_exact_one(self):
        rows, support = _highest_weight_equations(5, 3, (0,) * 5)
        lifted = solve_sparse_system(rows, len(support), mode="auto")
        exact = solve_sparse_system(rows, len(support), mode="exact")
        assert (lifted.method, exact.method) == ("mod-p-confirmed-exact", "exact")
        assert (lifted.rank, lifted.nullity) == (exact.rank, exact.nullity)
        assert lifted.kernel == exact.kernel

    def test_two_dimensional_kernel_layout(self):
        p = DEFAULT_PRIMES[0]
        mat = np.array([[1, 1, 0], [0, 0, 1]], dtype=np.int64)
        assert kernel_modp_dense(mat, p).tolist() == [[p - 1], [1], [0]]


def graded_cases():
    adjoint = AdjointSpace(3, 1)
    yield [deranged_matrix(el.element, 3, 1) for el in deranged_basis(1, 3)], adjoint, 64
    tensor = TensorSpace(2, 3)
    yield ([sigma_perm(w, tensor) for w in itertools.permutations(range(3))],
           tensor, 20)
    mixed, wall = MixedSpace(2, 1, 1), Wall(1, 1)
    yield ([mixed_diagram_matrix(d, mixed) for d in enumerate_diagrams(wall.m)
            if is_walled(d, wall)], mixed, 10)


class TestBatchedGradedCommutant:
    @pytest.mark.parametrize("mats,space,dim", list(graded_cases()),
                             ids=["adjoint-3-1", "tensor-2-3", "mixed-2-1-1"])
    @pytest.mark.parametrize("mode", ["modular", "exact"])
    def test_matches_plain_commutant(self, mats, space, dim, mode):
        _, res = commutant(mats, space.dim)
        got, _ = graded_commutant_dim(mats, weight_vectors(space), mode=mode)
        assert got == res.nullity == dim

    @pytest.mark.parametrize("mats,space,dim", list(graded_cases()),
                             ids=["adjoint-3-1", "tensor-2-3", "mixed-2-1-1"])
    @pytest.mark.parametrize("mode", ["modular", "exact"])
    def test_linop_inputs_give_the_dense_totals(self, mats, space, dim, mode):
        # the deranged verify passes its diagram operators as LinOps
        weights = weight_vectors(space)
        ops = [LinOp.from_dense(m) for m in mats]
        got = graded_commutant_dim(ops, weights, mode=mode)
        assert got == graded_commutant_dim(mats, weights, mode=mode)
        assert got[0] == dim

    def test_one_kernel_call_per_block_shape_and_prime(self, monkeypatch):
        # AdjointSpace(3, 1): six root classes of size 1, on which the one
        # generator restricts to the same scalar, and the zero weight of
        # size 2: two class keys, so 4 pairs x 2 primes, where one call
        # per block would make 7 * 7 * 2 = 98.
        mats, space, dim = next(graded_cases())
        calls = []
        original = linalg.kernel_modp_dense

        def counting(mat, p):
            calls.append(mat.shape)
            return original(mat, p)

        monkeypatch.setattr(linalg, "kernel_modp_dense", counting)
        assert graded_commutant_dim(mats, weight_vectors(space))[0] == dim
        assert sorted(calls) == sorted([(1, 1), (2, 2), (2, 2), (4, 4)] * 2)

    @pytest.mark.parametrize("mode", ["modular", "exact"])
    @pytest.mark.parametrize("diag,dim", [((1, 2), 2), ((1, 1), 4)])
    def test_same_size_classes_merge_only_on_equal_restrictions(self, mode, diag, dim):
        # two classes of size 1; merging them by size alone would give 4
        gen = frac_matrix([[diag[0], 0], [0, diag[1]]])
        assert graded_commutant_dim([gen], [(0,), (1,)], mode=mode)[0] == dim


def gauss_jordan(rows, ncols):
    """Plain dense Gauss-Jordan over Q: (pivot columns, nonzero reduced rows)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots, m[:len(pivots)]


def rank_deficient(rng, nrows, ncols, rank, fractions):
    """An nrows x ncols product of random factors, rank at most ``rank``."""
    def entry():
        num = rng.randint(-4, 4)
        return Fraction(num, rng.randint(1, 3)) if fractions else num
    left = [[entry() for _ in range(rank)] for _ in range(nrows)]
    right = [[entry() for _ in range(ncols)] for _ in range(rank)]
    return [[sum(a * right[k][j] for k, a in enumerate(row)) for j in range(ncols)]
            for row in left]


def nullspace_from_rref(pivots, reduced, ncols):
    """One kernel vector per free column, read off a reduced echelon form."""
    out = []
    for f in (j for j in range(ncols) if j not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for pc, prow in zip(pivots, reduced):
            vec[pc] = -prow[f]
        out.append(vec)
    return out


def row_forms(row):
    obj = np.empty(len(row), dtype=object)
    obj[:] = row
    return {"list": list(row), "numpy": obj, "dict": {j: x for j, x in enumerate(row) if x}}


class TestSparseExactRref:
    @pytest.mark.parametrize("form", ["list", "numpy", "dict"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_gauss_jordan(self, seed, form):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(1, 9), rng.randint(1, 9)
        rows = rank_deficient(rng, nrows, ncols, rng.randint(0, min(nrows, ncols)),
                              fractions=seed % 2 == 1)
        pivots, reduced = gauss_jordan(rows, ncols)
        acc = ExactRref(ncols)
        grew = [acc.insert(row_forms(row)[form]) for row in rows]
        assert sum(grew) == acc.rank == len(pivots)
        assert acc.pivot_cols == pivots
        dense = echelon(frac_matrix(rows))
        assert (dense.rank, dense.pivot_cols) == (len(pivots), pivots)
        padded = reduced + [[0] * ncols] * (nrows - dense.rank)
        assert matrices_equal(dense_from_rows(dense.rows + [{}] * (nrows - dense.rank), ncols),
                              frac_matrix(padded))
        assert acc.kernel_basis() == nullspace_from_rref(pivots, reduced, ncols)
        coeffs = [rng.randint(-2, 2) for _ in rows]
        member = [sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(ncols)]
        assert acc.contains(row_forms(member)[form])
        probe = [Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(ncols)]
        assert acc.contains(row_forms(probe)[form]) == (
            len(gauss_jordan(rows + [probe], ncols)[0]) == len(pivots))
        residue = acc.reduce(row_forms(probe)[form])
        assert len(residue) == ncols and all(residue[pc] == 0 for pc in pivots)
        assert acc.contains([p - q for p, q in zip(probe, residue)])

    def test_values_with_unit_denominator_are_ints(self):
        acc = ExactRref(4)
        acc.insert({0: Fraction(2), 1: Fraction(4), 3: Fraction(3, 2)})
        acc.insert([Fraction(1, 3), 0, 1, Fraction(6, 3)])
        for row in acc.rows:
            assert all(type(x) is int or x.denominator != 1 for x in row.values())
            assert all(x != 0 for x in row.values())

    @pytest.mark.parametrize("seed", range(8))
    def test_large_and_rational_entries_match_gauss_jordan(self, seed):
        rng = random.Random(1000 + seed)
        nrows, ncols = rng.randint(2, 14), rng.randint(2, 14)

        def entry():
            x = rng.randint(-10 ** 6, 10 ** 6) if rng.random() < 0.35 else 0
            return Fraction(x, rng.randint(1, 10 ** 6)) if seed % 2 else x

        rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
        rows += [[a - 3 * b for a, b in zip(*rng.sample(rows, 2))]]  # a dependent row
        rows = [{j: x for j, x in enumerate(row) if x} for row in rows]
        dense = [[row.get(j, 0) for j in range(ncols)] for row in rows]
        pivots, reduced = gauss_jordan(dense, ncols)
        acc = ExactRref(ncols)
        for row in rows:
            acc.insert(row)
        assert acc.rank == len(pivots) and acc.pivot_cols == pivots
        assert acc.rows == [{j: x for j, x in enumerate(r) if x} for r in reduced]
        assert acc.kernel_basis() == nullspace_from_rref(pivots, reduced, ncols)
        probe = [Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.randint(1, 10 ** 6))
                 for _ in range(ncols)]
        residue = acc.reduce(probe)
        expected = probe
        for pc, r in zip(pivots, reduced):
            expected = [a - probe[pc] * b for a, b in zip(expected, r)]
        assert residue == expected
        assert acc.contains(dense[-1])
        assert acc.contains(probe) == (len(gauss_jordan(dense + [probe], ncols)[0]) == len(pivots))

    def test_pivot_rows_are_primitive_integer_rows(self):
        acc = ExactRref(10)
        for row in rank_deficient(random.Random(5), 8, 10, 4, fractions=True):
            acc.insert(row)
        assert acc.rank == 4
        for pc in acc.pivot_cols:
            row = acc._row_of[pc]
            assert all(type(x) is int and x for x in row.values())
            assert min(row) == pc and row[pc] > 0
            assert math.gcd(*row.values()) == 1
            assert all(q == pc or q not in row for q in acc.pivot_cols)

    def test_integer_rows_create_no_fraction(self, monkeypatch):
        rng = random.Random(6)
        rows = [{j: rng.randint(-9, 9) or 1 for j in rng.sample(range(12), 5)} for _ in range(20)]

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        acc = ExactRref(12)
        monkeypatch.setattr(Fraction, "__new__", refuse)
        for row in rows:
            acc.insert(row)
            assert acc.contains(row)
        monkeypatch.undo()
        assert acc.rank == len(gauss_jordan(
            [[row.get(j, 0) for j in range(12)] for row in rows], 12)[0])

    def test_exact_solve_of_invariant_equations(self):
        rows, support = _highest_weight_equations(4, 3, (0,) * 4)
        result = solve_sparse_system(rows, len(support), mode="exact", want_kernel=False)
        assert (result.nullity, result.method) == (2, "exact")

    def test_exactify_keeps_ints(self):
        assert type(exactify(5)) is int and exactify(5) == 5
        assert type(exactify(Fraction(6, 3))) is int and exactify(Fraction(6, 3)) == 2
        assert exactify(Fraction(1, 2)) == Fraction(1, 2)


class TestKernelCertificate:
    def test_accepts_kernel_and_rejects_perturbed_entry(self):
        rng = random.Random(3)
        rows = rank_deficient(rng, 6, 8, 4, fractions=True)
        sparse = [{j: x for j, x in enumerate(row) if x} for row in rows]
        kernel = solve_sparse_system(rows, 8, mode="exact").kernel
        assert kernel and linalg._kernel_vanishes(sparse, kernel)
        assert linalg._kernel_vanishes(sparse, [])
        col = next(j for j in range(8) if any(row[j] for row in rows))
        broken = [list(vec) for vec in kernel]
        broken[-1][col] += Fraction(1, 7)
        assert not linalg._kernel_vanishes(sparse, broken)


def gl2_closure_seed():
    space = TensorSpace(2, 2)
    return [derivation_action(x, space) for x in lie_basis("gl", 2)]


class TestOnePassClosure:
    """The closure forms each product once and settles membership exactly,
    with no reduction modulo a prime."""

    def test_unbounded_closure_is_exact_and_closed(self):
        closure = algebra_closure(gl2_closure_seed(), 4)
        assert closure.dim == 10
        for a, b in itertools.product(closure.basis, repeat=2):
            assert closure.contains_matrix(a @ b)

    def test_cap_is_checked_on_exact_dimension(self, monkeypatch):
        monkeypatch.setattr(linalg, "CLOSURE_DIM_CAP", 9)
        with pytest.raises(linalg.CapExceededError):
            algebra_closure(gl2_closure_seed(), 4)
        monkeypatch.setattr(linalg, "CLOSURE_DIM_CAP", 10)
        assert algebra_closure(gl2_closure_seed(), 4).dim == 10

    def test_one_saturation_no_screen_each_product_once(self, monkeypatch):
        counts = {"saturate": 0, "screens": 0, "products": 0, "reductions": 0}
        saturate, to_modp = linalg.saturate, linalg.mat_to_modp

        def counted_saturate(start, gens, multiply, take):
            counts["saturate"] += 1

            def counted_multiply(g, b):
                counts["products"] += 1
                return multiply(g, b)
            return saturate(start, gens, counted_multiply, take)

        def counted_to_modp(mat, p):
            counts["reductions"] += 1
            return to_modp(mat, p)

        class CountedModRref(ModRref):
            def __init__(self, *args, **kwargs):
                counts["screens"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(linalg, "saturate", counted_saturate)
        monkeypatch.setattr(linalg, "mat_to_modp", counted_to_modp)
        monkeypatch.setattr(linalg, "ModRref", CountedModRref)
        seed = gl2_closure_seed()
        closure = algebra_closure(seed, 4)
        assert closure.dim == 10
        # every kept element is multiplied by every generator exactly once
        products = len(seed) * closure.dim
        assert counts == {"saturate": 1, "screens": 0, "products": products,
                          "reductions": 0}


class TestSpanEqualOneContainment:
    def test_equal_dimensions_different_spans(self):
        e11 = frac_matrix([[1, 0], [0, 0]])
        e22 = frac_matrix([[0, 0], [0, 1]])
        a = MatrixSpan.from_matrices([e11], 2)
        b = MatrixSpan.from_matrices([e22], 2)
        assert a.dim == b.dim == 1
        assert not span_equal(a, b)
        assert not span_equal(b, a)


class TestExactGradedCountsNullity:
    def test_no_kernel_built(self, monkeypatch):
        # exact blocks are counted from their rank; no kernel vector is formed
        def refuse(self):
            raise AssertionError("kernel built only to be counted")

        monkeypatch.setattr(ExactRref, "kernel_basis", refuse)
        for mats, space, dim in graded_cases():
            assert graded_commutant_dim(mats, weight_vectors(space), mode="exact") == (dim, "exact")

    def test_blocks_reach_the_solver_as_integers(self, monkeypatch):
        # the deranged(3, 1) operators carry Fractions; each is scaled once
        # to integers, so every block row the solver sees is integral
        ops = deranged_ops([el.element for el in deranged_basis(1, 3)], 3, 1)
        assert any(type(x) is Fraction for op in ops for x in op.entries().values())
        seen = []
        original = linalg.solve_sparse_system

        def spy(rows, ncols, **kwargs):
            seen.extend({*map(type, row)} for row in rows)
            return original(rows, ncols, **kwargs)

        monkeypatch.setattr(linalg, "solve_sparse_system", spy)
        assert graded_commutant_dim(ops, weight_vectors(AdjointSpace(3, 1)), mode="exact") == (
            64, "exact")
        assert seen and set().union(*seen) == {int}


class TestGradedReadsSparseBlocks:
    @pytest.mark.parametrize("mode", ["modular", "exact"])
    def test_no_array_of_side_d(self, monkeypatch, mode):
        # AdjointSpace(3, 1): d = 8 (commutant dimension 64), weight classes
        # of size 1 and 2; only the restricted (k, a, a) blocks are formed
        ops = deranged_ops([el.element for el in deranged_basis(1, 3)], 3, 1)
        shapes = []
        original = linalg.mat_to_modp

        def recording(mat, p):
            shapes.append(mat.shape)
            return original(mat, p)

        def refuse(self):
            raise AssertionError("d x d operator densified")

        monkeypatch.setattr(LinOp, "to_dense", refuse)
        monkeypatch.setattr(linalg, "mat_to_modp", recording)
        assert graded_commutant_dim(ops, weight_vectors(AdjointSpace(3, 1)), mode=mode)[0] == 64
        assert all(len(shape) == 3 and shape[0] == len(ops) and shape[1] == shape[2] <= 2
                   for shape in shapes)
        assert bool(shapes) == (mode == "modular")


def sp42_closure_seed():
    space = TensorSpace(4, 2)
    return [derivation_action(x, space) for x in lie_basis("sp", 4)]


class TestBoundedClosure:
    """With a proven upper bound the closure saturates on residues modulo
    one prime and multiplies out only the kept words."""

    @staticmethod
    def counting(monkeypatch):
        # reductions mod p, and one flag per saturation: exact products?
        counts = {"reductions": 0, "exact_saturations": []}
        saturate, to_modp = linalg.saturate, linalg.mat_to_modp

        def counted_saturate(start, gens, multiply, take):
            counts["exact_saturations"].append(multiply is LinOp.__matmul__)
            return saturate(start, gens, multiply, take)

        def counted_to_modp(mat, p):
            counts["reductions"] += 1
            return to_modp(mat, p)

        monkeypatch.setattr(linalg, "saturate", counted_saturate)
        monkeypatch.setattr(linalg, "mat_to_modp", counted_to_modp)
        return counts

    @pytest.mark.parametrize("make_seed,d,dim", [
        (gl2_closure_seed, 4, 10), (sp42_closure_seed, 16, 126),
    ], ids=["gl2", "sp4"])
    def test_true_bound_gives_the_closure(self, monkeypatch, make_seed, d, dim):
        seed = make_seed()
        unbounded = algebra_closure(seed, d)
        counts = self.counting(monkeypatch)
        bounded = algebra_closure(seed, d, bound=dim)
        assert bounded.dim == unbounded.dim == dim
        assert span_equal(bounded, unbounded)
        # one reduction per start element (the identity and the seed)
        assert counts == {"reductions": 1 + len(seed), "exact_saturations": [False]}

    def test_loose_bound_falls_back(self, monkeypatch):
        counts = self.counting(monkeypatch)
        assert algebra_closure(gl2_closure_seed(), 4, bound=11).dim == 10
        assert counts["exact_saturations"] == [False, True]

    def test_prime_in_a_seed_denominator_falls_back(self, monkeypatch):
        seed = gl2_closure_seed()
        seed[0] = seed[0] * Fraction(1, 33554393)
        counts = self.counting(monkeypatch)
        assert algebra_closure(seed, 4, bound=10).dim == 10
        assert counts["exact_saturations"] == [True]
        assert algebra_closure(seed, 4).dim == 10

    def test_cap_is_enforced(self, monkeypatch):
        monkeypatch.setattr(linalg, "CLOSURE_DIM_CAP", 9)
        with pytest.raises(linalg.CapExceededError):
            algebra_closure(gl2_closure_seed(), 4, bound=10)
        monkeypatch.setattr(linalg, "CLOSURE_DIM_CAP", 10)
        assert algebra_closure(gl2_closure_seed(), 4, bound=10).dim == 10

    def test_broken_reduction_raises(self, monkeypatch):
        # random residues make every word independent mod p, but
        # E11 + E22 acts as twice the identity
        rng = np.random.default_rng(0)
        monkeypatch.setattr(linalg, "mat_to_modp",
                            lambda mat, p: rng.integers(0, p, size=mat.shape))
        with pytest.raises(ArithmeticError, match="exactly dependent"):
            algebra_closure(gl2_closure_seed(), 4, bound=10)

    def test_wrapping_int64_sums_fall_back_before_any_reduction(self, monkeypatch):
        # an entry of a product of d x d residues sums d terms below
        # (p - 1)**2: 8192 of them fit in an int64, 8193 may not
        d, p = 8193, DEFAULT_PRIMES[0]
        assert (d - 1) * (p - 1) ** 2 <= 2 ** 63 - 1 < d * (p - 1) ** 2
        counts = self.counting(monkeypatch)

        def refuse(mat, p):
            raise AssertionError("reduced mod p")

        monkeypatch.setattr(linalg, "mat_to_modp", refuse)
        seed = [LinOp(d, [{i: 1} if i % 2 else {} for i in range(d)])]
        assert algebra_closure(seed, d, bound=2).dim == 2
        assert counts["exact_saturations"] == [True]


CLOSURE_SEEDS = pytest.mark.parametrize("make_seed,d,dim", [
    (gl2_closure_seed, 4, 10), (sp42_closure_seed, 16, 126),
], ids=["gl2", "sp4"])


class TestDenseAndLinOpAgree:
    """The operator layer converts a dense array to a LinOp on the way in
    and works on LinOps only, so the same operators given either way give
    the same dimensions and the same spans."""

    @staticmethod
    def ops(mats):
        return [LinOp.from_dense(m) for m in mats]

    @CLOSURE_SEEDS
    def test_span_and_membership(self, make_seed, d, dim):
        seed = make_seed()
        dense, ops = MatrixSpan.from_matrices(seed, d), MatrixSpan.from_matrices(self.ops(seed), d)
        assert dense.dim == ops.dim == len(seed)
        assert span_equal(dense, ops) and span_equal(ops, dense)
        # the seed lies in its span, products of two generators do not
        for x, y in itertools.product(seed[:4], repeat=2):
            for m, inside in ((x, True), (x @ y, False)):
                for span in (dense, ops):
                    assert span.contains_matrix(m) is inside
                    assert span.contains_matrix(LinOp.from_dense(m)) is inside
            assert not ops.contains_matrix(LinOp.from_dense(x) @ LinOp.from_dense(y))

    @CLOSURE_SEEDS
    def test_commutant(self, make_seed, d, dim):
        seed = make_seed()
        (dense, dense_res), (ops, ops_res) = commutant(seed, d), commutant(self.ops(seed), d)
        assert (dense_res.nullity, dense_res.rank) == (ops_res.nullity, ops_res.rank)
        assert dense.dim == ops.dim == dense_res.nullity
        assert span_equal(dense, ops)

    @CLOSURE_SEEDS
    @pytest.mark.parametrize("bounded", [False, True])
    def test_closure(self, make_seed, d, dim, bounded):
        seed = make_seed()
        bound = dim if bounded else None
        dense = algebra_closure(seed, d, bound=bound)
        ops = algebra_closure(self.ops(seed), d, bound=bound)
        assert dense.dim == ops.dim == dim
        assert [m.rows for m in dense.basis] == [m.rows for m in ops.basis]
        assert span_equal(dense, ops)


class TestModRrefWideSums:
    """Near 2**31 an int64 holds only two products of residues; the
    echelon form reduces in Python ints, so its ranks stay exact."""

    P = 2 ** 31 - 1

    @classmethod
    def rank_six_rows(cls, rng):
        b = [[rng.randrange(cls.P) for _ in range(6)] for _ in range(8)]
        c = [[rng.randrange(cls.P) for _ in range(8)] for _ in range(6)]
        return [[sum(b[i][k] * c[k][j] for k in range(6)) % cls.P for j in range(8)]
                for i in range(8)]

    @pytest.mark.parametrize("sparse", [False, True])
    def test_rank_of_random_rank_six_matrices(self, sparse):
        rng = random.Random(11)
        for _ in range(50):
            acc = ModRref(8, self.P)
            for row in self.rank_six_rows(rng):
                if sparse:
                    acc.insert_sparse(enumerate(row))
                else:
                    acc.insert(np.array(row, dtype=np.int64))
            assert acc.rank == 6


class TestSparseModRrefMemory:
    """The single form stores its pivot rows sparsely: at the width of the
    deranged(4,2) matrix space (50625 unknowns) a dense ncols x ncols
    int64 table would take 19.1 GiB."""

    def test_wide_form_grows_with_its_rank(self):
        ncols = 15 ** 4
        rng = random.Random(4)
        rows = [[(j, rng.randrange(1, DEFAULT_PRIMES[0])) for j in rng.sample(range(ncols), 3)]
                for _ in range(100)]
        # a chain x_k = x_(k+1) on the first columns makes the pivots interact
        rows += [[(k, 1), (k + 1, -1)] for k in range(20)]
        tracemalloc.start()
        try:
            acc = ModRref(ncols, DEFAULT_PRIMES[0])
            grew = [acc.insert_sparse(row) for row in rows]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert acc.rank == sum(grew) == len(acc.pivot_cols) >= 100
        assert peak < 2 ** 20


class TestSparseLift:
    """Mode 'auto' lifts only the nonzeros of the modular kernel, one
    ``{col: residue}`` vector per free column, and builds a dense kernel
    only when one is asked for."""

    def test_counting_lift_builds_no_dense_kernel(self):
        # x_i = x_(i+600): a dense 1200 x 600 kernel would lift 720000
        # entries, all but 1200 of them zero
        rows = [{i: 1, i + 600: -1} for i in range(600)]
        tracemalloc.start()
        try:
            res = solve_sparse_system(rows, 1200, mode="auto", want_kernel=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.nullity, res.rank, res.kernel) == (600, 600, None)
        assert res.method == "mod-p-confirmed-exact"
        assert peak < 4 * 2 ** 20


class TestSupportByWeightClass:
    """``intertwiner_kernel`` reads its unknowns off the diagonal
    signatures; ``oracles.scanned_support`` tests every entry."""

    @staticmethod
    def diagonal(values):
        return LinOp(len(values), [{i: v} if v else {} for i, v in enumerate(values)])

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("dim_w,dim_u", [(7, 7), (5, 9), (12, 4)])
    def test_random_diagonals_give_the_scanned_support(self, seed, dim_w, dim_u):
        # few values, so classes collide; Fractions on one side meet equal
        # ints on the other, and a general pair comes first
        rng = random.Random(seed)

        def values(dim):
            return [rng.choice([-1, 0, 1, 2, Fraction(1, 2), Fraction(2), Fraction(-1)])
                    for _ in range(dim)]

        shift = [LinOp(dim_w, [{(i + 1) % dim_w: 1} for i in range(dim_w)]),
                 LinOp(dim_u, [{(u + 2) % dim_u: 3} for u in range(dim_u)])]
        left, right = [shift[0]], [shift[1]]
        for _ in range(rng.randint(1, 3)):
            left.append(self.diagonal(values(dim_w)))
            right.append(self.diagonal(values(dim_u)))
        _, support = intertwiner_kernel(left, right, dim_w, dim_u, want_kernel=False)
        assert support == oracles.scanned_support(left, right, dim_w, dim_u)

    def test_no_diagonal_pair_keeps_every_entry(self):
        left = [LinOp(3, [{1: 1}, {2: 1}, {0: 1}])]
        right = [LinOp(4, [{3: 1}, {0: 1}, {1: 1}, {2: 1}])]
        _, support = intertwiner_kernel(left, right, 3, 4, want_kernel=False)
        assert support == oracles.scanned_support(left, right, 3, 4)
        assert support == [(i, u) for i in range(3) for u in range(4)]

    def test_deranged_group_commutant(self):
        # the gl_8 generators on sl_8: 105 of the 3969 entries survive
        from diagramalg import duality

        gens = sum(duality._generators("gl", AdjointSpace(8, 1)), [])
        _, support = intertwiner_kernel(gens, gens, 63, 63, want_kernel=False)
        assert support == oracles.scanned_support(gens, gens, 63, 63)
        assert len(support) == 105
