import itertools
import math

import pytest

import oracles
from diagramalg import duality, linalg
from diagramalg.diagrams import CapExceededError
from diagramalg.duality import DualityReport, verify_duality
from diagramalg.linalg import DEFAULT_UNKNOWN_CAP, LinOp, MatrixSpan, algebra_closure, span_equal
from diagramalg.tensor import (AdjointSpace, BilinearForm, MixedSpace, TensorSpace, _diagram_rows,
                               reflection_op)
from oracles import (full_basis_verify, gl_irrep_dim, identity_matrix, lie_basis, partitions,
                     standard_tableaux)
from test_golden_stdout import COMMANDS


class TestSmallFamilies:
    def test_gl_two_tensor_square(self):
        rep = verify_duality("glA", 2, 2)
        assert rep.dims == {"group_image": 10, "diagram_image": 2,
                            "commutant_of_diagram": 10, "commutant_of_group": 2}
        assert rep.equal_a and rep.equal_b
        assert rep.faithful is True
        assert rep.method == "exact"

    def test_gl_faithfulness_threshold(self):
        assert verify_duality("glA", 2, 2).faithful
        assert not verify_duality("glA", 2, 3).faithful

    def test_symplectic_defect_is_reported_not_hidden(self):
        rep = verify_duality("sp", 2, 2)
        assert rep.equal_a and rep.equal_b
        assert rep.dims["diagram_image"] == 2
        assert rep.faithful is False

    def test_orthogonal(self):
        rep = verify_duality("o", 3, 2)
        assert rep.equal_a and rep.equal_b
        assert rep.dims["diagram_image"] == 3
        assert rep.faithful is True

    def test_walled(self):
        rep = verify_duality("walled", 2, 1, 1)
        assert rep.equal_a and rep.equal_b
        assert rep.dims == {"group_image": 10, "diagram_image": 2,
                            "commutant_of_diagram": 10, "commutant_of_group": 2}
        assert rep.faithful is True

    def test_walled_on_covectors_only(self):
        # r = 0: two dual factors only, the mirror image of V (x) V
        rep = verify_duality("walled", 2, 0, 2)
        assert rep.dims == {"group_image": 10, "diagram_image": 2,
                            "commutant_of_diagram": 10, "commutant_of_group": 2}
        assert rep.verified and rep.faithful

    def test_so_direct_strict_containment(self):
        rep = verify_duality("so-direct", 2, 1)
        assert rep.extra["so_commutant"] == 2
        assert rep.extra["o_commutant"] == 1
        assert rep.extra["proper_subalgebra"] is True
        assert rep.equal_a is None and rep.faithful is None


class TestDeranged:
    @pytest.fixture
    def graded_calls(self, monkeypatch):
        calls = []
        original = duality.graded_commutant_dim

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(duality, "graded_commutant_dim", counting)
        return calls

    @pytest.mark.parametrize("n,end", [(2, 9), (3, 64)])
    @pytest.mark.parametrize("mode,method", [
        ("exact", "exact"),
        ("auto", "mod-p(33554393,33554383)"),
    ])
    def test_adjoint_module_r1(self, graded_calls, n, end, mode, method):
        # sl_n is an irreducible GL_n-module: its commutant is the scalars
        # (1 = N(2)) and the group image is all of End(sl_n).
        rep = verify_duality("deranged", n, 1, mode=mode)
        assert rep.dims == {"group_image": end, "diagram_image": 1,
                            "commutant_of_diagram": end, "commutant_of_group": 1}
        assert rep.equal_a is True and rep.equal_b is True
        assert rep.faithful is True
        assert rep.extra == {"group_image_via": "double commutant"}
        assert rep.method == method
        assert len(graded_calls) == 1

    def test_no_group_image_without_equal_b(self, monkeypatch):
        monkeypatch.setattr(duality, "span_equal", lambda a, b: False)
        rep = verify_duality("deranged", 2, 1)
        assert rep.equal_b is False
        assert rep.equal_a is None
        assert rep.dims["group_image"] is None
        assert rep.dims["commutant_of_diagram"] == 9
        assert not rep.verified

    @staticmethod
    def _non_commuting(monkeypatch):
        # diag(1, 0, 0) on sl_2 keeps the torus weights but does not
        # commute with ad(e_01)
        from diagramalg.linalg import LinOp

        def fake(*args, **kwargs):
            return [LinOp(3, [{0: 1}, {}, {}])]

        monkeypatch.setattr(duality, "deranged_ops", fake)

    def test_commutation_checked_exactly_without_equal_b(self, monkeypatch):
        self._non_commuting(monkeypatch)
        monkeypatch.setattr(duality, "span_equal", lambda a, b: False)
        with pytest.raises(ArithmeticError, match="fail to commute"):
            verify_duality("deranged", 2, 1)

    def test_equal_b_proves_commutation(self, monkeypatch):
        # equal_b puts every diagram matrix in the span of the exactly
        # checked commutant basis, so no product is formed
        from diagramalg.linalg import LinOp

        self._non_commuting(monkeypatch)
        monkeypatch.setattr(duality, "span_equal", lambda a, b: True)
        monkeypatch.setattr(LinOp, "__matmul__", None)
        rep = verify_duality("deranged", 2, 1)
        assert rep.equal_b is True and rep.equal_a is True


class TestBareDiagramTransport:
    @pytest.mark.parametrize("n,r", [(2, 1), (3, 1), (4, 2)])
    def test_bare_diagram_acts_as_its_sandwich(self, n, r):
        # coords . sigma(e) = coords and sigma(e) . incl = incl
        from diagramalg.algebra import AlgebraElement, deranged_basis
        from diagramalg.tensor import deranged_ops

        elements = deranged_basis(r, n)
        sandwiched = deranged_ops([el.element for el in elements], n, r)
        bare = deranged_ops([AlgebraElement.from_diagram(el.diagram, 1, n)
                             for el in elements], n, r)
        assert [op.rows for op in bare] == [op.rows for op in sandwiched]

    def test_verify_transports_one_term_elements(self, monkeypatch):
        seen = []
        original = duality.deranged_ops

        def spy(els, n, r):
            seen.extend(len(el.terms) for el in els)
            return original(els, n, r)

        monkeypatch.setattr(duality, "deranged_ops", spy)
        assert verify_duality("deranged", 3, 1).verified
        assert seen == [1]


class TestReportShape:
    def test_json_keys(self):
        obj = verify_duality("glA", 2, 2).to_json_dict()
        assert set(obj) >= {"family", "n", "r", "s", "dims", "equal_a",
                            "equal_b", "faithful", "method", "elapsed_ms"}
        assert set(obj["dims"]) == {"group_image", "diagram_image",
                                    "commutant_of_diagram", "commutant_of_group"}
        assert obj["elapsed_ms"] is None

    def test_timing_flag(self):
        rep = verify_duality("glA", 2, 2, with_timing=True)
        assert isinstance(rep.elapsed_ms, int)

    def test_verified_property(self):
        assert verify_duality("glA", 2, 2).verified


class TestValidation:
    def test_odd_symplectic_rejected(self):
        with pytest.raises(ValueError):
            verify_duality("sp", 3, 2)

    def test_walled_needs_s(self):
        with pytest.raises(ValueError):
            verify_duality("walled", 2, 1)

    def test_s_rejected_elsewhere(self):
        with pytest.raises(ValueError):
            verify_duality("glA", 2, 2, 1)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            verify_duality("affine", 2, 2)


class TestOneEqualityRule:
    @staticmethod
    def _non_commuting(monkeypatch):
        # diag(1, 0, 0, 0) on (Q^2)^(x 2) does not commute with E_01
        def fake(*args, **kwargs):
            return [{0: 1}, {}, {}, {}]

        monkeypatch.setattr(duality, "_diagram_rows", fake)

    @pytest.mark.parametrize("mode", ["auto", "modular", "exact"])
    def test_non_commuting_actions_raise_in_every_mode(self, monkeypatch, mode):
        self._non_commuting(monkeypatch)
        with pytest.raises(ArithmeticError, match="fail to commute"):
            verify_duality("glA", 2, 2, mode=mode)

    @pytest.mark.parametrize("family,n,r,s", [
        ("glA", 2, 3, None), ("o", 3, 2, None), ("sp", 2, 2, None),
        ("walled", 2, 1, 1),
    ])
    @pytest.mark.parametrize("mode", ["auto", "modular"])
    def test_span_families_count_dimensions(self, monkeypatch, family, n, r, s, mode):
        # no span comparison and no commutant basis: one exact commutation
        # check and four dimensions decide both equalities
        def refuse(*args, **kwargs):
            raise AssertionError("span_equal called")

        bases = []
        original = duality.commutant

        def recording(*args, **kwargs):
            bases.append(kwargs.get("want_basis", True))
            return original(*args, **kwargs)

        monkeypatch.setattr(duality, "span_equal", refuse)
        monkeypatch.setattr(duality, "commutant", recording)
        rep = verify_duality(family, n, r, s, mode=mode)
        assert rep.verified
        assert bases == [False, False]
        assert rep.equal_a == (rep.dims["group_image"] == rep.dims["commutant_of_diagram"])
        assert rep.equal_b == (rep.dims["diagram_image"] == rep.dims["commutant_of_group"])


class TestModularTags:
    def test_equalities_prove_the_modular_counts(self):
        # group image <= exact nullity <= modular nullity, both ways round
        rep = verify_duality("sp", 4, 2, mode="modular")
        assert rep.verified
        assert rep.method == "mod-p-confirmed-exact"

    def test_failed_equality_keeps_the_modular_tag(self, monkeypatch):
        from diagramalg.linalg import MatrixSpan

        monkeypatch.setattr(duality, "algebra_closure",
                            lambda gens, d, **_: MatrixSpan.from_matrices(
                                [identity_matrix(d)], d))
        rep = verify_duality("sp", 4, 2, mode="modular")
        assert rep.equal_a is False and rep.equal_b is True
        assert rep.method == "mod-p(33554393,33554383)"

    @pytest.mark.parametrize("mode,passed", [
        ("auto", "auto"), ("exact", "exact"), ("modular", "auto"),
    ])
    def test_deranged_group_commutant_mode(self, monkeypatch, mode, passed):
        # the span check needs an exact basis, so only modular is raised
        modes = []
        original = duality.commutant

        def recording(*args, **kwargs):
            modes.append(kwargs["mode"])
            return original(*args, **kwargs)

        monkeypatch.setattr(duality, "commutant", recording)
        assert verify_duality("deranged", 2, 1, mode=mode).verified
        assert modes == [passed]


class TestBoundedClosure:
    def test_inflated_bound_falls_back_to_the_exact_image(self, monkeypatch):
        # a diagram commutant one too large: the residues stop short of the
        # bound, the exact saturation reports the true image, equal_a fails
        import dataclasses

        original = duality.commutant
        calls = []

        def inflated(*args, **kwargs):
            span, res = original(*args, **kwargs)
            calls.append(res.nullity)
            if len(calls) == 1:
                res = dataclasses.replace(res, nullity=res.nullity + 1)
            return span, res

        monkeypatch.setattr(duality, "commutant", inflated)
        rep = verify_duality("sp", 4, 2)
        assert calls == [126, 3]
        assert rep.dims["group_image"] == 126
        assert rep.dims["commutant_of_diagram"] == 127
        assert rep.equal_a is False and rep.equal_b is True

    @pytest.mark.parametrize("mode", ["auto", "modular", "exact"])
    def test_bound_is_the_diagram_commutant(self, monkeypatch, mode):
        bounds = []
        original = duality.algebra_closure

        def recording(*args, **kwargs):
            bounds.append(kwargs["bound"])
            return original(*args, **kwargs)

        monkeypatch.setattr(duality, "algebra_closure", recording)
        rep = verify_duality("sp", 4, 2, mode=mode)
        assert rep.verified
        assert bounds == [rep.dims["commutant_of_diagram"]] == [126]


class TestGlAClosedForms:
    """Schur-Weyl duality for GL_n: V^(x r) is the sum over partitions
    of r with at most n parts of S^shape (x) V_shape, so the diagram image
    has dimension sum (f^shape)^2 and the group image sum (dim V_shape)^2."""

    def test_oracles(self):
        assert [len(list(partitions(r, r))) for r in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
        for r in range(8):
            assert sum(standard_tableaux(la) ** 2 for la in partitions(r, r)) == math.factorial(r)
        for n, k in itertools.product(range(1, 5), range(5)):
            # symmetric and exterior powers
            assert gl_irrep_dim((k,) if k else (), n) == math.comb(n + k - 1, k)
            assert gl_irrep_dim((1,) * k, n) == math.comb(n, k)

    @pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (2, 5)])
    def test_dims_are_the_closed_forms(self, n, r):
        shapes = list(partitions(r, n))
        f = [standard_tableaux(la) for la in shapes]
        dim_v = [gl_irrep_dim(la, n) for la in shapes]
        assert sum(a * b for a, b in zip(f, dim_v)) == n ** r
        rep = verify_duality("glA", n, r)
        assert rep.dims["commutant_of_group"] == rep.dims["diagram_image"] == sum(a * a for a in f)
        assert (rep.dims["group_image"] == rep.dims["commutant_of_diagram"]
                == sum(b * b for b in dim_v))
        assert rep.faithful == (n >= r)


class TestModeValidation:
    def test_deranged_rejects_unknown_mode(self):
        # a misspelt mode must not fall through to the modular graded solve
        with pytest.raises(ValueError, match="unknown mode"):
            verify_duality("deranged", 2, 1, mode="exactt")

    def test_rejected_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("_diagram_rows", "derivation_ops_sparse", "deranged_ops",
                     "algebra_closure", "commutant"):
            monkeypatch.setattr(duality, name, refuse)
        for family, r in (("glA", 2), ("deranged", 1), ("so-direct", 1)):
            with pytest.raises(ValueError, match="unknown mode"):
                verify_duality(family, 2, r, mode="exactt")

    def test_graded_solve_rejects_unknown_mode(self):
        from diagramalg.linalg import graded_commutant_dim

        with pytest.raises(ValueError, match="unknown graded mode"):
            graded_commutant_dim([identity_matrix(2)], [(0,), (1,)], mode="exactt")
        with pytest.raises(ValueError, match="unknown graded mode"):
            graded_commutant_dim([identity_matrix(2)], [(0,), (1,)], mode="auto")


def _verify_point(argv):
    """(family, n, r, s, mode, solver_cap) of one golden ``verify`` argv."""
    args = argv[argv.index("verify") + 1:]
    opts = dict(zip(args[::2], args[1::2]))
    s = opts.get("--s")
    return (opts["--duality"], int(opts["--n"]), int(opts["--r"]), s and int(s),
            opts.get("--mode", "auto"), int(opts.get("--solver-cap", DEFAULT_UNKNOWN_CAP)))


GOLDEN_POINTS = [_verify_point(argv) for argv in COMMANDS if "verify" in argv]
# o at even n needs the reflection in the closure seed (o(4,2): image 118,
# not 100); the rest reach past the golden sizes in every family.
EXTRA_POINTS = [(family, n, r, s, "auto", DEFAULT_UNKNOWN_CAP) for family, n, r, s in [
    ("o", 2, 2, None), ("o", 4, 2, None), ("o", 2, 3, None), ("sp", 6, 2, None),
    ("sp", 4, 3, None), ("walled", 2, 2, 2), ("walled", 3, 2, 1), ("so-direct", 4, 2, None),
    ("deranged", 3, 1, None), ("deranged", 4, 1, None), ("deranged", 6, 1, None)]]


class TestGeneratorRoute:
    """The verify solves on generators; ``oracles.full_basis_verify`` solves
    on every Lie algebra basis element and every diagram."""

    @pytest.mark.parametrize("point", GOLDEN_POINTS + EXTRA_POINTS,
                             ids=lambda p: "-".join(map(str, p[:5])))
    def test_reports_equal_the_full_basis_route(self, point):
        family, n, r, s, mode, cap = point

        def report(verify):
            try:
                return verify(family, n, r, s, mode=mode, solver_cap=cap).to_json_dict()
            except CapExceededError as exc:
                return str(exc)

        assert report(verify_duality) == report(full_basis_verify)

    @pytest.mark.parametrize("family,n,r,s", [
        *[(family, n, r, None) for family, ns in (("glA", (2, 3)), ("o", (2, 3)), ("sp", (2, 4)))
          for n in ns for r in (1, 2, 3)],
        *[("walled", n, r, m - r) for n in (2, 3) for m in (1, 2, 3, 4) for r in range(m + 1)],
    ])
    def test_generator_images_generate_the_diagram_span(self, family, n, r, s):
        d = (TensorSpace(n, r) if s is None else MixedSpace(n, r, s)).dim
        form = BilinearForm("symplectic" if family == "sp" else "symmetric", n)

        def ops(diagrams):
            return [LinOp(d, _diagram_rows(x, n, form)) for x in diagrams]

        closure = algebra_closure(ops(duality._diagram_generators(family, r, s)), d)
        assert span_equal(closure, MatrixSpan.from_matrices(ops(duality._SIDES[family][0](r, s)), d))

    @pytest.mark.parametrize("family,n,r,s", [
        ("sp", 4, 2, None), ("glA", 3, 2, None), ("walled", 3, 1, 1), ("deranged", 8, 1, None),
    ])
    def test_solve_sizes_equal_the_full_basis_route(self, monkeypatch, family, n, r, s):
        # the Cartan elements keep the torus restriction: same unknowns
        # in every commutant solve (lie_basis's own solve is not one)
        basis = lie_basis("sp" if family == "sp" else "gl", n)
        monkeypatch.setattr(oracles, "lie_basis", lambda kind, n: basis)
        sizes = []
        original = linalg.solve_sparse_system

        def spy(rows, ncols, *args, **kwargs):
            sizes.append(ncols)
            return original(rows, ncols, *args, **kwargs)

        monkeypatch.setattr(linalg, "solve_sparse_system", spy)
        assert verify_duality(family, n, r, s).verified
        ours, sizes[:] = sizes[:], []
        assert full_basis_verify(family, n, r, s).verified
        assert ours == sizes and len(ours) == (1 if family == "deranged" else 2)

    @pytest.mark.parametrize("family,n,r,s,roots", [
        ("glA", 3, 2, None, 4), ("walled", 3, 1, 1, 4), ("sp", 4, 2, None, 4), ("o", 4, 2, None, 3),
    ])
    def test_closure_seed_is_the_roots_and_the_reflection(self, monkeypatch, family, n, r, s,
                                                          roots):
        seeds = []
        original = duality.algebra_closure

        def spy(seed, d, **kwargs):
            seeds.append(list(seed))
            return original(seed, d, **kwargs)

        monkeypatch.setattr(duality, "algebra_closure", spy)
        assert verify_duality(family, n, r, s).verified
        (seed,) = seeds
        diagonal = [op.rows for op in seed if op.diagonal_vector() is not None]
        reflection = [reflection_op(n, r).rows] if family == "o" else []
        assert diagonal == reflection and len(seed) == roots + len(reflection)


class TestCartanFromWeights:
    """``_generators`` reads the Cartan operators off the torus weights;
    ``oracles.derived_cartan_ops`` builds them as Leibniz sums."""

    @pytest.mark.parametrize("kind,space", [
        *[("gl", space) for space in (TensorSpace(3, 1), TensorSpace(4, 2), MixedSpace(3, 1, 1),
                                      MixedSpace(2, 2, 1), AdjointSpace(3, 1), AdjointSpace(4, 2))],
        *[("sp", space) for space in (TensorSpace(4, 1), TensorSpace(4, 2), MixedSpace(4, 1, 1),
                                      MixedSpace(2, 2, 1), AdjointSpace(4, 1), AdjointSpace(2, 2))],
    ], ids=lambda x: repr(x))
    def test_rows_equal_the_derived_actions(self, kind, space):
        cartan, _ = duality._generators(kind, space)
        ref = oracles.derived_cartan_ops(kind, space)
        assert [op.rows for op in cartan] == [op.rows for op in ref]
        assert ([[type(c) for row in op.rows for c in row.values()] for op in cartan]
                == [[type(c) for row in op.rows for c in row.values()] for op in ref])

    def test_so_builds_no_weights(self, monkeypatch):
        monkeypatch.setattr(duality, "weight_vectors", None)
        cartan, rotations = duality._generators("so", TensorSpace(3, 2))
        assert cartan == [] and len(rotations) == 2
