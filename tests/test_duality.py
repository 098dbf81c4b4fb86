import itertools
import math

import pytest

import oracles
from diagramalg import duality, linalg
from diagramalg.diagrams import CapExceededError, compose, identity_diagram
from diagramalg.duality import verify_duality
from diagramalg.linalg import DEFAULT_UNKNOWN_CAP, LinOp, MatrixSpan, algebra_closure, span_equal
from diagramalg.tensor import (AdjointSpace, BilinearForm, MixedSpace, TensorSpace, _diagram_rows,
                               reflection_op, weight_vectors)
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

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_non_commuting_actions_raise_in_every_mode(self, monkeypatch, mode):
        self._non_commuting(monkeypatch)
        with pytest.raises(ArithmeticError, match="fail to commute"):
            verify_duality("glA", 2, 2, mode=mode)

    @pytest.mark.parametrize("family,n,r,s", [
        ("glA", 2, 3, None), ("o", 3, 2, None), ("sp", 2, 2, None),
        ("walled", 2, 1, 1),
    ])
    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_span_families_count_dimensions(self, monkeypatch, family, n, r, s, mode):
        # no span comparison and no commutant basis: one exact commutation
        # check and four dimensions decide both equalities.  o solves both
        # commutants; glA, sp and walled read all three dimensions off the
        # multiplicity spaces and solve no d * d system.
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
        assert bases == ([False, False] if family == "o" else [])
        assert rep.extra == ({} if family == "o" else {"group_image_via": "highest weights"})
        assert rep.equal_a == (rep.dims["group_image"] == rep.dims["commutant_of_diagram"])
        assert rep.equal_b == (rep.dims["diagram_image"] == rep.dims["commutant_of_group"])


class TestModularTags:
    @pytest.mark.parametrize("mode,passed", [("auto", "auto"), ("exact", "exact")])
    def test_deranged_group_commutant_mode(self, monkeypatch, mode, passed):
        # the group commutant is solved in the mode asked for; only the
        # graded solve is two-prime under auto
        modes = []
        original = duality.commutant

        def recording(*args, **kwargs):
            modes.append(kwargs["mode"])
            return original(*args, **kwargs)

        monkeypatch.setattr(duality, "commutant", recording)
        assert verify_duality("deranged", 2, 1, mode=mode).verified
        assert modes == [passed]


class TestBoundedClosure:
    """o is the span family that still runs the closure, bounded by its
    diagram commutant (o(3,2): 35, group commutant 3)."""

    def test_inflated_bound_falls_back_to_the_exact_image(self, monkeypatch):
        # a diagram commutant one too large: the residues stop short of the
        # bound, the exact saturation reports the true image, and both
        # equalities fail with it (one rule: a semisimple pair is each
        # other's commutant together or not at all)
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
        rep = verify_duality("o", 3, 2)
        assert calls == [35, 3]
        assert rep.dims["group_image"] == 35
        assert rep.dims["commutant_of_diagram"] == 36
        assert rep.equal_a is False and rep.equal_b is False
        assert rep.dims["diagram_image"] is None and rep.faithful is None

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_bound_is_the_diagram_commutant(self, monkeypatch, mode):
        bounds = []
        original = duality.algebra_closure

        def recording(*args, **kwargs):
            bounds.append(kwargs["bound"])
            return original(*args, **kwargs)

        monkeypatch.setattr(duality, "algebra_closure", recording)
        rep = verify_duality("o", 3, 2, mode=mode)
        assert rep.verified
        assert bounds == [rep.dims["commutant_of_diagram"]] == [35]
        assert verify_duality("sp", 4, 2, mode=mode).verified
        assert len(bounds) == 1


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
            for mode in ("exactt", "modular"):
                with pytest.raises(ValueError, match="unknown mode"):
                    verify_duality(family, 2, r, mode=mode)

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
    ("deranged", 3, 1, None), ("deranged", 4, 1, None), ("deranged", 6, 1, None),
    ("sp", 6, 1, None), ("sp", 2, 4, None), ("glA", 2, 5, None), ("glA", 3, 3, None),
    ("glA", 4, 2, None), ("walled", 2, 0, 1), ("walled", 2, 2, 0), ("walled", 3, 0, 2),
    ("walled", 2, 1, 2)]]
# the families verified through their multiplicity spaces, and the order of
# strength of the method tags they may carry
ROUTE_FAMILIES = ("glA", "sp", "walled")
STRENGTH = {"exact": 2, "mod-p-confirmed-exact": 1}


def _route_space(family, n, r, s):
    """(kind, space) of a glA, sp or walled point."""
    return "sp" if family == "sp" else "gl", TensorSpace(n, r) if s is None else MixedSpace(n, r, s)


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

        ours, ref = report(verify_duality), report(full_basis_verify)
        if isinstance(ref, str):
            # both refuse; they solve different systems, so the counts differ
            assert isinstance(ours, str)
            return
        if family in ROUTE_FAMILIES:
            # the same dimensions and flags through the multiplicity spaces;
            # the method tag may only get stronger, and the report names the route
            assert STRENGTH[ours.pop("method")] >= STRENGTH[ref.pop("method")]
            assert ours.pop("group_image_via") == "highest weights"
        assert ours == ref

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
        assert span_equal(closure, MatrixSpan.from_matrices(ops(oracles.all_diagrams(family, r, s)), d))

    @pytest.mark.parametrize("family,n,r,s", [
        ("sp", 4, 2, None), ("glA", 3, 2, None), ("walled", 3, 1, 1), ("deranged", 8, 1, None),
    ])
    def test_solve_sizes_equal_the_full_basis_route(self, monkeypatch, family, n, r, s):
        # deranged: the Cartan elements keep the torus restriction, so its
        # commutant solve has the unknowns of the full-basis route
        # (lie_basis's own solve is not one).  glA, sp and walled: one solve
        # per dominant weight on exactly its weight space, then one Hom
        # solve per pair of nonzero multiplicities, of at most m_nu * m_mu
        # unknowns.
        basis = lie_basis("sp" if family == "sp" else "gl", n)
        monkeypatch.setattr(oracles, "lie_basis", lambda kind, n: basis)
        sizes = []
        original = linalg.solve_sparse_system

        def spy(rows, ncols, *args, **kwargs):
            sizes.append(ncols)
            return original(rows, ncols, *args, **kwargs)

        monkeypatch.setattr(linalg, "solve_sparse_system", spy)
        monkeypatch.setattr(duality, "solve_sparse_system", spy)
        assert verify_duality(family, n, r, s).verified
        ours, sizes[:] = sizes[:], []
        if family in ROUTE_FAMILIES:
            kind, space = _route_space(family, n, r, s)
            m = n // 2
            weights = [w if kind == "gl" else tuple(w[i] - w[m + i] for i in range(m))
                       for w in weight_vectors(space)]
            dominant = sorted((w for w in set(weights) if list(w) == sorted(w, reverse=True)
                               and (kind == "gl" or min(w) >= 0)), reverse=True)
            assert ours[:len(dominant)] == [weights.count(w) for w in dominant]
            ms = list(multiplicities(family, n, r, s).values())
            homs = ours[len(dominant):]
            assert len(homs) == len(ms) ** 2
            assert all(c <= a * b for c, (a, b) in zip(homs, itertools.product(ms, repeat=2)))
            return
        assert full_basis_verify(family, n, r, s).verified
        assert ours == sizes and len(ours) == (1 if family == "deranged" else 2)

    @pytest.mark.parametrize("family,n,r,s,roots", [
        ("glA", 3, 2, None, 4), ("walled", 3, 1, 1, 4), ("sp", 4, 2, None, 4), ("o", 4, 2, None, 3),
    ])
    def test_closure_seed_is_the_roots_and_the_reflection(self, monkeypatch, family, n, r, s,
                                                          roots):
        # o: the closure is seeded with the roots and the reflection.  glA,
        # sp and walled run no closure: their highest-weight equations are
        # the raising half of those roots, restricted to each weight.
        seeds, equations = [], []
        original = duality.algebra_closure
        original_equations = duality._highest_weight_equations

        def spy(seed, d, **kwargs):
            seeds.append(list(seed))
            return original(seed, d, **kwargs)

        def spy_equations(*args):
            equations.append(original_equations(*args))
            return equations[-1]

        monkeypatch.setattr(duality, "algebra_closure", spy)
        monkeypatch.setattr(duality, "_highest_weight_equations", spy_equations)
        assert verify_duality(family, n, r, s).verified
        if family in ROUTE_FAMILIES:
            kind, space = _route_space(family, n, r, s)
            ops = duality._generators(kind, space)
            assert seeds == [] and len(ops) == roots and equations
            for rows, support in equations:
                want = [{k: row[j] for k, j in enumerate(support) if j in row}
                        for op in ops[:roots // 2] for row in op.rows]
                assert [row for row in rows if row] == [row for row in want if row]
            return
        (seed,) = seeds
        diagonal = [op.rows for op in seed if op.diagonal_vector() is not None]
        reflection = [reflection_op(n, r).rows] if family == "o" else []
        assert diagonal == reflection and len(seed) == roots + len(reflection)


def multiplicities(family, n, r, s):
    """{mu: m_mu} over the dominant weights of a glA, sp or walled point with
    m_mu > 0, in the route's order."""
    kind, space = _route_space(family, n, r, s)
    blocks, _ = duality._multiplicity_spaces(space, kind, [], "auto", DEFAULT_UNKNOWN_CAP)
    return {mu: m for mu, _, m, _ in blocks}


class TestMultiplicitySpaces:
    """glA, sp and walled read their four dimensions off V = sum V_mu (x) M_mu:
    the closed forms, and the mutations that must break the route."""

    @pytest.mark.parametrize("n,r,s", [(2, 1, 1), (3, 1, 1), (3, 2, 1), (3, 1, 2), (4, 2, 2),
                                       (4, 3, 1), (5, 3, 2)])
    def test_walled_multiplicities_are_the_closed_form(self, n, r, s):
        # n >= r + s: the walled Brauer algebra, of dimension (r + s)!, acts faithfully
        got = multiplicities("walled", n, r, s)
        assert got == oracles.walled_multiplicities(n, r, s)
        assert sum(m * m for m in got.values()) == math.factorial(r + s)

    @pytest.mark.parametrize("family,n,r", [("glA", 2, 4), ("sp", 2, 3)])
    def test_commutation_is_checked_on_the_generator_images(self, monkeypatch, family, n, r):
        # the generators generate the diagram image and a diagram acts
        # multiplicatively, so the group generators meet the generator
        # images only, not every diagram
        seen = []
        original = duality._commute

        def spy(gens, mats):
            seen.append(list(mats))
            return original(gens, mats)

        monkeypatch.setattr(duality, "_commute", spy)
        rep = verify_duality(family, n, r)
        form = BilinearForm("symplectic" if family == "sp" else "symmetric", n)
        (mats,) = seen
        assert rep.verified and len(mats) < rep.dims["diagram_image"]
        assert [m.rows for m in mats] == [_diagram_rows(x, n, form)
                                          for x in duality._diagram_generators(family, r, None)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_gl_weyl_dimensions_are_the_hook_content_formula(self, n):
        for r in range(7):
            for shape in partitions(r, n):
                mu = tuple(shape) + (0,) * (n - len(shape))
                assert duality._weyl_dim("gl", mu) == gl_irrep_dim(shape, n)
                # a twist by a power of the determinant keeps the dimension
                assert duality._weyl_dim("gl", tuple(x - 2 for x in mu)) == gl_irrep_dim(shape, n)

    def test_sp_weyl_dimensions(self):
        # sp_2 = sl_2; sp_4: 4, 5, 10 and 16; sp_6: 6, 14, 14' and 21
        assert [duality._weyl_dim("sp", (k,)) for k in range(5)] == [1, 2, 3, 4, 5]
        assert [duality._weyl_dim("sp", mu) for mu in [(1, 0), (1, 1), (2, 0), (2, 1)]] == [
            4, 5, 10, 16]
        assert [duality._weyl_dim("sp", mu) for mu in [(1, 0, 0), (1, 1, 0), (1, 1, 1),
                                                       (2, 0, 0)]] == [6, 14, 14, 21]

    @pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (3, 2), (2, 4), (3, 3), (4, 2), (2, 5)])
    def test_gl_multiplicities_are_standard_tableaux(self, n, r):
        assert multiplicities("glA", n, r, None) == {
            tuple(la) + (0,) * (n - len(la)): standard_tableaux(la) for la in partitions(r, n)}

    @pytest.mark.parametrize("n,r", [(4, 2), (6, 3)])
    def test_faithful_sp_group_commutant_is_the_brauer_count(self, n, r):
        rep = verify_duality("sp", n, r)
        assert rep.verified and rep.faithful
        assert sum(m * m for m in multiplicities("sp", n, r, None).values()) == math.prod(
            range(1, 2 * r, 2))
        assert rep.dims["commutant_of_group"] == rep.dims["diagram_image"] == math.prod(
            range(1, 2 * r, 2))

    @pytest.mark.parametrize("mode", ["auto", "exact"])
    def test_every_solve_follows_the_mode(self, monkeypatch, mode):
        # weight spaces past EXACT_UNKNOWN_CAP take the certified lift under
        # auto; the Hom systems go through intertwiner_kernel in the same mode
        modes = []
        for module in (duality, linalg):
            original = module.solve_sparse_system

            def spy(*args, original=original, **kwargs):
                modes.append(kwargs["mode"])
                return original(*args, **kwargs)

            monkeypatch.setattr(module, "solve_sparse_system", spy)
        assert verify_duality("walled", 2, 2, 1, mode=mode).verified
        assert len(modes) > 2 and set(modes) == {mode}

    @pytest.mark.parametrize("family,n,r,s", [
        ("glA", 2, 2, None), ("glA", 3, 2, None), ("sp", 4, 2, None), ("walled", 3, 1, 1)])
    def test_a_missing_raising_operator_breaks_the_dimension_count(self, monkeypatch, capsys,
                                                                   family, n, r, s):
        # too few raising equations leave more highest-weight vectors than
        # V holds: an internal error, exit 4, never a report.  The first
        # simple root is dropped; at glA(3, 2) no dominant weight sees the last.
        from diagramalg import cli, tensor

        original = tensor.raising_units
        monkeypatch.setattr(tensor, "raising_units", lambda kind, n: original(kind, n)[1:])
        with pytest.raises(ArithmeticError, match="do not account for every dimension"):
            verify_duality(family, n, r, s)
        argv = ["verify", "--duality", family, "--n", str(n), "--r", str(r)]
        assert cli.main(argv + (["--s", str(s)] if s is not None else [])) == 4
        assert capsys.readouterr().out == ""

    def test_without_the_wall_generator_h_is_not_the_identity(self, monkeypatch, capsys):
        from diagramalg import cli

        homs = []
        original = duality.intertwiner_kernel

        def spy(*args, **kwargs):
            result, support = original(*args, **kwargs)
            homs.append(result.nullity)
            return result, support

        monkeypatch.setattr(duality, "intertwiner_kernel", spy)
        rep = verify_duality("walled", 3, 2, 2)
        k = math.isqrt(len(homs))
        assert rep.verified and homs == [int(i == j) for i in range(k) for j in range(k)]
        homs.clear()
        generators = duality._diagram_generators
        monkeypatch.setattr(duality, "_diagram_generators",
                            lambda family, r, s: generators(family, r, s)[:-1])
        rep = verify_duality("walled", 3, 2, 2)
        assert len(homs) == k * k and homs != [int(i == j) for i in range(k) for j in range(k)]
        # the permutations alone generate a smaller algebra: both equalities
        # fail, and no diagram image is read off the group commutant
        assert rep.equal_a is False and rep.equal_b is False
        assert rep.dims["commutant_of_diagram"] > rep.dims["group_image"] == 994
        assert rep.dims["diagram_image"] is None and rep.faithful is None
        assert cli.main(["verify", "--duality", "walled", "--n", "3", "--r", "2", "--s", "2"]) == 1
        assert '"diagram_image":null' in capsys.readouterr().out


class TestDiagramSideOnGenerators:
    """glA, o, sp and walled build only the generator images of the diagram
    algebra and read the diagram image off the group commutant.  The two
    premises do not depend on n, so they are certified here: the generators
    reach every diagram, and each generator image is a symmetric matrix."""

    @pytest.mark.parametrize("family,r,s", [
        *[("glA", r, None) for r in range(1, 8)],
        *[(family, r, None) for family in ("o", "sp") for r in range(1, 6)],
        *[("walled", r, m - r) for m in range(1, 7) for r in range(m + 1)],
    ])
    def test_generators_saturate_to_every_diagram(self, family, r, s):
        # loops are dropped: a closed loop scales by +-n, never 0
        seen = set()

        def take(x):
            if x in seen:
                return False
            seen.add(x)
            return True

        kept = linalg.saturate([identity_diagram(r + (s or 0))],
                               duality._diagram_generators(family, r, s),
                               lambda g, b: compose(g, b).composite, take)
        everything = oracles.all_diagrams(family, r, s)
        assert len(kept) == len(everything) and set(kept) == set(everything)

    @pytest.mark.parametrize("family,n,r,s", [
        *[(family, n, r, None) for family in ("glA", "o") for n in (2, 3, 4) for r in (2, 3)],
        *[("sp", n, r, None) for n in (2, 4) for r in (2, 3)],
        *[("walled", n, r, s) for n in (2, 3, 4) for r, s in ((1, 1), (2, 1), (1, 2), (2, 2))],
    ])
    def test_generator_images_are_symmetric(self, family, n, r, s):
        form = BilinearForm("symplectic" if family == "sp" else "symmetric", n)
        d = (TensorSpace(n, r) if s is None else MixedSpace(n, r, s)).dim
        gens = [LinOp(d, _diagram_rows(x, n, form))
                for x in duality._diagram_generators(family, r, s)]
        assert gens and all(g.rows == g.cols() for g in gens)

    @pytest.mark.parametrize("family,r", [(family, r) for family in ("glA", "sp")
                                          for r in range(1, 9)])
    def test_diagram_image_on_c2_is_temperley_lieb(self, family, r):
        # on C^2 both diagram images are the Temperley-Lieb algebra, of
        # dimension Catalan(r): an oracle independent of the group commutant
        rep = verify_duality(family, 2, r)
        assert rep.verified and rep.dims["diagram_image"] == math.comb(2 * r, r) // (r + 1)
        assert rep.faithful == (r <= (2 if family == "glA" else 1))

    def test_walled_4_3_2_verifies_at_the_default_cap(self):
        # d^2 = 1048576 columns, past the default cap, once kept every diagram's span
        rep = verify_duality("walled", 4, 3, 2)
        assert rep.verified and rep.faithful is False and rep.method == "exact"
        assert rep.dims == {"group_image": 57968, "diagram_image": 119,
                            "commutant_of_diagram": 57968, "commutant_of_group": 119}

    @pytest.mark.parametrize("family,n,r,s", [
        ("glA", 2, 4, None), ("o", 3, 3, None), ("sp", 4, 3, None), ("walled", 3, 2, 2)])
    def test_no_diagram_is_enumerated_and_no_diagram_span_built(self, monkeypatch, family,
                                                                n, r, s):
        from diagramalg import diagrams

        def refuse(*args, **kwargs):
            raise AssertionError("every diagram enumerated or spanned")

        for name in ("enumerate_diagrams", "enumerate_walled", "_matchings"):
            monkeypatch.setattr(diagrams, name, refuse)
        monkeypatch.setattr(duality, "MatrixSpan", type("NoSpan", (), {"from_matrices": refuse}))
        built = []
        original = duality._diagram_rows
        monkeypatch.setattr(duality, "_diagram_rows",
                            lambda x, *args: built.append(x) or original(x, *args))
        assert verify_duality(family, n, r, s).verified
        assert built == duality._diagram_generators(family, r, s)


class TestCartanFromWeights:
    """``_torus`` reads the Cartan operators off the torus weights;
    ``oracles.derived_cartan_ops`` builds them as Leibniz sums.  Deranged
    solves on the gl_n ones, and the sp_n weights index the highest-weight
    solves of sp."""

    @pytest.mark.parametrize("kind,space", [
        *[("gl", space) for space in (TensorSpace(3, 1), TensorSpace(4, 2), MixedSpace(3, 1, 1),
                                      MixedSpace(2, 2, 1), AdjointSpace(3, 1), AdjointSpace(4, 2))],
        *[("sp", space) for space in (TensorSpace(4, 1), TensorSpace(4, 2), MixedSpace(4, 1, 1),
                                      MixedSpace(2, 2, 1), AdjointSpace(4, 1), AdjointSpace(2, 2))],
    ], ids=lambda x: repr(x))
    def test_rows_equal_the_derived_actions(self, kind, space):
        cartan = duality._torus(weight_vectors(space, kind))
        ref = oracles.derived_cartan_ops(kind, space)
        assert [op.rows for op in cartan] == [op.rows for op in ref]
        assert ([[type(c) for row in op.rows for c in row.values()] for op in cartan]
                == [[type(c) for row in op.rows for c in row.values()] for op in ref])

    def test_so_builds_no_weights(self, monkeypatch):
        # the generators are root vectors only, for every kind
        monkeypatch.setattr(duality, "weight_vectors", None)
        assert len(duality._generators("so", TensorSpace(3, 2))) == 2
        assert len(duality._generators("sp", TensorSpace(4, 2))) == 4
        assert len(duality._generators("gl", TensorSpace(3, 2))) == 4

    def test_deranged_adds_the_cartan_operators(self, monkeypatch):
        # the commutant of the deranged group side is solved on the gl_n
        # Cartan operators, then the roots
        seen = []
        original = duality.commutant

        def spy(ops, *args, **kwargs):
            seen.append(list(ops))
            return original(ops, *args, **kwargs)

        monkeypatch.setattr(duality, "commutant", spy)
        space = AdjointSpace(3, 1)
        assert verify_duality("deranged", 3, 1).verified
        (ops,) = seen
        assert [op.rows for op in ops] == [op.rows for op in (
            oracles.derived_cartan_ops("gl", space) + duality._generators("gl", space))]
