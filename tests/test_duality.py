import pytest

from diagramalg import duality
from diagramalg.duality import DualityReport, verify_duality


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
        from diagramalg.linalg import zeros_matrix

        def fake(*args, **kwargs):
            mat = zeros_matrix(3, 3)
            mat[0, 0] = 1
            return mat

        monkeypatch.setattr(duality, "deranged_matrix", fake)

    def test_commutation_checked_exactly_without_equal_b(self, monkeypatch):
        self._non_commuting(monkeypatch)
        monkeypatch.setattr(duality, "span_equal", lambda a, b: False)
        with pytest.raises(ArithmeticError, match="fail to commute"):
            verify_duality("deranged", 2, 1)

    def test_equal_b_proves_commutation(self, monkeypatch):
        # equal_b puts every diagram matrix in the span of the exactly
        # checked commutant basis, so no product is formed
        self._non_commuting(monkeypatch)
        monkeypatch.setattr(duality, "span_equal", lambda a, b: True)
        monkeypatch.setattr(duality, "sparse_matmul", None)
        rep = verify_duality("deranged", 2, 1)
        assert rep.equal_b is True and rep.equal_a is True


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
        from diagramalg.linalg import zeros_matrix

        def fake(*args, **kwargs):
            mat = zeros_matrix(4, 4)
            mat[0, 0] = 1
            return mat

        monkeypatch.setattr(duality, "sigma_perm", fake)

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
        from diagramalg.linalg import MatrixSpan, identity_matrix

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


class TestModeValidation:
    def test_deranged_rejects_unknown_mode(self):
        # a misspelt mode must not fall through to the modular graded solve
        with pytest.raises(ValueError, match="unknown mode"):
            verify_duality("deranged", 2, 1, mode="exactt")

    def test_rejected_before_any_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started")

        for name in ("sigma_perm", "derivation_action", "adjoint_transport",
                     "algebra_closure", "commutant"):
            monkeypatch.setattr(duality, name, refuse)
        for family, r in (("glA", 2), ("deranged", 1), ("so-direct", 1)):
            with pytest.raises(ValueError, match="unknown mode"):
                verify_duality(family, 2, r, mode="exactt")

    def test_graded_solve_rejects_unknown_mode(self):
        from diagramalg.linalg import graded_commutant_dim, identity_matrix

        with pytest.raises(ValueError, match="unknown graded mode"):
            graded_commutant_dim([identity_matrix(2)], [(0,), (1,)], mode="exactt")
        with pytest.raises(ValueError, match="unknown graded mode"):
            graded_commutant_dim([identity_matrix(2)], [(0,), (1,)], mode="auto")
