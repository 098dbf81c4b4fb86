import itertools
import json
import random
from fractions import Fraction

import pytest

from diagramalg.algebra import (
    AlgebraElement,
    RingMismatchError,
    deranged_basis,
    element_from_json,
    element_to_json,
    idempotent_e,
)
from diagramalg.diagrams import (
    CapExceededError,
    SizeMismatchError,
    Wall,
    c_generator,
    enumerate_diagrams,
    identity_diagram,
    is_walled,
    permutation_to_diagram,
    wall_generator,
)
from diagramalg.linalg import ExactRref
from diagramalg.ring import QPoly

from oracles import random_diagram, reference_generic_product


def elem(d, coeff=1, x0=None):
    return AlgebraElement.from_diagram(d, coeff, x0)


def random_element(m, rng, x0=None, nterms=2):
    out = AlgebraElement.zero(m, x0)
    for _ in range(nterms):
        c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        if x0 is None:
            c = QPoly([c, rng.randint(-2, 2)])
        out = out + elem(random_diagram(m, rng), c, x0)
    return out


class TestQPoly:
    def test_canonical_form(self):
        assert QPoly([1, 2, 0, 0]).coeffs == (1, 2)
        assert QPoly([]).is_zero()
        assert QPoly([0]).is_zero()
        assert QPoly([0]).degree() == -1

    def test_arithmetic(self):
        x = QPoly.x()
        p = (x + 1) * (x - 1)
        assert p == QPoly([-1, 0, 1])
        assert p.evaluate(3) == 8
        assert (2 * x).shift(2) == QPoly([0, 0, 0, 2])
        assert x - x == QPoly()

    def test_str(self):
        assert str(QPoly([0, 1])) == "x"
        assert str(QPoly([Fraction(1, 2), 0, -1])) == "1/2 - x^2"
        assert str(QPoly()) == "0"

    def test_int_coefficients_kept_and_indistinguishable(self):
        ints, fracs = QPoly([1, 2]), QPoly([Fraction(1), Fraction(2)])
        assert [type(c) for c in ints.coeffs] == [int, int]
        assert ints == fracs
        assert hash(ints) == hash(fracs)
        assert str(ints) == str(fracs) == "1 + 2*x"
        assert type(QPoly([3]).evaluate(2)) is Fraction


class TestProduct:
    def test_cup_cap_is_x_times_itself(self):
        c = elem(c_generator(2, 1, 2))
        assert c * c == elem(c_generator(2, 1, 2), QPoly.x())

    def test_unit_is_two_sided(self):
        rng = random.Random(2)
        one = AlgebraElement.unit(3)
        for _ in range(20):
            a = random_element(3, rng)
            assert one * a == a
            assert a * one == a

    def test_specialized_negative_parameter(self):
        c = elem(c_generator(2, 1, 2), 1, -2)
        assert c * c == elem(c_generator(2, 1, 2), -2, -2)

    def test_mismatches_rejected(self):
        with pytest.raises(SizeMismatchError):
            elem(identity_diagram(2)) * elem(identity_diagram(3))
        with pytest.raises(RingMismatchError):
            elem(identity_diagram(2)) * elem(identity_diagram(2), 1, 3)

    def test_associative_generic(self):
        rng = random.Random(6)
        for _ in range(30):
            a, b, c = (random_element(3, rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)

    def test_semigroup_at_one(self):
        # specializing at 1 turns diagram composition into a monoid product
        from diagramalg.diagrams import compose

        rng = random.Random(8)
        for _ in range(30):
            d1, d2 = random_diagram(3, rng), random_diagram(3, rng)
            prod = elem(d1, 1, 1) * elem(d2, 1, 1)
            assert prod.terms == {compose(d1, d2).composite: 1}


class TestSpecialize:
    def test_evaluates_polynomials(self):
        c = elem(c_generator(2, 1, 2))
        assert (c * c).specialize(3) == elem(c_generator(2, 1, 2), 3, 3)

    def test_specialize_is_homomorphism(self):
        rng = random.Random(12)
        for _ in range(100):
            a = random_element(3, rng)
            b = random_element(3, rng)
            x0 = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
            assert (a * b).specialize(x0) == a.specialize(x0) * b.specialize(x0)

    def test_double_specialization_rejected(self):
        a = elem(identity_diagram(2), 1, 2)
        with pytest.raises(RingMismatchError):
            a.specialize(3)


class TestSymmetricQuotient:
    def test_kills_horizontal_edges(self):
        assert elem(c_generator(2, 1, 2)).symmetric_quotient().is_zero()

    def test_fixes_permutations(self):
        s = elem(permutation_to_diagram((1, 0, 2)))
        assert s.symmetric_quotient() == s

    def test_quotient_is_homomorphism(self):
        rng = random.Random(31)
        for _ in range(100):
            a = random_element(3, rng)
            b = random_element(3, rng)
            lhs = (a * b).symmetric_quotient()
            rhs = a.symmetric_quotient() * b.symmetric_quotient()
            assert lhs == rhs


class TestIdempotent:
    def test_rank_one_case_expansion(self):
        e = idempotent_e(1, 2)
        expected = (AlgebraElement.unit(2, 2)
                    - elem(c_generator(2, 1, 2), Fraction(1, 2), 2))
        assert e == expected
        assert e * e == e

    @pytest.mark.parametrize("r", [1, 2, 3])
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_idempotent_for_all_small_parameters(self, r, n):
        e = idempotent_e(r, n)
        assert e * e == e
        assert not e.is_zero()
        assert e != AlgebraElement.unit(2 * r, n)
        assert e.coefficient(identity_diagram(2 * r)) == 1

    def test_factors_commute(self):
        r, n = 2, 4
        wall = Wall(r, r)
        one = AlgebraElement.unit(2 * r, n)
        f = [one - elem(wall_generator(wall, i, i), Fraction(1, n), n)
             for i in (1, 2)]
        assert f[0] * f[1] == f[1] * f[0]

    def test_zero_parameter_rejected(self):
        with pytest.raises(ValueError):
            idempotent_e(2, 0)


class TestDerangedBasis:
    def test_rank_one(self):
        basis = deranged_basis(1, 2)
        assert len(basis) == 1
        assert basis[0].element == idempotent_e(1, 2)

    def test_nine_elements_at_r2(self):
        basis = deranged_basis(2, 4)
        assert len(basis) == 9

    def test_count_independent_of_n(self):
        assert len(deranged_basis(2, 5)) == 9
        assert len(deranged_basis(2, 6)) == 9

    def test_sandwich_stability(self):
        e = idempotent_e(2, 4)
        for el in deranged_basis(2, 4):
            assert el.sandwich_stable(e)

    def test_products_reexpand_in_basis(self):
        basis = deranged_basis(2, 4)
        support = sorted({d for el in basis for d in el.element.support()},
                         key=lambda d: d.edges)
        index = {d: i for i, d in enumerate(support)}

        def vec(el):
            row = [Fraction(0)] * len(support)
            for d, c in el.items():
                row[index[d]] = c
            return row

        span = ExactRref(len(support))
        for el in basis:
            assert span.insert(vec(el.element))
        for el1, el2 in itertools.product(basis[:4], basis[:4]):
            prod = el1.element * el2.element
            assert all(d in index for d in prod.support())
            assert span.contains(vec(prod))

    def test_preconditions(self):
        with pytest.raises(ValueError):
            deranged_basis(2, 3)
        with pytest.raises(CapExceededError):
            deranged_basis(4, 8)


class TestGenericProductMatchesReference:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_random_products_with_cancellation(self, m):
        # u*e times e*v - x*v cancels term by term (e*e = x*e), across
        # different loop counts; adding w leaves a nonzero rest.
        rng = random.Random(40 + m)
        e = elem(c_generator(m, 1, 2))
        x = QPoly.x()
        cases = zeros = 0
        for _ in range(8):
            u, v, w = (random_element(m, rng, nterms=rng.randint(1, 4)) for _ in range(3))
            a = u * e
            for b in (random_element(m, rng, nterms=5), e * v - v.scale(x),
                      e * v - v.scale(x) + w):
                got, want = a * b, reference_generic_product(a, b)
                assert got == want
                assert hash(got) == hash(want)
                assert (json.dumps(element_to_json(got), sort_keys=True)
                        == json.dumps(element_to_json(want), sort_keys=True))
                assert all(type(q) is Fraction for _, c in got.items() for q in c.coeffs)
                for x0 in (Fraction(-2), Fraction(0), Fraction(1, 3)):
                    assert a.specialize(x0) * b.specialize(x0) == want.specialize(x0)
                cases += 1
                zeros += got.is_zero()
        assert cases == 24 and zeros >= 8

    @pytest.mark.parametrize("m", [3, 4])
    def test_product_needs_no_fraction_arithmetic(self, monkeypatch, m):
        # both operands are scaled to integers once and each output
        # coefficient is divided once, so the loop runs in ints only
        rng = random.Random(70 + m)
        pairs = [(random_element(m, rng, nterms=4), random_element(m, rng, nterms=5))
                 for _ in range(4)]
        points = (Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(5, 7))
        cases = [(a, b, reference_generic_product(a, b),
                  [(a.specialize(x0), b.specialize(x0), reference_generic_product(a, b)
                    .specialize(x0)) for x0 in points]) for a, b in pairs]

        def refuse(*args):
            raise AssertionError("Fraction arithmetic in the product loop")

        for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
            monkeypatch.setattr(Fraction, name, refuse)
        for a, b, want, specialized in cases:
            assert a * b == want
            for sa, sb, swant in specialized:
                assert sa * sb == swant
        monkeypatch.undo()
        assert any(not want.is_zero() for _, _, want, _ in cases)

    def test_scale_by_zero_drops_every_term(self):
        rng = random.Random(5)
        for x0 in (None, Fraction(3)):
            a = random_element(3, rng, x0, nterms=3)
            zero = AlgebraElement.zero(3, x0)
            assert not a.is_zero()
            assert a.scale(0) == a * 0 == 0 * a == zero
            assert a.scale(0).is_zero() and hash(a.scale(0)) == hash(zero)
        assert random_element(3, rng).scale(QPoly()).is_zero()


class TestWalledSupport:
    def test_products_stay_walled(self):
        wall = Wall(2, 1)
        walled = [d for d in enumerate_diagrams(3) if is_walled(d, wall)]
        rng = random.Random(4)
        for _ in range(30):
            a = elem(walled[rng.randrange(len(walled))], 1, 3) \
                + elem(walled[rng.randrange(len(walled))], 2, 3)
            b = elem(walled[rng.randrange(len(walled))], 1, 3)
            assert a.is_supported_walled(wall)
            assert (a * b).is_supported_walled(wall)


class TestElementJson:
    def test_generic_golden(self):
        c = elem(c_generator(2, 1, 2))
        obj = element_to_json(c * c)
        assert obj == {
            "m": 2,
            "ring": "generic",
            "terms": [{"diagram": {"m": 2, "edges": [["t1", "t2"], ["b1", "b2"]]},
                       "coeff": ["0", "1"]}],
        }
        assert element_from_json(obj) == c * c

    def test_specialized_golden(self):
        e = idempotent_e(1, 2)
        obj = element_to_json(e)
        assert obj["ring"] == {"x0": "2"}
        assert obj["terms"][0]["coeff"] == "-1/2"
        assert element_from_json(obj) == e

    def test_roundtrip_random(self):
        rng = random.Random(19)
        for _ in range(30):
            for x0 in (None, Fraction(-2), Fraction(1, 3)):
                a = random_element(3, rng, x0)
                assert element_from_json(element_to_json(a)) == a

    def test_bad_payloads(self):
        from diagramalg.diagrams import DiagramParseError
        with pytest.raises(DiagramParseError):
            element_from_json({"m": 2, "ring": "nope", "terms": []})
        with pytest.raises(DiagramParseError):
            element_from_json({"m": 2, "ring": "generic", "terms": [{"bad": 1}]})
