"""Linear combinations of Brauer diagrams and the diagram product.

The product of two diagrams is their composite scaled by x**loops, where
``loops`` counts the closed strands removed from the middle row.  Over
the generic ring the coefficients are polynomials in x; specializing x
at a rational number gives the algebras acting on tensor space.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Mapping

from .diagrams import (
    BrauerDiagram,
    CapExceededError,
    SizeMismatchError,
    Wall,
    compose,
    diagram_from_json,
    enumerate_walled,
    identity_diagram,
    is_walled,
    vertex_label,
    wall_generator,
)
from .ring import QPoly, fraction_from_str, fraction_to_str

DERANGED_R_CAP = 3


class RingMismatchError(ValueError):
    """Operands carry different coefficient rings (generic vs specialized)."""


def _coerce_coeff(c, x0):
    if x0 is None:
        if isinstance(c, QPoly):
            return c
        return QPoly([Fraction(c)])
    if isinstance(c, QPoly):
        raise RingMismatchError("polynomial coefficient in a specialized element")
    return Fraction(c)


def _int_terms(el) -> tuple[int, list]:
    """``(s, [(d, s * c), ...])``: the terms of ``el`` times s, the lcm of the
    denominators of their coefficients, so every coefficient is integral."""
    if el.x0 is None:
        s = lcm(*(q.denominator for c in el._terms.values() for q in c.coeffs))
        return s, [(d, QPoly([q.numerator * (s // q.denominator) for q in c.coeffs]))
                   for d, c in el._terms.items()]
    s = lcm(*(c.denominator for c in el._terms.values()))
    return s, [(d, c.numerator * (s // c.denominator)) for d, c in el._terms.items()]


def _horner(row: list[int], p: int, q: int) -> int:
    """The sum of ``row[i] * p**i * q**(len(row) - 1 - i)``."""
    v, qk = 0, 1
    for c in reversed(row):
        v = v * p + c * qk
        qk *= q
    return v


class AlgebraElement:
    """Finite linear combination of diagrams sharing a column count.

    ``x0 is None`` marks the generic ring (coefficients in Q[x]); a
    rational ``x0`` marks the specialization sending x to that value.
    """

    __slots__ = ("m", "x0", "_terms")

    def __init__(self, m: int, terms: Mapping[BrauerDiagram, object] = (), x0=None):
        x0 = None if x0 is None else Fraction(x0)
        clean = {}
        for d, c in (terms.items() if isinstance(terms, Mapping) else terms):
            if d.m != m:
                raise SizeMismatchError(f"diagram on {d.m} columns in an m={m} element")
            c = _coerce_coeff(c, x0)
            if d in clean:
                c = clean[d] + c
            if c:
                clean[d] = c
            else:
                clean.pop(d, None)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "_terms", clean)

    def __setattr__(self, *args):
        raise AttributeError("AlgebraElement is immutable")

    @classmethod
    def _reduced(cls, m: int, terms: dict, x0) -> "AlgebraElement":
        # An internal result that needs no normalizing: every term is on m
        # columns and holds a nonzero coefficient of the ring of x0.
        el = object.__new__(cls)
        object.__setattr__(el, "m", m)
        object.__setattr__(el, "x0", x0)
        object.__setattr__(el, "_terms", terms)
        return el

    @classmethod
    def zero(cls, m: int, x0=None) -> "AlgebraElement":
        return cls(m, {}, x0)

    @classmethod
    def unit(cls, m: int, x0=None) -> "AlgebraElement":
        return cls(m, {identity_diagram(m): 1}, x0)

    @classmethod
    def from_diagram(cls, d: BrauerDiagram, coeff=1, x0=None) -> "AlgebraElement":
        return cls(d.m, {d: coeff}, x0)

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def support(self):
        return set(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, d: BrauerDiagram):
        return self._terms.get(d, QPoly() if self.x0 is None else Fraction(0))

    def _check_compatible(self, other: "AlgebraElement"):
        if self.m != other.m:
            raise SizeMismatchError(f"mixed column counts {self.m} and {other.m}")
        if self.x0 != other.x0:
            raise RingMismatchError(f"mixed rings: x0={self.x0!r} vs x0={other.x0!r}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        return AlgebraElement(self.m, [*self._terms.items(), *other._terms.items()], self.x0)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement._reduced(self.m, {d: -c for d, c in self._terms.items()}, self.x0)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "AlgebraElement":
        c = _coerce_coeff(c, self.x0)
        terms = {d: c * v for d, v in self._terms.items()} if c else {}
        return AlgebraElement._reduced(self.m, terms, self.x0)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._check_compatible(other)
        (s1, left), (s2, right) = _int_terms(self), _int_terms(other)
        generic = self.x0 is None
        # x-coefficients per composite at offset loops, of which there are at most m // 2
        width = self.m // 2 + 1 + sum(max((len(c.coeffs) - 1 for _, c in terms), default=0)
                                      for terms in (left, right) if generic)
        rows: dict[BrauerDiagram, list[int]] = {}
        for d1, c1 in left:
            for d2, c2 in right:
                res = compose(d1, d2)
                row = rows.setdefault(res.composite, [0] * width)
                for i, c in enumerate((c1 * c2).coeffs if generic else (c1 * c2,), res.loops):
                    row[i] += c
        scale, out = s1 * s2, {}
        p, q = (1, 1) if generic else (self.x0.numerator, self.x0.denominator)
        for d, row in rows.items():
            while row and not row[-1]:
                row.pop()
            c = row and (QPoly([Fraction(a, scale) for a in row]) if generic else
                         Fraction(_horner(row, p, q), scale * q ** (len(row) - 1)))
            if c:
                out[d] = c
        return AlgebraElement._reduced(self.m, out, self.x0)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, QPoly)):
            return self.scale(other)
        return NotImplemented

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return (self.m, self.x0, self._terms) == (other.m, other.x0, other._terms)

    def __hash__(self):
        return hash((self.m, self.x0, frozenset(self._terms.items())))

    def __repr__(self):
        if self.is_zero():
            return f"AlgebraElement({self.m}, 0, x0={self.x0!r})"
        bits = ", ".join(f"{c!s}*{list(d.edges)}" for d, c in sorted(
            self._terms.items(), key=lambda t: t[0].edges))
        return f"AlgebraElement({self.m}, {bits}, x0={self.x0!r})"

    def specialize(self, x0) -> "AlgebraElement":
        """Evaluate every coefficient polynomial at ``x0``.

        A ring homomorphism onto the specialized algebra; specializing an
        already specialized element is an error.
        """
        if self.x0 is not None:
            raise RingMismatchError(f"element already specialized at {self.x0}")
        x0 = Fraction(x0)
        return AlgebraElement(
            self.m, {d: c.evaluate(x0) for d, c in self._terms.items()}, x0)

    def symmetric_quotient(self) -> "AlgebraElement":
        """Image in the symmetric group algebra: drop every diagram with a
        horizontal edge.  Those diagrams span a two-sided ideal, so this is
        an algebra homomorphism."""
        return AlgebraElement._reduced(
            self.m, {d: c for d, c in self._terms.items() if d.is_permutation()}, self.x0)

    def is_supported_walled(self, wall: Wall) -> bool:
        return all(is_walled(d, wall) for d in self._terms)


def idempotent_e(r: int, n) -> AlgebraElement:
    """The projector (1 - c_{1,-1}/n)(1 - c_{2,-2}/n)...(1 - c_{r,-r}/n)
    in the walled algebra on (r, r) columns specialized at x = n.

    The factors commute and each squares to itself, so the product is an
    idempotent for any nonzero n.
    """
    n = Fraction(n)
    if n == 0:
        raise ValueError("the idempotent divides by n; n must be nonzero")
    wall = Wall(r, r)
    e = AlgebraElement.unit(2 * r, x0=n)
    for i in range(1, r + 1):
        cii = AlgebraElement.from_diagram(wall_generator(wall, i, i), 1, x0=n)
        e = e * (AlgebraElement.unit(2 * r, x0=n) - cii.scale(Fraction(1, n)))
    return e


@dataclass(frozen=True)
class DerangedElement:
    """An element e*D*e of the deranged algebra e B_{r,r} e."""

    element: AlgebraElement
    diagram: BrauerDiagram
    r: int
    n: Fraction

    def sandwich_stable(self, e: AlgebraElement) -> bool:
        return e * self.element * e == self.element


def _avoids_straight_cross(d: BrauerDiagram, r: int) -> bool:
    # Reject horizontal edges joining column i with column r+i on either row.
    m = d.m
    for i in range(r):
        if d.partner[i] == r + i or d.partner[m + i] == m + r + i:
            return False
    return True


def deranged_basis(r: int, n) -> list[DerangedElement]:
    """Basis e*D*e of the deranged algebra, D running over walled
    (r, r)-diagrams with no horizontal edge joining a column to its
    mirror column.

    The basis has N(2r) elements (derangement number); linear
    independence is checked here by an exact rank computation rather
    than taken on faith.
    """
    from .linalg import ExactRref  # local import: linalg does not need algebra

    n = Fraction(n)
    if n < 2 * r:
        raise ValueError(f"need n >= 2r (got n={n}, r={r})")
    if r > DERANGED_R_CAP:
        raise CapExceededError(f"deranged basis for r={r} exceeds cap {DERANGED_R_CAP}")
    wall = Wall(r, r)
    e = idempotent_e(r, n)
    out = []
    for d in enumerate_walled(wall):
        if _avoids_straight_cross(d, r):
            v = e * AlgebraElement.from_diagram(d, 1, x0=n) * e
            out.append(DerangedElement(v, d, r, n))

    support = sorted({d for el in out for d in el.element.support()},
                     key=lambda d: d.edges)
    index = {d: i for i, d in enumerate(support)}
    rref = ExactRref(len(support))
    for el in out:
        if not rref.insert({index[d]: c for d, c in el.element.items()}):
            raise ArithmeticError(
                f"deranged elements are not independent at r={r}, n={n}")
    return out


def element_to_json(el: AlgebraElement) -> dict:
    labels = [vertex_label(v, el.m) for v in range(2 * el.m)]
    generic = el.x0 is None
    # partner tables sort as edge lists do: where two first differ, both have an edge's smaller end
    terms = [{"diagram": {"m": el.m, "edges": [[labels[v], labels[w]]
                                               for v, w in enumerate(p) if v < w]},
              "coeff": list(map(fraction_to_str, c.coeffs)) if generic else fraction_to_str(c)}
             for p, c in sorted((d.partner, c) for d, c in el.items())]
    return {"m": el.m, "ring": "generic" if generic else {"x0": fraction_to_str(el.x0)},
            "terms": terms}


def element_from_json(obj) -> AlgebraElement:
    from .diagrams import DiagramParseError

    if not isinstance(obj, dict):
        raise DiagramParseError("element must be an object")
    m = obj.get("m")
    if type(m) is not int or m <= 0:  # a JSON boolean is no column count
        raise DiagramParseError(f"'m' must be a positive integer, got {m!r}")
    ring = obj.get("ring")
    if ring == "generic":
        x0 = None
    elif isinstance(ring, dict) and set(ring) == {"x0"}:
        x0 = fraction_from_str(ring["x0"])
    else:
        raise DiagramParseError(f"bad ring tag {ring!r}")
    terms = obj.get("terms")
    if not isinstance(terms, list):
        raise DiagramParseError("'terms' must be a list")
    pairs = []
    for t in terms:
        if not isinstance(t, dict) or set(t) != {"diagram", "coeff"}:
            raise DiagramParseError(f"bad term {t!r}")
        d = diagram_from_json(t["diagram"])
        raw = t["coeff"]
        if x0 is None:
            if not isinstance(raw, list):
                raise DiagramParseError("generic coefficients are coefficient lists")
            c = QPoly([fraction_from_str(s) for s in raw])
        else:
            if not isinstance(raw, str):
                raise DiagramParseError("specialized coefficients are 'p/q' strings")
            c = fraction_from_str(raw)
        pairs.append((d, c))
    return AlgebraElement(m, pairs, x0)
