"""Polynomials in one variable with exact rational coefficients.

These are the generic coefficients of the diagram algebras: the product
of two diagrams picks up a power of the parameter ``x`` for every closed
loop, so generic algebra elements have coefficients in Q[x].  Specialized
elements use plain :class:`fractions.Fraction` coefficients instead.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence

# CPython's default int-to-str limit: no longer integer prints on every build
DIGITS_CAP = 4300


class QPoly:
    """Immutable dense polynomial over Q, coefficients constant-first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence = ()):
        cs = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, *args):
        raise AttributeError("QPoly is immutable")

    @classmethod
    def x(cls) -> "QPoly":
        return cls([0, 1])

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree, with the zero polynomial given degree -1."""
        return len(self.coeffs) - 1

    def shift(self, k: int) -> "QPoly":
        """Multiply by x**k."""
        if k < 0:
            raise ValueError(f"negative shift {k} not supported")
        return QPoly((Fraction(0),) * k + self.coeffs) if self else self

    def evaluate(self, x0) -> Fraction:
        x0 = Fraction(x0)
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * x0 + c if out else c
        return out

    def __add__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return QPoly([c + (b[i] if i < len(b) else 0) for i, c in enumerate(a)])

    __radd__ = __add__

    def __neg__(self) -> "QPoly":
        return QPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "QPoly":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for k, b in enumerate(other.coeffs, i):
                    out[k] = out[k] + a * b if out[k] else a * b
        return QPoly(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(("QPoly", self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return f"QPoly({list(self.coeffs)})"

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                xpow = "x" if i == 1 else f"x^{i}"
                if c == 1:
                    parts.append(xpow)
                elif c == -1:
                    parts.append(f"-{xpow}")
                else:
                    parts.append(f"{c}*{xpow}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(v):
    if isinstance(v, QPoly):
        return v
    if isinstance(v, (int, Fraction)):
        return QPoly([Fraction(v)])
    return NotImplemented


def exactify(v):
    """Normalize an exact scalar: plain int when the denominator is 1,
    Fraction otherwise.  Integer arithmetic is several times faster and
    the two types mix exactly.  A plain int comes back unchanged."""
    if type(v) is int:
        return v
    q = v if type(v) is Fraction else Fraction(v)
    return q.numerator if q.denominator == 1 else q


def fraction_to_str(q) -> str:
    """Render a rational as 'p' or 'p/q' in lowest terms."""
    q = q if type(q) is Fraction else Fraction(q)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def fraction_from_str(s: str) -> Fraction:
    """Parse 'p', 'p/q' or a decimal such as '-1.5e3'; anything but a
    string is refused.  The length of the unsigned literal before its
    exponent, plus the exponent, bounds the digits of its numerator and
    denominator; past ``DIGITS_CAP`` neither could be printed, so the
    literal is refused before either is built."""
    if not isinstance(s, str):
        raise ValueError(f"bad rational literal of type {type(s).__name__}: not a string")
    body, _, exp = s.strip().lstrip("+-").lower().partition("e")
    exp = exp.lstrip("+-").replace("_", "").lstrip("0")
    if len(exp) > 4 or len(body) + int(exp if exp.isdecimal() else 0) > DIGITS_CAP:
        raise ValueError(f"bad rational literal: more than {DIGITS_CAP} digits")
    try:
        return Fraction(s.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational literal {s!r}: {exc}") from None
