"""Derangement numbers, diagram counts and tensor multiplicities.

The derangement number N(k) counts fixed-point-free permutations of k
objects.  It shows up here as the dimension of the centralizer algebra
of GL_n acting on tensor powers of its adjoint module: the trace-free
matrices sl_n.  This module owns the combinatorial identities and
orchestrates the multiplicity computations; the heavy lifting happens in
:mod:`diagramalg.tensor` and :mod:`diagramalg.linalg`.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, prod

from .diagrams import CapExceededError, double_factorial_odd
from .linalg import solve_sparse_system

ENUMERATION_CAP = 8
# N(1558), with 4299 digits, is the last N(k) that CPython's default
# int-to-str limit (4300 digits) lets print; larger tables are refused on
# every build.
TABLE_CAP = 1558


def derangements(k: int) -> int:
    """N(k) by inclusion-exclusion: sum of (-1)^(k-j) C(k,j) j!.

    >>> [derangements(k) for k in range(6)]
    [1, 0, 1, 2, 9, 44]
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    return sum((-1) ** (k - j) * comb(k, j) * factorial(j) for j in range(k + 1))


def _slot_columns(columns: list[bytes], slot: int, j: int) -> list[bytes]:
    """The table of range(j), as byte columns, with j inserted at ``slot``."""
    return columns[:slot] + [bytes([j]) * factorial(j)] + columns[slot:]


def _permutation_tables(k: int) -> list[list[bytes]]:
    """For j = 0 .. k, every permutation of range(j), one per row of a
    table stored as its j byte columns: j goes into each of the j + 1
    slots of every row of the table of range(j)."""
    tables: list[list[bytes]] = [[]]
    for j in range(k):
        blocks = [_slot_columns(tables[-1], slot, j) for slot in range(j + 1)]
        tables.append([b"".join(column) for column in zip(*blocks)])
    return tables


def _fixed_point_free(columns: list[bytes]) -> int:
    """The rows with no fixed point: column c marks the rows holding c by one
    translate, and the rows whose ORed marks stay 0 are counted."""
    hits = 0
    for c, column in enumerate(columns):
        hits |= int.from_bytes(column.translate(bytes(b == c for b in range(256))), "big")
    return hits.to_bytes(factorial(len(columns)), "big").count(0)


def derangements_by_enumeration(k: int) -> int:
    """Count fixed-point-free permutations directly (independent oracle):
    the rows of the table of all k! permutations with no fixed point."""
    if k > ENUMERATION_CAP:
        raise ValueError(f"enumeration for k={k} exceeds cap {ENUMERATION_CAP}")
    return _fixed_point_free(_permutation_tables(k)[-1])


def nearest_integer_to_k_factorial_over_e(k: int) -> int:
    """The integer nearest to k!/e, certified with exact rational bounds.

    Truncations of the series for e give lower and upper rational bounds;
    the answer is accepted only when both bounds round to the same
    integer.  No floating point is involved.
    """
    if k < 1:
        raise ValueError("defined for k >= 1")
    terms = k + 10
    lower = sum(Fraction(1, factorial(j)) for j in range(terms))
    upper = lower + Fraction(2, factorial(terms))
    lo, hi = factorial(k) / upper, factorial(k) / lower
    cand = round(lo + (hi - lo) / 2)
    if not (abs(cand - lo) < Fraction(1, 2) and abs(cand - hi) < Fraction(1, 2)):
        raise ArithmeticError(f"bounds too loose at k={k}")
    return cand


@dataclass(frozen=True)
class DerangementTable:
    """N(0..K) with a record of how each entry was computed."""

    values: tuple[int, ...]
    methods: tuple[str, ...]

    def __post_init__(self):
        vals = self.values
        if vals[0] != 1 or (len(vals) > 1 and vals[1] != 0):
            raise ArithmeticError("derangement table must start 1, 0")
        for k in range(2, len(vals)):
            if vals[k] != (k - 1) * (vals[k - 1] + vals[k - 2]):
                raise ArithmeticError(f"recurrence fails at k={k}")

    def rows(self) -> list[dict]:
        return [{"k": k, "N": str(v), "method": m}
                for k, (v, m) in enumerate(zip(self.values, self.methods))]


def derangement_table(kmax: int) -> DerangementTable:
    if kmax > TABLE_CAP:
        raise CapExceededError(f"derangement table up to {kmax} exceeds cap {TABLE_CAP}")
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    # one pass of N(k) = k N(k-1) + (-1)^k; the first entries are checked
    # against the inclusion-exclusion formula and the enumeration
    values = [1]
    for k in range(1, kmax + 1):
        values.append(k * values[-1] + (-1 if k % 2 else 1))
    for k, table in enumerate(_permutation_tables(min(kmax, ENUMERATION_CAP))):
        if not values[k] == derangements(k) == _fixed_point_free(table):
            raise ArithmeticError(f"recurrence, formula and enumeration disagree at k={k}")
    methods = ["enumeration" if k <= ENUMERATION_CAP else "formula" for k in range(kmax + 1)]
    return DerangementTable(tuple(values), tuple(methods))


def diagram_count(r: int) -> int:
    """(2r-1)!!, the number of Brauer diagrams on r columns."""
    if r < 0:
        raise ValueError("r must be nonnegative")
    return double_factorial_odd(r)


def walled_count(r: int, s: int) -> int:
    """(r+s)!, the number of walled diagrams for a wall after column r."""
    if r < 0 or s < 0:
        raise ValueError("r and s must be nonnegative")
    return factorial(r + s)


def _highest_weight_equations(space, weight, kind: str = "gl") -> tuple[list[dict], list[int]]:
    """Equation rows and unknowns (the indices of that weight, ascending)
    of the highest-weight vectors of a weight of gl_n or sp_n (``kind``) on
    a tensor, mixed or adjoint space: one Leibniz lift of each simple
    raising operator onto those indices."""
    from .tensor import _lift_entries, _position_actions, _weight_support, raising_units

    support, rows = _weight_support(space, weight, kind), []
    for x in raising_units(kind, space.n):
        rows += _lift_entries(*_position_actions(x, space), columns=support)[0]
    return rows, support


def _highest_weight_multiplicity(n: int, r: int, weight: tuple, mode: str) -> int:
    """Multiplicity of V_weight (weight dominant) in sl_n^(x r): its highest-weight vectors."""
    from .tensor import AdjointSpace

    rows, support = _highest_weight_equations(AdjointSpace(n, r), weight)
    return solve_sparse_system(rows, len(support), mode=mode, want_kernel=False).nullity


def multiplicity_trivial(n: int, r: int, mode: str = "auto") -> int:
    """Multiplicity of the trivial module in the r-th tensor power of the
    trace-free matrices: the number of highest-weight vectors of weight
    zero, which are exactly the invariants.  A weight space beyond the
    solver cap is refused before any equation is built."""
    return _highest_weight_multiplicity(n, r, (0,) * n, mode)


def _shapes(j: int, rows: int, largest: int):
    """Partitions of j into at most ``rows`` parts, none above ``largest``."""
    if j == 0:
        yield ()
    elif rows:
        for first in range(min(j, largest), 0, -1):
            for rest in _shapes(j - first, rows - 1, first):
                yield (first, *rest)


def _standard_tableaux(shape: tuple) -> int:
    """f^shape by the hook length formula: |shape|! over the product of the hooks."""
    cols = [sum(part > c for part in shape) for c in range(shape[0] if shape else 0)]
    return factorial(sum(shape)) // prod(part - c + cols[c] - i - 1
                                         for i, part in enumerate(shape) for c in range(part))


def _invariants_by_characters(n: int, k: int) -> int:
    """Invariants of GL_n in sl_n^(x k) from characters, with no linear
    algebra.  By Schur-Weyl duality gl_n^(x j) = End(V^(x j)) has sum of
    (f^lambda)^2 invariants, over the partitions of j with at most n rows;
    gl_n = sl_n + C gives sl_n^(x k) by binomial inversion, as in
    :func:`derangements` (there the inner sum is j!).  The work grows with
    the partitions of k, not with n."""
    squares = [sum(_standard_tableaux(s) ** 2 for s in _shapes(j, n, j)) for j in range(k + 1)]
    return sum((-1) ** (k - j) * comb(k, j) * squares[j] for j in range(k + 1))


@dataclass(frozen=True)
class AdjointMultiplicityReport:
    """Multiplicity of the adjoint module in its own r-th tensor power.

    ``computed`` counts the highest-weight vectors of the highest root
    e_1 - e_n (sl_n is irreducible of that weight) in the caller's mode,
    ``cross_check`` the invariants of the (r+1)-st power (self-duality of
    the adjoint module) from characters, and ``derangement_reference``
    records N(r-1) for comparison without asserting it."""

    n: int
    r: int
    computed: int
    cross_check: int
    derangement_reference: int

    @property
    def consistent(self) -> bool:
        return self.computed == self.cross_check


def multiplicity_adjoint(n: int, r: int, mode: str = "auto") -> AdjointMultiplicityReport:
    """One highest-weight solve at e_1 - e_n in ``mode``, cross-checked by
    the invariants of the (r+1)-st power counted from characters."""
    computed = _highest_weight_multiplicity(n, r, (1,) + (0,) * (n - 2) + (-1,), mode)
    return AdjointMultiplicityReport(n, r, computed, _invariants_by_characters(n, r + 1),
                                     derangements(r - 1))
