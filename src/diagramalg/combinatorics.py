"""Derangement numbers, diagram counts and tensor multiplicities.

The derangement number N(k) counts fixed-point-free permutations of k
objects.  It shows up here as the dimension of the centralizer algebra
of GL_n acting on tensor powers of its adjoint module: the trace-free
matrices sl_n.  This module owns the combinatorial identities and
orchestrates the multiplicity computations; the heavy lifting happens in
:mod:`diagramalg.tensor` and :mod:`diagramalg.linalg`.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial

from .diagrams import CapExceededError, double_factorial_odd

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


def derangements_by_enumeration(k: int) -> int:
    """Count fixed-point-free permutations directly (independent oracle)."""
    if k > ENUMERATION_CAP:
        raise ValueError(f"enumeration for k={k} exceeds cap {ENUMERATION_CAP}")
    return sum(1 for p in itertools.permutations(range(k))
               if all(p[i] != i for i in range(k)))


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
    values = []
    methods = []
    for k in range(kmax + 1):
        formula = derangements(k)
        if k <= ENUMERATION_CAP:
            if derangements_by_enumeration(k) != formula:
                raise ArithmeticError(f"formula and enumeration disagree at k={k}")
            methods.append("enumeration")
        else:
            methods.append("formula")
        values.append(formula)
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


def _invariant_equations(n: int, r: int) -> tuple[list[dict], list[int]]:
    """Equation rows and unknowns (the zero-weight indices, ascending) of
    :func:`multiplicity_trivial`."""
    from .tensor import AdjointSpace, _ad_cols, _lift_entries, _zero_weight_support, matrix_unit

    AdjointSpace(n, r)  # refuses n < 2 and r < 1
    support, rows = _zero_weight_support(n, r), []
    for a, b in itertools.permutations(range(n), 2):
        ad = _ad_cols(matrix_unit(n, a, b), n)
        rows += _lift_entries([ad] * r, [n * n - 1] * r, columns=support)[0]
    return rows, support


def multiplicity_trivial(n: int, r: int, mode: str = "auto") -> int:
    """Multiplicity of the trivial module in the r-th tensor power of the
    trace-free matrices: the dimension of the joint kernel of the derived
    sl_n action on that power.

    Invariant vectors have torus weight zero, and the diagonal generators
    act on weight-zero vectors by zero.  So the unknowns are the
    zero-weight coordinates, and the equations are the nonzero rows of
    the off-diagonal generators' derived actions restricted to those
    columns, one Leibniz lift per generator.
    """
    from .linalg import solve_sparse_system

    rows, support = _invariant_equations(n, r)
    return solve_sparse_system(rows, len(support), mode=mode, want_kernel=False).nullity


@dataclass(frozen=True)
class AdjointMultiplicityReport:
    """Multiplicity of the adjoint module in its own r-th tensor power.

    ``computed`` comes from the space of equivariant maps, ``cross_check``
    from the invariants of the (r+1)-st power via self-duality of the
    adjoint module, and ``derangement_reference`` records N(r-1) for
    comparison without asserting it."""

    n: int
    r: int
    computed: int
    cross_check: int
    derangement_reference: int

    @property
    def consistent(self) -> bool:
        return self.computed == self.cross_check


def multiplicity_adjoint(n: int, r: int, mode: str = "auto") -> AdjointMultiplicityReport:
    from .tensor import AdjointSpace, derivation_ops_sparse, lie_basis
    from .linalg import intertwiner_kernel

    space = AdjointSpace(n, r)
    basis = lie_basis("sl", n)
    left = [derivation_ops_sparse(x, space) for x in basis]
    right = [derivation_ops_sparse(x, AdjointSpace(n, 1)) for x in basis]
    result, _ = intertwiner_kernel(left, right, space.dim, n * n - 1,
                                   mode=mode, want_kernel=False)
    cross = multiplicity_trivial(n, r + 1, mode=mode)
    return AdjointMultiplicityReport(n, r, result.nullity, cross, derangements(r - 1))
