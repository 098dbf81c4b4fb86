"""Exact linear algebra over Q with a certified modular fast path.

Small systems are solved directly by fraction-free integer elimination
over sparse rows.  Larger systems are eliminated modulo one word-sized
prime, and the modular answer is certified exactly:

* a modular rank is always a lower bound on the exact rank (a nonzero
  minor mod p is nonzero over Q), and
* the modular kernel vectors are lifted by rational reconstruction
  modulo that prime and verified exactly against the original
  equations, in integer arithmetic after scaling out the denominators.

The verified kernel dimension and the modular rank then add up to the
number of unknowns, so both bounds are tight and the result is exact.
There is one echelon form per field, ``ExactRref`` over Q and ``ModRref``
over GF(p), and one elimination for both (``_Echelon``): a field supplies
only its arithmetic.  Both keep sparse ``{col: value}`` pivot rows and read
off them their rank, pivot columns and kernel, one vector per free column.
When the lift or its check fails (an unlucky prime or a large entry),
the exact engine answers instead.  Uncertified modular counts use two
primes that agree on the result; a prime that disagrees is skipped.  The
primes are fixed here and nowhere else: every modular route walks
``DEFAULT_PRIMES`` and then ``EXTRA_PRIMES``.  The method tag records
which route produced a number: ``exact``, ``mod-p(p1,p2)`` (naming the
two primes used) or ``mod-p-confirmed-exact``.

Operators are ``LinOp``s (sparse rows) in the commutant, span, closure and
graded code: a dense array enters only through ``_as_linop`` and leaves only
through ``LinOp.to_dense``; the graded solve reads its small blocks off the rows.
"""
from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

from .diagrams import CapExceededError
from .ring import exactify

# Primes just below 2**25: a product of two residues is below 2**50, and
# an int64 sum holds (2**63 - 1) // (p - 1)**2 of them (8192 at these
# primes), so the closure screen multiplies residues at d <= 8192.
DEFAULT_PRIMES = (33554393, 33554383)
EXTRA_PRIMES = (33554371, 33554347, 33554341, 33554317, 33554291, 33554273)

MODES = ("auto", "exact", "modular")

EXACT_UNKNOWN_CAP = 300       # mode 'auto' takes the certified modular route above this
DEFAULT_UNKNOWN_CAP = 65536   # refuse plainly oversized systems
CLOSURE_DIM_CAP = 4096        # refuse an algebra closure of larger dimension


# ---------------------------------------------------------------------------
# dense exact matrices (numpy object arrays holding Fractions / ints)

def zeros_matrix(nrows: int, ncols: int) -> np.ndarray:
    out = np.empty((nrows, ncols), dtype=object)
    out[:] = 0
    return out


def _residue(q, p: int, cache: dict) -> int:
    r = cache.get(q)
    if r is None:
        den = q.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {p}")
        r = (q.numerator % p) * pow(den, p - 2, p) % p
        cache[q] = r
    return r


def mat_to_modp(mat, p: int) -> np.ndarray:
    """Reduce an exact matrix or ``LinOp`` mod p.  Denominators divisible
    by p are a hard error; callers escalate to another prime."""
    out = np.zeros(mat.shape, dtype=np.int64)
    cache: dict = {}
    dst = out.reshape(-1)
    for k, q in (mat.entries() if isinstance(mat, LinOp) else _nonzeros(mat)).items():
        dst[k] = _residue(q, p, cache)
    return out


# ---------------------------------------------------------------------------
# sparse rows (dict col -> value), used where dense object matmuls would hurt

def _nonzeros(mat: np.ndarray) -> dict:
    """The nonzero entries of an array, flattened, as a sparse row."""
    flat = mat.reshape(-1)
    return {j: flat[j] for j in np.flatnonzero(flat).tolist()}


def rows_from_dense(mat: np.ndarray) -> list[dict[int, Fraction]]:
    return [{j: exactify(v) for j, v in _nonzeros(row).items()} for row in mat]


def dense_from_rows(rows: list[dict[int, Fraction]], ncols: int) -> np.ndarray:
    out = zeros_matrix(len(rows), ncols)
    for i, row in enumerate(rows):
        for j, v in row.items():
            out[i, j] = v
    return out


def sparse_matmul(a_rows: list[dict[int, Fraction]],
                  b_rows: list[dict[int, Fraction]]) -> list[dict[int, Fraction]]:
    out = []
    for arow in a_rows:
        acc: dict[int, Fraction] = {}
        for k, v in arow.items():
            for j, w in b_rows[k].items():
                acc[j] = acc.get(j, 0) + v * w
        out.append({j: c for j, c in acc.items() if c})
    return out


def sparse_scale_add(acc: list[dict[int, Fraction]], c: Fraction,
                     rows: list[dict[int, Fraction]]) -> None:
    for arow, row in zip(acc, rows):
        for j, v in row.items():
            s = arow.get(j, 0) + c * v
            if s:
                arow[j] = s
            else:
                arow.pop(j, None)


def _int_scaled(row: dict) -> tuple[int, dict[int, int]]:
    """``(s, s * row)`` for a ``{col: value}`` row of ints and Fractions, s
    the lcm of their denominators; a row of plain ints comes back as is."""
    if {*map(type, row.values())} <= {int}:
        return 1, row
    scale = lcm(*(q.denominator for q in row.values()))
    return scale, {j: int(q.numerator) * (scale // q.denominator) for j, q in row.items()}


# ---------------------------------------------------------------------------
# reduced row echelon forms

class _Echelon:
    """A reduced row echelon form and the elimination both fields share.

    ``_row_of`` maps each pivot column to its sparse ``{col: value}`` row,
    zero left of that column and at every other pivot column; ``_pivots``
    lists the pivot columns in order.  A field supplies ``_clear(v, row,
    pc)``, which clears column pc of v by the pivot row of pc and returns
    the scale it applied to v, ``_lead(v, pc)``, which normalises a new
    pivot row, and ``_ratio(a, b)``, a / b."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self._row_of: dict[int, dict] = {}
        self._pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @property
    def pivot_cols(self) -> list[int]:
        """Pivot columns in increasing order."""
        return list(self._pivots)

    def _reduce(self, v: dict) -> int:
        """Clear in place each pivot column that v hits, one at a time (no
        pivot row makes a new hit), and return the scale applied to v."""
        scale, row_of = 1, self._row_of
        for pc in [j for j in v if j in row_of]:
            scale *= self._clear(v, row_of[pc], pc)
        return scale

    def _keep(self, v: dict) -> bool:
        """Keep the reduced row v, if nonzero, as a pivot row; True if it was.
        Only the kept rows whose pivot lies left of v's can hold v's pivot."""
        if not v:
            return False
        pc, row_of = min(v), self._row_of
        self._lead(v, pc)
        for q in [q for q in self._pivots[:bisect_left(self._pivots, pc)] if pc in row_of[q]]:
            self._clear(row_of[q], v, pc)
            self._lead(row_of[q], q)
        row_of[pc] = v
        insort(self._pivots, pc)
        return True

    def kernel_vectors(self) -> list[dict[int, int | Fraction]]:
        """The kernel of the row span seen as a matrix: one ``{col: value}``
        vector per free column, in free-column order, 1 at that column (its
        first key) and nonzero elsewhere only at pivot columns."""
        out = {f: {f: 1} for f in range(self.ncols) if f not in self._row_of}
        for pc, row in self._row_of.items():
            for j, x in row.items():
                if j != pc:
                    out[j][pc] = self._ratio(-x, row[pc])
        return list(out.values())


class ExactRref(_Echelon):
    """Incremental reduced row echelon form over Q, kept over Z.

    Rows (sequences or ``{col: value}`` dicts of ints and Fractions) are
    inserted one at a time, with deterministic leftmost pivoting.  Each is
    scaled once to integers, and elimination is fraction-free (Bareiss):
    a pivot row is a primitive ``{col: int}`` row with a positive leading
    entry.  ``rows`` gives the usual leading-1 form, by pivot column.
    """

    @staticmethod
    def _clear(v: dict[int, int], row: dict[int, int], pc: int) -> int:
        """Set v to m v - (m v[pc] / row[pc]) row, least m > 0 keeping it integral; return m."""
        c, b = v[pc], row[pc]
        m = b // gcd(b, c)
        if m != 1:
            for j in v:
                v[j] *= m
        f = m * c // b
        for j, x in row.items():
            if s := v.get(j, 0) - f * x:
                v[j] = s
            else:
                del v[j]
        return m

    @staticmethod
    def _lead(v: dict[int, int], pc: int) -> None:
        """Divide v in place by its content, signed to make v[pc] positive."""
        g = -gcd(*v.values()) if v[pc] < 0 else gcd(*v.values())
        if g != 1:
            for j in v:
                v[j] //= g

    @staticmethod
    def _ratio(a: int, b: int) -> int | Fraction:
        return exactify(Fraction(a, b))

    @property
    def rows(self) -> list[dict[int, int | Fraction]]:
        """Pivot rows with leading coefficient 1, ints where possible."""
        return [{j: exactify(Fraction(x, row[pc])) for j, x in row.items()}
                for pc, row in sorted(self._row_of.items())]

    def _reduced(self, row) -> tuple[dict[int, int], int]:
        """``(v, scale)``, v integer: ``row`` with its pivot columns cleared is v / scale."""
        items = row.items() if isinstance(row, dict) else enumerate(row)
        scale, v = _int_scaled({j: x for j, x in items if x})
        return v, scale * self._reduce(v)

    def reduce(self, row) -> list:
        """Residue of ``row`` after clearing every pivot column (dense)."""
        v, scale = self._reduced(row)
        return [exactify(Fraction(v.get(j, 0), scale)) for j in range(self.ncols)]

    def insert(self, row) -> bool:
        """Reduce and keep ``row``; True if it added a new pivot."""
        return self._keep(self._reduced(row)[0])

    def contains(self, row) -> bool:
        return not self._reduced(row)[0]


# ---------------------------------------------------------------------------
# modular echelon form (one prime, sparse dict rows)

class ModRref(_Echelon):
    """Streaming reduced row echelon form over GF(p).

    A pivot row is a ``{col: residue}`` dict of its nonzeros, with leading
    entry 1.  The rows fed to it (invariant equations, closure residues,
    graded blocks) are sparse or small, so its storage grows with the rank
    and the fill of the rows, not with ncols**2.  Entries are Python ints,
    which cannot wrap."""

    def __init__(self, ncols: int, p: int):
        super().__init__(ncols)
        self.p = p

    def _clear(self, v: dict[int, int], row: dict[int, int], pc: int) -> int:
        """v becomes ``v - v[pc] row`` mod p (row[pc] is 1); returns 1."""
        p, c = self.p, v[pc]
        for j, x in row.items():
            if s := (v.get(j, 0) - c * x) % p:
                v[j] = s
            else:
                del v[j]
        return 1

    def _lead(self, v: dict[int, int], pc: int) -> None:
        """Scale v in place to v[pc] == 1."""
        if (c := v[pc]) != 1:
            inv = pow(c, -1, self.p)
            for j in v:
                v[j] = v[j] * inv % self.p

    def _ratio(self, a: int, b: int) -> int:
        return a % self.p  # b is a pivot row's leading entry, 1

    def _install(self, items) -> bool:
        """Reduce and keep the row given by (column, value) pairs."""
        v = {j: x % self.p for j, x in items if x % self.p}
        self._reduce(v)
        return self._keep(v)

    def insert(self, v: np.ndarray) -> bool:
        """Reduce and keep the dense row ``v``; True if it added a pivot."""
        nz = np.flatnonzero(v)
        return self._install(zip(nz.tolist(), v[nz].tolist()))

    def insert_sparse(self, items) -> bool:
        """Insert a row given as (column, residue) pairs."""
        return self._install(items)


def kernel_modp_dense(mat: np.ndarray, p: int) -> list[dict[int, int]]:
    """The ``kernel_vectors`` of a dense 2-D int64 matrix over GF(p); rows
    after the form saturates are skipped."""
    acc = ModRref(mat.shape[1], p)
    for row in mat:
        if acc.rank == acc.ncols:
            break
        acc.insert(row)
    return acc.kernel_vectors()


def _agreeing_primes(run, count: int, key) -> list[tuple[int, object]]:
    """Call ``run(p)`` for ``DEFAULT_PRIMES`` and then ``EXTRA_PRIMES`` and
    return ``(p, run(p))`` for the first ``count`` primes whose results
    agree on ``key(result)``.  ``run`` raises ZeroDivisionError when p
    divides a denominator of its input; that prime is skipped, and so is a
    prime whose result no later prime matches."""
    seen: dict = {}
    for p in DEFAULT_PRIMES + EXTRA_PRIMES:
        try:
            result = run(p)
        except ZeroDivisionError:
            continue
        agreeing = seen.setdefault(key(result), [])
        agreeing.append((p, result))
        if len(agreeing) == count:
            return agreeing
    raise ArithmeticError(f"ran out of primes: no {count} reduce the input cleanly and agree")


# ---------------------------------------------------------------------------
# sparse linear systems with certification

def rational_reconstruct(a: int, modulus: int) -> Fraction | None:
    """Find p/q == a (mod modulus) with |p|, q <= sqrt(modulus/2)."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, a % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    return Fraction(r1, t1) if t1 > 0 else Fraction(-r1, -t1)


@dataclass
class SolveResult:
    nullity: int
    rank: int
    kernel: list[dict[int, int | Fraction]] | None
    method: str


def _kernel_vanishes(rows: list[dict[int, Fraction]], kernel: list[dict]) -> bool:
    """Exact test of ``A K == 0`` for sparse equation rows and sparse kernel
    vectors.  Each row and each vector is scaled once to integers by the
    lcm of its denominators; nonzero scales do not change which entries of
    the product vanish, and the product itself is sparse int arithmetic
    over the nonzeros of K's rows."""
    k_rows: dict[int, list[tuple[int, int]]] = {}
    for k, vec in enumerate(kernel):
        for j, x in _int_scaled(vec)[1].items():
            k_rows.setdefault(j, []).append((k, x))
    for row in rows:
        acc: dict[int, int] = {}
        for j, c in _int_scaled(row)[1].items():
            for k, x in k_rows.get(j, ()):
                acc[k] = acc.get(k, 0) + c * x
        if any(acc.values()):
            return False
    return True


def solve_sparse_system(
    rows: list[dict[int, Fraction]],
    ncols: int,
    mode: str = "auto",
    want_kernel: bool = True,
) -> SolveResult:
    """Rank and kernel of a sparse system of exact linear equations.

    Each row is a ``{col: value}`` dict of its nonzero ints and Fractions.
    Mode 'exact' eliminates in exact arithmetic at every size.  Mode 'auto'
    does so up to ``EXACT_UNKNOWN_CAP`` unknowns; above it, it eliminates
    modulo one prime and certifies the result by an exactly checked lift of
    the kernel (see the module docstring), falling back to exact elimination
    when the lift or its check fails.  Both return unconditionally exact
    answers.  Mode 'modular', which the library's multiplicities take and no
    verify route passes, skips certification and reports the dimensions on
    which two primes agree.  Every mode sorts the rows once, last leading
    column first, so a new pivot mostly lies left of every kept one; the
    reduced form of a row space is unique, so no result depends on the row
    order.  Exact elimination stops at full rank.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    rows = sorted(rows, key=lambda row: min(row, default=ncols), reverse=True)

    def eliminate(p: int) -> ModRref:
        acc = ModRref(ncols, p)
        cache: dict = {}
        for row in rows:
            acc.insert_sparse([(j, c if type(c) is int else _residue(c, p, cache))
                               for j, c in row.items()])
        return acc

    if mode == "modular":
        (p1, acc), (p2, _) = _agreeing_primes(eliminate, 2, lambda t: tuple(t.pivot_cols))
        return SolveResult(ncols - acc.rank, acc.rank, None, f"mod-p({p1},{p2})")
    if mode == "auto" and ncols > EXACT_UNKNOWN_CAP:
        # The lifted vectors are independent (one per free column) and
        # checked exactly, so the exact nullity is at least the modular
        # one, which is never below it: the two are equal.
        ((p, acc),) = _agreeing_primes(eliminate, 1, lambda t: None)
        kernel = [{j: rational_reconstruct(a, p) for j, a in vec.items()}
                  for vec in acc.kernel_vectors()]
        if all(None not in vec.values() for vec in kernel) and _kernel_vanishes(rows, kernel):
            return SolveResult(ncols - acc.rank, acc.rank, kernel if want_kernel else None,
                               "mod-p-confirmed-exact")
    acc = ExactRref(ncols)
    for row in rows:
        if acc.rank == ncols:
            break
        acc.insert(row)
    kernel = acc.kernel_vectors() if want_kernel else None
    return SolveResult(ncols - acc.rank, acc.rank, kernel, "exact")


# ---------------------------------------------------------------------------
# operators and intertwiner systems

class LinOp:
    """Exact operator normal form: sparse rows over a fixed dimension."""

    def __init__(self, dim: int, rows: list[dict[int, Fraction]]):
        self.dim = dim
        self.shape = (dim, dim)
        self.rows = rows
        self._cols: list[dict[int, Fraction]] | None = None

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "LinOp":
        if mat.shape[1] != mat.shape[0]:
            raise ValueError("operator must be square")
        return cls(mat.shape[0], rows_from_dense(mat))

    def __matmul__(self, other: "LinOp") -> "LinOp":
        return LinOp(self.dim, sparse_matmul(self.rows, other.rows))

    def entries(self) -> dict[int, Fraction]:
        """The nonzero entries keyed by flat index ``i * dim + j``."""
        d = self.dim
        return {i * d + j: c for i, row in enumerate(self.rows) for j, c in row.items()}

    def cols(self) -> list[dict[int, Fraction]]:
        if self._cols is None:
            cols: list[dict[int, Fraction]] = [{} for _ in range(self.dim)]
            for i, row in enumerate(self.rows):
                for j, c in row.items():
                    cols[j][i] = c
            self._cols = cols
        return self._cols

    def diagonal_vector(self):
        """The diagonal as a list if the operator is diagonal, else None."""
        diag = [0] * self.dim
        for i, row in enumerate(self.rows):
            for j, c in row.items():
                if i != j:
                    return None
                diag[i] = c
        return diag

    def to_dense(self) -> np.ndarray:
        return dense_from_rows(self.rows, self.dim)


def _as_linop(op, dim: int) -> LinOp:
    """The one entry point of dense matrices into the operator layer."""
    if op.shape != (dim, dim):
        raise ValueError(f"expected {dim}x{dim} operators, got {op.shape}")
    return op if isinstance(op, LinOp) else LinOp.from_dense(op)


def _diagonal_support(diag_pairs, dim_w: int, dim_u: int) -> list[tuple[int, int]]:
    """The entries (i, u), row-major, with dl[i] == dr[u] for every diagonal
    pair (dl, dr): columns grouped once by their tuple of diagonal entries,
    each row takes its class, in O(d * #pairs + |support|) steps."""
    classes: dict[tuple, list[int]] = {}
    for u in range(dim_u):
        classes.setdefault(tuple(dr[u] for _, dr in diag_pairs), []).append(u)
    return [(i, u) for i in range(dim_w)
            for u in classes.get(tuple(dl[i] for dl, _ in diag_pairs), ())]


def check_unknowns(count: int, cap: int) -> None:
    if count > cap:
        raise CapExceededError(f"{count} unknowns exceed the solver cap {cap}; "
                               f"raise it with --solver-cap")


def intertwiner_kernel(
    left_ops: Sequence,
    right_ops: Sequence,
    dim_w: int,
    dim_u: int,
    mode: str = "auto",
    want_kernel: bool = True,
    unknown_cap: int = DEFAULT_UNKNOWN_CAP,
) -> tuple[SolveResult, list[tuple[int, int]]]:
    """Solve L_k A == A R_k for a dim_w x dim_u unknown matrix A.

    Diagonal operator pairs are used first: they force A to vanish outside
    the entry set where the diagonals agree (``_diagonal_support``), which
    is what keeps the big weight-graded systems small.  Returns the solve
    result together with the row-major list of (row, col) unknowns the
    kernel vectors refer to.
    """
    if len(left_ops) != len(right_ops):
        raise ValueError("need one right operator per left operator")
    pairs = [(_as_linop(l, dim_w), _as_linop(r, dim_u))
             for l, r in zip(left_ops, right_ops)]

    diag_pairs = []
    general_pairs = []
    for l, r in pairs:
        dl = l.diagonal_vector()
        dr = dl if r is l else r.diagonal_vector()
        if dl is not None and dr is not None:
            diag_pairs.append((dl, dr))
        else:
            general_pairs.append((l, r))

    support = _diagonal_support(diag_pairs, dim_w, dim_u)
    check_unknowns(len(support), unknown_cap)
    # Unknowns by row of A (k -> [(u, idx)]) and by column (v -> [(i, idx)]),
    # in support order.
    in_row: dict[int, list[tuple[int, int]]] = {}
    in_col: dict[int, list[tuple[int, int]]] = {}
    for idx, (i, u) in enumerate(support):
        in_row.setdefault(i, []).append((u, idx))
        in_col.setdefault(u, []).append((i, idx))

    equations: dict[tuple[int, int, int], dict[int, Fraction]] = {}
    for g, (l, r) in enumerate(general_pairs):
        for i, lrow in enumerate(l.rows):
            for k, c in lrow.items():
                for u, idx in in_row.get(k, ()):
                    row = equations.setdefault((g, i, u), {})
                    row[idx] = row.get(idx, 0) + c
        for u, rcol in enumerate(r.cols()):
            for v, c in rcol.items():
                for i, idx in in_col.get(v, ()):
                    row = equations.setdefault((g, i, u), {})
                    row[idx] = row.get(idx, 0) - c

    # drop the entries where L and R cancel: a 0 left behind would pass for the row's lead
    rows = [{j: c for j, c in row.items() if c} for row in equations.values()]
    rows = [r for r in rows if r]
    result = solve_sparse_system(rows, len(support), mode=mode, want_kernel=want_kernel)
    return result, support


@dataclass
class MatrixSpan:
    """A subspace of d x d matrices with an exactly independent basis."""

    d: int
    basis: list[LinOp]
    rref: ExactRref

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_matrices(cls, mats: Iterable, d: int) -> "MatrixSpan":
        acc = ExactRref(d * d)
        kept = []
        for m in mats:
            op = _as_linop(m, d)
            if acc.insert(op.entries()):
                kept.append(op)
        return cls(d, kept, acc)

    def contains_matrix(self, m) -> bool:
        return self.rref.contains(_as_linop(m, self.d).entries())


def commutant(
    gens: Sequence,
    d: int,
    mode: str = "auto",
    want_basis: bool = True,
    unknown_cap: int = DEFAULT_UNKNOWN_CAP,
) -> tuple[MatrixSpan | None, SolveResult]:
    """Basis (and dimensions) of { X : X g == g X for every generator }.

    With no generators this is the full matrix algebra.  The kernel comes
    back as a MatrixSpan when exact vectors are available; the modular
    mode, which no verify route passes, returns dimensions only.
    """
    ops = [_as_linop(g, d) for g in gens]
    result, support = intertwiner_kernel(ops, ops, d, d, mode=mode, want_kernel=want_basis,
                                         unknown_cap=unknown_cap)
    span = None
    if want_basis and result.kernel is not None:
        basis = []
        for vec in result.kernel:
            rows: list[dict] = [{} for _ in range(d)]
            for k, x in vec.items():
                i, j = support[k]
                rows[i][j] = x
            basis.append(LinOp(d, rows))
        span = MatrixSpan.from_matrices(basis, d)
        if span.dim != result.nullity:
            raise ArithmeticError("kernel vectors were not independent")
    return span, result


# ---------------------------------------------------------------------------
# commutant of torus-graded generator families, one solve per distinct block

def graded_commutant_dim(
    gens: Sequence,
    weights: Sequence[tuple],
    mode: str = "modular",
) -> tuple[int, str]:
    """Dimension of the commutant of weight-preserving generators (``LinOp``s or arrays).

    ``weights[i]`` grades the i-th basis vector; because every generator
    preserves the grading, the commutant equations split into independent
    blocks indexed by pairs of weight classes, each of which stays small
    even when the ambient matrix space is far too large to eliminate
    directly.  A block's nullity depends only on the generators restricted
    to its two classes, read from the sparse rows into integer (k, a, a)
    arrays and keyed once; each distinct pair of keys is solved once
    (``_graded_total``): under ``mode='modular'`` on the residues of those
    small blocks by ``kernel_modp_dense``, modulo two primes that agree;
    under ``mode='exact'`` by ``solve_sparse_system``.  Each block is
    solved in its own field, so keys finer over Z than mod p change no total.
    """
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown graded mode {mode!r}; choose 'exact' or 'modular'")
    if not gens:
        raise ValueError("need at least one generator")
    d = len(weights)
    # each generator scaled once to integers: the same commutant
    ints = [_int_scaled(_as_linop(g, d).entries())[1] for g in gens]
    if any(weights[k // d] != weights[k % d] for e in ints for k in e):
        raise ValueError("generator is not weight-homogeneous of weight zero")
    classes: dict[tuple, list[int]] = {}
    for i, w in enumerate(weights):
        classes.setdefault(w, []).append(i)
    kinds: dict[tuple, list] = {}  # key -> [classes with this key, restricted generators]
    for c in classes.values():
        g = np.array([[[e.get(i * d + j, 0) for j in c] for i in c] for e in ints], dtype=object)
        kinds.setdefault((len(c), *g.ravel().tolist()), [0, g])[0] += 1
    if mode == "exact":
        return _graded_total(kinds.values(), lambda m: solve_sparse_system(
            rows_from_dense(m), m.shape[1], mode="exact", want_kernel=False).nullity), "exact"

    def modular_total(p: int) -> int:
        return _graded_total([(count, mat_to_modp(g, p)) for count, g in kinds.values()],
                             lambda m: len(kernel_modp_dense(m, p)))

    (p1, total), (p2, _) = _agreeing_primes(modular_total, 2, lambda t: t)
    return total, f"mod-p({p1},{p2})"


def _graded_total(blocks, nullity) -> int:
    """Sum over pairs of weight classes (I, J) of the dimension of
    { X in Hom(J, I) : g X == X g for every generator }.

    ``blocks`` holds one ``(count, g)`` per class key: how many classes
    have that key, and the (k, a, a) integer generators restricted to one
    of them, or their residues.  The block of two classes depends only
    on their keys, so each pair of keys is solved once, its equations
    (generators stacked by rows) forming one (k*a*b, a*b) matrix, and
    ``nullity(matrix)`` counts once per pair of classes it stands for; one
    loop serves both the exact and the modular arithmetic.
    """
    total = 0
    for (count_i, g_i), (count_j, g_j) in itertools.product(blocks, repeat=2):
        k, a, b = *g_i.shape[:2], g_j.shape[-1]
        # row (g, i, j), column (i', j'): g_I[i, i'] [j == j'] - [i == i'] g_J[j', j]
        eqs = np.zeros((k, a, b, a, b), dtype=g_i.dtype)
        for j in range(b):
            eqs[:, :, j, :, j] = g_i
        for i in range(a):
            eqs[:, i, :, i, :] -= g_j.swapaxes(1, 2)
        total += count_i * count_j * nullity(eqs.reshape(k * a * b, a * b))
    return total


# ---------------------------------------------------------------------------
# unital algebra closure

def saturate(start: Iterable, gens: Sequence, multiply, take) -> list:
    """Frontier saturation under left multiplication by ``gens``.

    Each element of ``start`` is offered to ``take``; the accepted ones
    form the first frontier.  Each round then offers ``multiply(g, b)``
    for every generator ``g`` and frontier element ``b``, and the accepted
    products form the next frontier.  ``take(candidate) -> bool`` is the
    membership rule: it returns True for a candidate outside the span
    built so far and adds it to that span.  Returns the accepted elements
    in order.
    """
    frontier = [x for x in start if take(x)]
    kept = list(frontier)
    while frontier:
        frontier = [prod for g in gens for b in frontier
                    if take(prod := multiply(g, b))]
        kept += frontier
    return kept


def algebra_closure(
    seed: Sequence,
    d: int,
    bound: int | None = None,
) -> MatrixSpan:
    """Smallest unital matrix algebra containing the seed operators.

    One saturation under left multiplication by the seed, which reaches
    every word in the generators, forms each candidate product once, and
    the exact echelon form of the returned span decides its membership.

    ``bound``, if given, must be a proven upper bound on the dimension of
    the closure.  The saturation then runs first on int64 residues modulo
    ``p = DEFAULT_PRIMES[0]`` alone, each kept residue recorded as a word
    (a start element, or a seed operator times an earlier kept word).  On
    p-integral matrices reduction mod p is a ring homomorphism, so words
    whose residues are independent mod p are independent over Q, and
    their count is a lower bound on the dimension.  Saturation stops
    taking candidates at ``bound`` kept words, which are then a basis;
    only they are multiplied out exactly, and one that is exactly
    dependent (a broken reduction) raises ArithmeticError.  If fewer
    residues are kept, the seed does not reduce mod p, or d is too large
    for an int64 matrix product of residues, the exact saturation above runs.
    """
    seed = [_as_linop(m, d) for m in seed]
    start = [LinOp(d, [{i: 1} for i in range(d)])] + seed
    if bound is not None:
        span = _bounded_closure(start, d, DEFAULT_PRIMES[0], bound)
        if span is not None:
            return span
    span = MatrixSpan(d, [], ExactRref(d * d))

    def take(op: LinOp) -> bool:
        if not span.rref.insert(op.entries()):
            return False
        span.basis.append(op)
        if span.dim > CLOSURE_DIM_CAP:
            raise CapExceededError(f"closure dimension exceeds cap {CLOSURE_DIM_CAP}")
        return True

    saturate(start, seed, LinOp.__matmul__, take)
    return span


def _bounded_closure(start: list[LinOp], d: int, p: int, bound: int) -> MatrixSpan | None:
    """The closure of ``start`` (the identity, then the seed) from a
    saturation on residues mod p, as ``algebra_closure`` describes, or
    None where that falls back to the exact saturation."""
    if d * (p - 1) ** 2 > 2 ** 63 - 1:
        return None
    try:
        residues = [mat_to_modp(m, p) for m in start]
    except ZeroDivisionError:
        return None
    screen = ModRref(d * d, p)
    # kept words -> their position: (None, i) is start[i], (g, k) is the
    # seed operator start[g + 1] times the k-th kept word
    words: dict[tuple, int] = {}

    def multiply(gen, cand):
        g, g_res = gen
        return g_res @ cand[0] % p, (g, words[cand[1]])

    def take(cand) -> bool:
        if len(words) == bound or not screen.insert(cand[0].reshape(-1)):
            return False
        words[cand[1]] = len(words)
        if len(words) > CLOSURE_DIM_CAP:
            raise CapExceededError(f"closure dimension exceeds cap {CLOSURE_DIM_CAP}")
        return True

    saturate([(r, (None, i)) for i, r in enumerate(residues)],
             list(enumerate(residues[1:])), multiply, take)
    if len(words) < bound:
        return None
    ops: list[LinOp] = []
    for g, k in words:
        ops.append(start[k] if g is None else start[g + 1] @ ops[k])
    span = MatrixSpan.from_matrices(ops, d)
    if span.dim < len(ops):
        raise ArithmeticError("words independent modulo p are exactly dependent")
    return span


def span_equal(a: MatrixSpan, b: MatrixSpan) -> bool:
    """Exact equality of two matrix spans: equal finite dimensions and
    ``a`` contained in ``b``."""
    if a.d != b.d:
        raise ValueError(f"ambient dimensions differ: {a.d} vs {b.d}")
    return a.dim == b.dim and all(b.contains_matrix(m) for m in a.basis)
