"""Exact linear algebra over Q with a certified modular fast path.

Small systems are solved directly with exact int/Fraction arithmetic
over sparse rows.  Larger systems are eliminated modulo one word-sized
prime, and the modular answer is certified exactly:

* a modular rank is always a lower bound on the exact rank (a nonzero
  minor mod p is nonzero over Q), and
* the modular kernel vectors are lifted by rational reconstruction
  modulo that prime and verified exactly against the original
  equations, in integer arithmetic after scaling out the denominators.

The verified kernel dimension and the modular rank then add up to the
number of unknowns, so both bounds are tight and the result is exact.
When the lift or its check fails (an unlucky prime or a large entry),
the exact engine answers instead.  Uncertified modular counts use two
primes that agree on the result; a prime that disagrees is skipped.  The
primes are fixed here and nowhere else: every modular route walks
``DEFAULT_PRIMES`` and then ``EXTRA_PRIMES``.  The method tag records
which route produced a number: ``exact``, ``mod-p(p1,p2)`` (naming the
two primes used) or ``mod-p-confirmed-exact``.
"""
from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

import numpy as np

from .diagrams import CapExceededError
from .ring import exactify, fraction_from_str, fraction_to_str

# Primes just below 2**25: a product of two residues is below 2**50, and
# an int64 sum holds (2**63 - 1) // (p - 1)**2 of them (8192 at these
# primes).  Longer sums are reduced mod p in chunks of that length
# (``_matmul_mod``), so larger primes and longer rows stay exact too.
DEFAULT_PRIMES = (33554393, 33554383)
EXTRA_PRIMES = (33554371, 33554347, 33554341, 33554317, 33554291, 33554273)

MODES = ("auto", "exact", "modular")

EXACT_UNKNOWN_CAP = 300       # mode 'auto' takes the certified modular route above this
DEFAULT_UNKNOWN_CAP = 65536   # refuse plainly oversized systems
CLOSURE_DIM_CAP = 4096        # refuse an algebra closure of larger dimension


# ---------------------------------------------------------------------------
# dense exact matrices (numpy object arrays holding Fractions / ints)

def frac_matrix(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = exactify(v)
    return out


def zeros_matrix(nrows: int, ncols: int) -> np.ndarray:
    out = np.empty((nrows, ncols), dtype=object)
    out[:] = 0
    return out


def identity_matrix(d: int) -> np.ndarray:
    out = zeros_matrix(d, d)
    for i in range(d):
        out[i, i] = 1
    return out


def matrices_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def _residue(q, p: int, cache: dict) -> int:
    r = cache.get(q)
    if r is None:
        den = q.denominator % p
        if den == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {p}")
        r = (q.numerator % p) * pow(den, p - 2, p) % p
        cache[q] = r
    return r


def mat_to_modp(mat: np.ndarray, p: int) -> np.ndarray:
    """Reduce an exact matrix mod p.  Denominators divisible by p are a
    hard error; callers escalate to another prime."""
    out = np.zeros(mat.shape, dtype=np.int64)
    cache: dict = {}
    dst = out.reshape(-1)
    for k, q in _nonzeros(mat).items():
        dst[k] = _residue(q, p, cache)
    return out


def _sum_terms(p: int) -> int:
    """How many products of two residues mod p one int64 sum can hold."""
    return (2 ** 63 - 1) // (p - 1) ** 2


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``a @ b mod p`` for int64 arrays of residues mod p.  The products
    are summed at most ``_sum_terms(p)`` at a time, with a reduction after
    each chunk, so no int64 sum wraps."""
    step = _sum_terms(p)
    if a.shape[-1] <= step:
        return a @ b % p
    out = a[..., :step] @ b[..., :step, :] % p
    for s in range(step, a.shape[-1], step):
        out += a[..., s:s + step] @ b[..., s:s + step, :] % p
        out %= p
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


# ---------------------------------------------------------------------------
# exact reduced row echelon form

class ExactRref:
    """Incremental reduced row echelon form over Q, on sparse rows.

    Rows (sequences or ``{col: value}`` dicts) are inserted one at a time;
    the structure keeps a fully reduced set of pivot rows (leading
    coefficient 1, pivot columns cleared in all other rows) with
    deterministic leftmost pivoting, ``rows`` sorted by pivot column.
    Each pivot row is a ``{col: value}`` dict of its nonzeros, values plain
    ``int`` wherever the denominator is 1, and ``_row_of`` maps a pivot
    column to its row.  A row is reduced by subtracting ``v[pc] * row``
    once for each pivot column ``pc`` it touches, over that pivot row's
    nonzeros only: the pivot rows are fully reduced, so no subtraction
    touches another pivot column and the order of the hits is free.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: list[dict[int, int | Fraction]] = []
        self.pivot_cols: list[int] = []
        self._row_of: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduced(self, row) -> dict:
        items = row.items() if isinstance(row, dict) else enumerate(row)
        v = {j: exactify(x) for j, x in items if x}
        row_of = self._row_of
        for pc in [j for j in v if j in row_of]:
            _sub_multiple(v, v[pc], row_of[pc])
        return v

    def reduce(self, row) -> list:
        """Residue of ``row`` after clearing every pivot column (dense)."""
        return dense_from_rows([self._reduced(row)], self.ncols)[0].tolist()

    def insert(self, row) -> bool:
        """Reduce and keep ``row``; True if it added a new pivot."""
        v = self._reduced(row)
        if not v:
            return False
        pc = min(v)
        lead = v[pc]
        if lead != 1:
            inv = Fraction(1) / lead
            v = {j: exactify(x * inv) for j, x in v.items()}
        for prow in self.rows:
            c = prow.get(pc)
            if c:
                _sub_multiple(prow, c, v)
        at = bisect.bisect(self.pivot_cols, pc)
        self.rows.insert(at, v)
        self.pivot_cols.insert(at, pc)
        self._row_of[pc] = v
        return True

    def contains(self, row) -> bool:
        return not self._reduced(row)

    def kernel_basis(self) -> list[list[Fraction]]:
        """Kernel of the row span seen as a matrix, one vector per free
        column, in free-column order."""
        out = {f: [0] * self.ncols for f in range(self.ncols) if f not in self._row_of}
        for f, vec in out.items():
            vec[f] = 1
        for pc, prow in zip(self.pivot_cols, self.rows):
            for j, x in prow.items():
                if j != pc:
                    out[j][pc] = -x
        return list(out.values())


def _sub_multiple(v: dict, c, row: dict) -> None:
    """``v -= c * row`` in place, dropping zeros; integers stay ints."""
    for j, x in row.items():
        s = v.get(j, 0) - c * x
        if s:
            v[j] = s if type(s) is int else exactify(s)
        else:
            del v[j]


def rref(mat) -> tuple[int, np.ndarray, tuple[int, ...]]:
    """Exact reduced row echelon form.

    Returns (rank, reduced matrix of the same shape, pivot columns).
    Pivoting is deterministic: leftmost nonzero entry, rows in order.
    """
    arr = mat if isinstance(mat, np.ndarray) else frac_matrix(mat)
    nrows, ncols = arr.shape
    acc = ExactRref(ncols)
    for i in range(nrows):
        acc.insert(_nonzeros(arr[i]))
    rows = acc.rows + [{}] * (nrows - acc.rank)
    return acc.rank, dense_from_rows(rows, ncols), tuple(acc.pivot_cols)


def nullspace_exact(rows: Iterable[Sequence], ncols: int) -> list[list[Fraction]]:
    acc = ExactRref(ncols)
    for row in rows:
        acc.insert(row)
    return acc.kernel_basis()


# ---------------------------------------------------------------------------
# modular echelon form (int64 numpy, single prime)

class ModRref:
    """Streaming reduced row echelon form over GF(p), single or batched.

    Pivot rows are kept in insertion order in one preallocated int64
    table, so a new pivot never moves an older row: incoming rows reduce
    with a single mat-vec, and a new pivot only rewrites the rows that
    have a nonzero in its column.  Every pivot row has leading entry 1 and
    is zero in every other pivot column (a reduced echelon form up to the
    order of its rows).

    ``batch=None`` keeps one form and ``insert`` takes one row.  With
    ``batch=B`` the object keeps B independent forms over the same columns:
    ``insert`` takes a (B, ncols) array, one row per form, and reduces all
    B forms in one vectorized step; ``rank`` is then a length-B array.
    """

    def __init__(self, ncols: int, p: int, *, batch: int | None = None):
        self.ncols = ncols
        self.p = p
        self._step = _sum_terms(p)
        self.batch = batch
        lead = () if batch is None else (batch,)
        self._rows = np.zeros(lead + (ncols, ncols), dtype=np.int64)
        self._pivots = np.zeros(lead + (ncols,), dtype=np.int64)
        self._pivot_row: dict[int, int] = {}  # single form: column -> row
        self._form_ix = () if batch is None else (np.arange(batch)[:, None],)
        self._top = 0  # the highest rank of any form
        self.rank = 0 if batch is None else np.zeros(batch, dtype=np.int64)

    def reduce(self, v: np.ndarray) -> np.ndarray:
        """Residue of ``v`` (one row per form) after clearing every pivot
        column.  A form of lower rank than the others has zero rows past
        its rank, so they contribute nothing."""
        v = np.mod(v, self.p)
        top = self._top
        if top:
            coeffs = v[self._form_ix + (self._pivots[..., :top],)]
            if coeffs.any():
                v -= _matmul_mod(coeffs[..., None, :], self._rows[..., :top, :],
                                 self.p)[..., 0, :]
                np.mod(v, self.p, out=v)
        return v

    def _install(self, v: np.ndarray) -> bool:
        if self.batch is not None:
            return self._install_batch(v)
        nz = np.flatnonzero(v)
        if nz.size == 0:
            return False
        pc = int(nz[0])
        p, r = self.p, self.rank
        v = v * pow(int(v[pc]), p - 2, p) % p
        hit = np.flatnonzero(self._rows[:r, pc])
        if hit.size:
            rows = self._rows[hit]
            rows -= rows[:, pc, None] * v
            self._rows[hit] = np.mod(rows, p, out=rows)
        self._rows[r] = v
        self._pivots[r] = pc
        self._pivot_row[pc] = r
        self.rank = self._top = r + 1
        return True

    def _install_batch(self, v: np.ndarray) -> bool:
        nz = v != 0
        grows = nz.any(axis=1)
        if not grows.any():
            return False
        p, top = self.p, self._top
        pcs = nz.argmax(axis=1)
        every = np.arange(self.batch)
        lead = v[every, pcs].tolist()
        inv = np.array([pow(x, p - 2, p) if x else 0 for x in lead], dtype=np.int64)
        # A form that gains no pivot has v == 0, so these updates leave it alone.
        v = v * inv[:, None] % p
        if top:
            rows = self._rows[:, :top]
            rows -= rows[every, :, pcs][:, :, None] * v[:, None, :]
            np.mod(rows, p, out=rows)
        if grows.all() and self.rank.min() == top:
            # every form grows from the same rank: basic slices suffice
            self._rows[:, top] = v
            self._pivots[:, top] = pcs
        else:
            forms = np.flatnonzero(grows)
            at = self.rank[forms]
            self._rows[forms, at] = v[forms]
            self._pivots[forms, at] = pcs[forms]
        self.rank += grows
        self._top = int(self.rank.max())
        return True

    def insert(self, v: np.ndarray) -> bool:
        """Reduce and keep ``v``; True if some form gained a pivot."""
        return self._install(self.reduce(v))

    def insert_sparse(self, items) -> bool:
        """Insert a row given as (column, residue) pairs (single form).

        Because the pivot rows are fully reduced, the only pivot rows
        that can interact with a sparse row are those whose pivot column
        the row actually touches; one pass over the nonzero entries
        reduces it completely.  The subtractions are reduced mod p in
        chunks of ``_sum_terms(p)`` hits, so no int64 entry wraps.
        """
        v = np.zeros(self.ncols, dtype=np.int64)
        hits = []
        for col, val in items:
            val %= self.p
            v[col] = val
            if val:
                row = self._pivot_row.get(col)
                if row is not None:
                    hits.append((row, val))
        step = self._step
        for start in range(0, len(hits), step):
            for row, val in hits[start:start + step]:
                v = v - val * self._rows[row]
            v = np.mod(v, self.p)
        return self._install(v)

    @property
    def pivot_cols(self):
        """Pivot columns in increasing order; one tuple per form when
        batched."""
        if self.batch is None:
            return tuple(sorted(self._pivots[: self.rank].tolist()))
        return [tuple(sorted(piv[:r].tolist()))
                for piv, r in zip(self._pivots, self.rank.tolist())]

    def kernel_basis(self) -> np.ndarray:
        """The kernel of the row span seen as a matrix, one vector per free
        column.

        Single form: the vectors are the columns of an (ncols x nullity)
        array, in free-column order.  Batched: a (B, ncols, ncols) array
        whose column f of form b is the kernel vector of free column f,
        and zero when f is a pivot column of b; the nonzero columns of a
        form, in order, are its kernel.
        """
        p, n = self.p, self.ncols
        if self.batch is None:
            pivs = self._pivots[: self.rank]
            free = np.setdiff1d(np.arange(n), pivs)
            out = np.zeros((n, free.size), dtype=np.int64)
            out[free, np.arange(free.size)] = 1
            out[pivs] = np.mod(-self._rows[: self.rank][:, free], p)
            return out
        forms, rows = np.nonzero(np.arange(n) < self.rank[:, None])
        pivs = self._pivots[forms, rows]
        free = np.ones((self.batch, n), dtype=bool)
        free[forms, pivs] = False
        out = np.zeros((self.batch, n, n), dtype=np.int64)
        out[:, np.arange(n), np.arange(n)] = free
        out[forms, pivs] = np.mod(-self._rows[forms, rows] * free[forms], p)
        return out


def kernel_modp_dense(mat: np.ndarray, p: int) -> np.ndarray:
    """Kernel of a dense int64 matrix over GF(p), or of each matrix of a
    (B, m, n) stack at once; the result is laid out as
    ``ModRref.kernel_basis`` describes for the single and batched form."""
    acc = ModRref(mat.shape[-1], p, batch=None if mat.ndim == 2 else mat.shape[0])
    for i in range(mat.shape[-2]):
        if np.all(acc.rank == acc.ncols):
            break
        acc.insert(mat[..., i, :])
    return acc.kernel_basis()


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
    kernel: list[list[Fraction]] | None
    method: str


def _int_scaled(values) -> list[int]:
    """``values`` (ints and Fractions) times the lcm of their denominators."""
    scale = lcm(*(q.denominator for q in values))
    return [q.numerator * (scale // q.denominator) for q in values]


def _kernel_vanishes(rows: list[dict[int, Fraction]], kernel: list[list]) -> bool:
    """Exact test of ``A K == 0`` for sparse equation rows and kernel
    vectors.  Each row and each vector is scaled once to integers by the
    lcm of its denominators; nonzero scales do not change which entries
    of the product vanish, and the product itself is sparse int
    arithmetic over the nonzeros of K's rows."""
    k_rows: dict[int, list[tuple[int, int]]] = {}
    for k, vec in enumerate(kernel):
        for j, x in enumerate(_int_scaled(vec)):
            if x:
                k_rows.setdefault(j, []).append((k, x))
    for row in rows:
        acc: dict[int, int] = {}
        for j, c in zip(row, _int_scaled(row.values())):
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

    Mode 'exact' eliminates in exact arithmetic at every size.  Mode
    'auto' does so up to ``EXACT_UNKNOWN_CAP`` unknowns; above it, it
    eliminates modulo one prime and certifies the result by an exactly
    checked lift of the kernel (see the module docstring), falling back
    to exact elimination when the lift or its check fails.  Both return
    unconditionally exact answers.  Mode 'modular' skips certification
    and reports the dimensions on which two primes agree.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")

    def eliminate(p: int) -> ModRref:
        acc = ModRref(ncols, p)
        cache: dict = {}
        for row in rows:
            acc.insert_sparse([(j, _residue(c, p, cache)) for j, c in row.items()])
        return acc

    if mode == "modular":
        (p1, acc), (p2, _) = _agreeing_primes(eliminate, 2, lambda t: (t.rank, t.pivot_cols))
        return SolveResult(ncols - acc.rank, acc.rank, None, f"mod-p({p1},{p2})")
    if mode == "auto" and ncols > EXACT_UNKNOWN_CAP:
        # The lifted vectors are independent (one per free column) and
        # checked exactly, so the exact nullity is at least the modular
        # one, which is never below it: the two are equal.
        ((p, acc),) = _agreeing_primes(eliminate, 1, lambda t: None)
        kernel = [[rational_reconstruct(a, p) for a in vec]
                  for vec in acc.kernel_basis().T.tolist()]
        if not any(None in vec for vec in kernel) and _kernel_vanishes(rows, kernel):
            return SolveResult(ncols - acc.rank, acc.rank, kernel if want_kernel else None,
                               "mod-p-confirmed-exact")
    acc = ExactRref(ncols)
    for row in rows:
        acc.insert(row)
    kernel = acc.kernel_basis() if want_kernel else None
    return SolveResult(ncols - acc.rank, acc.rank, kernel, "exact")


# ---------------------------------------------------------------------------
# operators and intertwiner systems

class LinOp:
    """Exact operator normal form: sparse rows over a fixed dimension."""

    def __init__(self, dim: int, rows: list[dict[int, Fraction]]):
        self.dim = dim
        self.rows = rows
        self._cols: list[dict[int, Fraction]] | None = None

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "LinOp":
        if mat.shape[1] != mat.shape[0]:
            raise ValueError("operator must be square")
        return cls(mat.shape[0], rows_from_dense(mat))

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
    if isinstance(op, LinOp):
        if op.dim != dim:
            raise ValueError(f"operator dimension {op.dim} != {dim}")
        return op
    return LinOp.from_dense(op)


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
    the entry set where the diagonals agree, which is what keeps the big
    weight-graded systems small.  Returns the solve result together with
    the list of (row, col) unknowns the kernel vectors refer to.
    """
    if len(left_ops) != len(right_ops):
        raise ValueError("need one right operator per left operator")
    pairs = [(_as_linop(l, dim_w), _as_linop(r, dim_u))
             for l, r in zip(left_ops, right_ops)]

    diag_pairs = []
    general_pairs = []
    for l, r in pairs:
        dl, dr = l.diagonal_vector(), r.diagonal_vector()
        if dl is not None and dr is not None:
            diag_pairs.append((dl, dr))
        else:
            general_pairs.append((l, r))

    support = [(i, u) for i in range(dim_w) for u in range(dim_u)
               if all(dl[i] == dr[u] for dl, dr in diag_pairs)]
    if len(support) > unknown_cap:
        raise CapExceededError(
            f"{len(support)} unknowns exceed the solver cap {unknown_cap}; "
            f"raise it with --solver-cap")
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

    rows = [equations[key] for key in sorted(equations)]
    rows = [r for r in rows if r]
    result = solve_sparse_system(rows, len(support), mode=mode, want_kernel=want_kernel)
    return result, support


@dataclass
class MatrixSpan:
    """A subspace of d x d matrices with an exactly independent basis."""

    d: int
    basis: list[np.ndarray]
    rref: ExactRref

    @property
    def dim(self) -> int:
        return len(self.basis)

    @classmethod
    def from_matrices(cls, mats: Iterable[np.ndarray], d: int) -> "MatrixSpan":
        acc = ExactRref(d * d)
        kept = []
        for m in mats:
            if m.shape != (d, d):
                raise ValueError(f"expected {d}x{d} matrices, got {m.shape}")
            if acc.insert(_nonzeros(m)):
                kept.append(m)
        return cls(d, kept, acc)

    def contains_matrix(self, m: np.ndarray) -> bool:
        return self.rref.contains(_nonzeros(m))


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
    mode returns dimensions only.
    """
    ops = [_as_linop(g, d) for g in gens]
    result, support = intertwiner_kernel(ops, ops, d, d, mode=mode, want_kernel=want_basis,
                                         unknown_cap=unknown_cap)
    span = None
    if want_basis and result.kernel is not None:
        mats = []
        for vec in result.kernel:
            m = zeros_matrix(d, d)
            for k, (i, j) in enumerate(support):
                if vec[k]:
                    m[i, j] = vec[k]
            mats.append(m)
        span = MatrixSpan.from_matrices(mats, d)
        if span.dim != result.nullity:
            raise ArithmeticError("kernel vectors were not independent")
    return span, result


# ---------------------------------------------------------------------------
# chunked modular commutant for torus-graded dense generator families

_STACK_ENTRIES = 1 << 20  # entries of one stack of block equations (at least one block)


def _check_weight_zero(gens: Sequence[np.ndarray], labels: np.ndarray):
    _, i, j = np.nonzero(np.stack(gens) != 0)
    if (labels[i] != labels[j]).any():
        raise ValueError("generator is not weight-homogeneous of weight zero")


def graded_commutant_dim(
    gens: Sequence[np.ndarray],
    weights: Sequence[tuple],
    mode: str = "modular",
) -> tuple[int, str]:
    """Dimension of the commutant of weight-preserving dense generators.

    ``weights[i]`` grades the i-th basis vector; because every generator
    preserves the grading, the commutant equations split into independent
    blocks indexed by pairs of weight classes, each of which stays small
    even when the ambient matrix space is far too large to eliminate
    directly.  Blocks of the same shape are solved together: their
    equations form one stack, eliminated by one batched kernel call per
    chunk of the stack (``kernel_modp_dense``) under ``mode='modular'``;
    under ``mode='exact'`` each block's nullity is counted from its exact
    rank.
    """
    if mode not in ("exact", "modular"):
        raise ValueError(f"unknown graded mode {mode!r}; choose 'exact' or 'modular'")
    if not gens:
        raise ValueError("need at least one generator")
    d = gens[0].shape[0]
    if len(weights) != d:
        raise ValueError("need one weight per basis vector")
    keys = sorted(set(weights))
    label_of = {w: c for c, w in enumerate(keys)}
    labels = np.array([label_of[w] for w in weights])
    _check_weight_zero(gens, labels)
    classes = [np.flatnonzero(labels == c) for c in range(len(keys))]
    if mode == "exact":
        return _graded_total(np.stack(gens), classes, _nullity_exact, lambda m: m), "exact"

    def modular_total(p: int) -> int:
        gens_p = np.stack([mat_to_modp(g, p) for g in gens])
        return _graded_total(gens_p, classes, lambda m: kernel_modp_dense(m, p).any(axis=1).sum(),
                             lambda m: np.mod(m, p, out=m))

    (p1, total), (p2, _) = _agreeing_primes(modular_total, 2, lambda t: t)
    return total, f"mod-p({p1},{p2})"


def _graded_total(gens: np.ndarray, classes, nullity, reduce) -> int:
    """Sum over pairs of weight classes (I, J) of the dimension of
    { X in Hom(J, I) : g X == X g for every generator }.

    ``gens`` is a (k, d, d) stack.  For every pair of class sizes (a, b)
    the equations of all blocks of that shape are built at once as a
    (blocks, k*a*b, a*b) stack, generators stacked by rows.
    ``nullity(stack)`` returns the summed nullity of the blocks of a
    stack and ``reduce`` brings an array to normal form, so one loop
    serves both the exact and the modular arithmetic.
    """
    k = gens.shape[0]
    diag = {}  # diag[a][c, g] is generator g restricted to the c-th class of size a
    for a in sorted({c.size for c in classes}):
        ix = np.stack([c for c in classes if c.size == a])
        diag[a] = gens[:, ix[:, :, None], ix[:, None, :]].swapaxes(0, 1)
    total = 0
    for a, b in itertools.product(diag, repeat=2):
        ga, gb = diag[a], diag[b].swapaxes(-1, -2)
        nblocks = len(ga) * len(gb)
        chunk = max(1, _STACK_ENTRIES // (k * (a * b) ** 2))
        for start in range(0, nblocks, chunk):
            left, right = np.divmod(np.arange(start, min(nblocks, start + chunk)), len(gb))
            g_left, g_right = ga[left], gb[right]
            # row (g, i, j), column (i', j'): g[i, i'] [j == j'] - [i == i'] g[j', j]
            eqs = np.zeros((left.size, k, a, b, a, b), dtype=gens.dtype)
            for j in range(b):
                eqs[:, :, :, j, :, j] = g_left
            for i in range(a):
                eqs[:, :, i, :, i, :] -= g_right
            total += int(nullity(reduce(eqs.reshape(left.size, k * a * b, a * b))))
    return total


def _nullity_exact(stack: np.ndarray) -> int:
    """Summed exact nullity of the matrices of a (B, m, n) stack."""
    total = 0
    for mat in stack:
        acc = ExactRref(stack.shape[-1])
        # repeated equations (common with permutation generators) add nothing
        for row in dict.fromkeys(map(tuple, mat.tolist())):
            if acc.rank == acc.ncols:
                break
            acc.insert(row)
        total += acc.ncols - acc.rank
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
    seed: Sequence[np.ndarray],
    d: int,
    bound: int | None = None,
) -> MatrixSpan:
    """Smallest unital matrix algebra containing the seed matrices.

    One saturation under left multiplication by the seed, which reaches
    every word in the generators, forms each candidate product once, and
    the exact echelon form of the returned span decides its membership.

    ``bound``, if given, must be a proven upper bound on the dimension of
    the closure.  The saturation then runs first on int64 residues modulo
    ``p = DEFAULT_PRIMES[0]`` alone, each kept residue recorded as a word
    (a start element, or a seed matrix times an earlier kept word).  On
    p-integral matrices reduction mod p is a ring homomorphism, so words
    whose residues are independent mod p are independent over Q, and
    their count is a lower bound on the dimension.  Saturation stops
    taking candidates at ``bound`` kept words, which are then a basis;
    only they are multiplied out exactly, and one that is exactly
    dependent (a broken reduction) raises ArithmeticError.  If fewer
    residues are kept, or the seed does not reduce mod p, the exact
    saturation above runs.
    """
    seed = list(seed)
    for m in seed:
        if m.shape != (d, d):
            raise ValueError(f"expected {d}x{d} matrices, got {m.shape}")
    start = [identity_matrix(d)] + seed
    if bound is not None:
        span = _bounded_closure(start, d, DEFAULT_PRIMES[0], bound)
        if span is not None:
            return span
    span = MatrixSpan(d, [], ExactRref(d * d))

    def take(mat: np.ndarray) -> bool:
        if not span.rref.insert(_nonzeros(mat)):
            return False
        span.basis.append(mat)
        if span.dim > CLOSURE_DIM_CAP:
            raise CapExceededError(f"closure dimension exceeds cap {CLOSURE_DIM_CAP}")
        return True

    saturate(start, seed, np.matmul, take)
    return span


def _bounded_closure(start: list, d: int, p: int, bound: int) -> MatrixSpan | None:
    """The closure of ``start`` (the identity, then the seed) from a
    saturation on residues mod p, as ``algebra_closure`` describes, or
    None when the seed does not reduce mod p or fewer than ``bound``
    residues come out independent."""
    try:
        residues = [mat_to_modp(m, p) for m in start]
    except ZeroDivisionError:
        return None
    screen = ModRref(d * d, p)
    # kept words -> their position: (None, i) is start[i], (g, k) is the
    # seed matrix start[g + 1] times the k-th kept word
    words: dict[tuple, int] = {}

    def multiply(gen, cand):
        g, g_res = gen
        return _matmul_mod(g_res, cand[0], p), (g, words[cand[1]])

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
    mats: list[np.ndarray] = []
    for g, k in words:
        mats.append(start[k] if g is None else start[g + 1] @ mats[k])
    span = MatrixSpan.from_matrices(mats, d)
    if span.dim < len(mats):
        raise ArithmeticError("words independent modulo p are exactly dependent")
    return span


def span_equal(a: MatrixSpan, b: MatrixSpan) -> bool:
    """Exact equality of two matrix spans: equal finite dimensions and
    ``a`` contained in ``b``."""
    if a.d != b.d:
        raise ValueError(f"ambient dimensions differ: {a.d} vs {b.d}")
    return a.dim == b.dim and all(b.contains_matrix(m) for m in a.basis)


# ---------------------------------------------------------------------------
# matrix JSON export

def matrix_to_json(mat: np.ndarray, sparse: bool = False):
    """Dense: 2-d array of 'p/q' strings.  Sparse: explicit entry list."""
    nrows, ncols = mat.shape
    if not sparse:
        return [[fraction_to_str(mat[i, j]) for j in range(ncols)]
                for i in range(nrows)]
    entries = []
    for i in range(nrows):
        for j in range(ncols):
            v = Fraction(mat[i, j])
            if v:
                entries.append([i, j, fraction_to_str(v)])
    return {"rows": nrows, "cols": ncols, "entries": entries}


def matrix_from_json(obj) -> np.ndarray:
    if isinstance(obj, dict):
        out = zeros_matrix(obj["rows"], obj["cols"])
        for i, j, s in obj["entries"]:
            out[i, j] = fraction_from_str(s)
        return out
    return frac_matrix([[fraction_from_str(s) for s in row] for row in obj])
