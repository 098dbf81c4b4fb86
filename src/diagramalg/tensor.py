"""Exact matrices for diagram algebras and Lie algebras on tensor space.

Conventions, fixed once and pinned by the multiplicativity tests:

* Tensor space bases are ordered row-major with the leftmost factor most
  significant.
* Every diagram acts by one edge rule.  Input indices sit on the bottom
  row and output indices on the top row; a vertical edge copies an
  index, a bottom edge (a, b), a < b, pairs the two inputs through the
  Gram matrix of the form, and a top edge (a, b), a < b, emits the dual
  element, the entries of the inverse Gram matrix.  This makes
  ``sigma_element`` an algebra homomorphism for the diagram product.
  Mixed tensor space uses the same rule with the identity form, which is
  the pairing of V with V*.
* In the symplectic flavour the matrix is multiplied by the signs of two
  reading words: the top pairs followed by the free top columns, and the
  bottom pairs followed by those columns' bottom partners.  On a
  permutation diagram of word u this is sign(u).  Without the sign the
  contraction identity c.s = c would be violated, since swapping the
  arguments of an alternating form flips its sign.
* ``sigma_perm(w)`` moves the tensor factor in position j to position
  w[j]; equivalently position k of the output reads position w^{-1}(k)
  of the input.  It is the matrix of the permutation diagram of the
  inverse word, and multiplicative for the usual composition
  (v o w)(i) = v(w(i)).
* Derived Lie algebra actions are Leibniz sums of one action per tensor
  position, built by one lift from sparse columns.  On adjoint positions
  [x, -] is read from the sparse structure of the sl_n basis, without
  dense commutators.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, RingMismatchError, idempotent_e
from .diagrams import (
    BrauerDiagram,
    CapExceededError,
    Wall,
    c_generator,
    inverse_word,
    is_walled,
    permutation_to_diagram,
    word_sign,
)
from .ring import exactify
from .linalg import (
    LinOp,
    _nonzeros,
    dense_from_rows,
    frac_matrix,
    nullspace_exact,
    rows_from_dense,
    sparse_matmul,
    sparse_scale_add,
    zeros_matrix,
)

DEFAULT_DIM_CAP = 65536
DENSE_DIM_CAP = 4096


class SpecializationError(ValueError):
    """The element's specialization does not match the target space."""


@dataclass(frozen=True)
class TensorSpace:
    """V tensored with itself r times, V = Q^n."""

    n: int
    r: int

    def __post_init__(self):
        if self.n < 2 or self.r < 1:
            raise ValueError(f"need n >= 2 and r >= 1, got ({self.n}, {self.r})")

    @property
    def dim(self) -> int:
        return self.n ** self.r


@dataclass(frozen=True)
class MixedSpace:
    """V^(x r) tensor (V*)^(x s); the V block comes first."""

    n: int
    r: int
    s: int

    def __post_init__(self):
        if self.n < 2 or self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise ValueError(f"bad mixed space ({self.n}, {self.r}, {self.s})")

    @property
    def dim(self) -> int:
        return self.n ** (self.r + self.s)


@dataclass(frozen=True)
class AdjointSpace:
    """r-th tensor power of the trace-free matrices sl_n."""

    n: int
    r: int

    def __post_init__(self):
        if self.n < 2 or self.r < 1:
            raise ValueError(f"need n >= 2 and r >= 1, got ({self.n}, {self.r})")

    @property
    def dim(self) -> int:
        return (self.n * self.n - 1) ** self.r


def check_dim(space, cap: int = DEFAULT_DIM_CAP):
    if space.dim > cap:
        raise CapExceededError(f"space dimension {space.dim} exceeds cap {cap}")


@dataclass(frozen=True)
class BilinearForm:
    """Nondegenerate symmetric or symplectic form with a fixed Gram matrix:
    the identity, or the standard alternating block form (n even)."""

    flavor: str
    n: int

    def __post_init__(self):
        if self.flavor not in ("symmetric", "symplectic"):
            raise ValueError(f"unknown flavor {self.flavor!r}")
        if self.flavor == "symplectic" and self.n % 2 != 0:
            raise ValueError(f"symplectic form needs even n, got {self.n}")

    @property
    def eps(self) -> int:
        return 1 if self.flavor == "symmetric" else -1

    @property
    def gram(self) -> np.ndarray:
        n = self.n
        g = zeros_matrix(n, n)
        if self.flavor == "symmetric":
            for i in range(n):
                g[i, i] = 1
        else:
            h = n // 2
            for i in range(h):
                g[i, h + i] = 1
                g[h + i, i] = -1
        return g

    @property
    def gram_inv(self) -> np.ndarray:
        return self.gram if self.flavor == "symmetric" else -self.gram


# ---------------------------------------------------------------------------
# index bookkeeping

def _digits(flat: int, base: int, length: int) -> list[int]:
    out = [0] * length
    for k in range(length - 1, -1, -1):
        flat, out[k] = divmod(flat, base)
    return out


def _flat(digits, base: int) -> int:
    out = 0
    for d in digits:
        out = out * base + d
    return out


# ---------------------------------------------------------------------------
# the diagram action, edge by edge

def _diagram_rows(d: BrauerDiagram, n: int, form: BilinearForm) -> list[dict[int, int]]:
    """Sparse rows of one diagram on (Q^n)^(x m), read edge by edge.

    Every edge contributes n choices, each an (input offset, output
    offset, coefficient) triple, and the matrix entries are the products
    of one choice per edge: a vertical edge copies an index, a bottom
    edge (a, b), a < b, pairs the two inputs through ``form.gram``, and a
    top edge (a, b), a < b, emits the nonzero entries of
    ``form.gram_inv``.  In the symplectic flavour the matrix is
    multiplied by the signs of the two reading words: the top pairs then
    the free top columns, and the bottom pairs then the free columns'
    bottom partners.
    """
    if form.n != n:
        raise ValueError(f"form on n={form.n} does not match space n={n}")
    m = d.m
    stride = [n ** (m - 1 - k) for k in range(m)]

    def nonzeros(mat):
        return [(u, v, c) for u, row in enumerate(mat.tolist())
                for v, c in enumerate(row) if c]

    pair, emit = nonzeros(form.gram), nonzeros(form.gram_inv)
    terms = [(0, 0, 1)]
    top_word, bot_word, free_top, free_bot = [], [], [], []
    for v, w in d.edges:
        if w < m:
            choices = [(0, u * stride[v] + x * stride[w], c) for u, x, c in emit]
            top_word += (v, w)
        elif v >= m:
            choices = [(u * stride[v - m] + x * stride[w - m], 0, c) for u, x, c in pair]
            bot_word += (v - m, w - m)
        else:
            choices = [(i * stride[w - m], i * stride[v], 1) for i in range(n)]
            free_top.append(v)
            free_bot.append(w - m)
        terms = [(src + s, dst + t, c * e) for src, dst, c in terms for s, t, e in choices]
    sign = 1
    if form.flavor == "symplectic":
        sign = word_sign(top_word + free_top) * word_sign(bot_word + free_bot)
    rows: list[dict[int, int]] = [{} for _ in range(n ** m)]
    for src, dst, c in terms:
        rows[dst][src] = sign * c
    return rows


def _element_rows(el: AlgebraElement, n: int, form: BilinearForm) -> list[dict[int, Fraction]]:
    """Sparse rows of a specialized element: its diagrams' rows, summed."""
    acc: list[dict[int, Fraction]] = [{} for _ in range(n ** el.m)]
    for d, c in sorted(el.items(), key=lambda t: t[0].edges):
        sparse_scale_add(acc, Fraction(c), _diagram_rows(d, n, form))
    return acc


# ---------------------------------------------------------------------------
# diagram-side matrices on plain tensor space

def sigma_perm(word, space: TensorSpace) -> np.ndarray:
    """Permutation matrix of the place permutation of ``word``: the
    matrix of the permutation diagram of the inverse word."""
    check_dim(space, DENSE_DIM_CAP)
    if sorted(word) != list(range(space.r)):
        raise ValueError(f"not a permutation word of length {space.r}: {word!r}")
    d = permutation_to_diagram(inverse_word(word))
    return dense_from_rows(_diagram_rows(d, space.n, BilinearForm("symmetric", space.n)),
                           space.dim)


def sigma_contraction(i: int, j: int, space: TensorSpace, form: BilinearForm) -> np.ndarray:
    """Weyl contraction in tensor positions i and j (1-based): pair the two
    factors with the form, then re-insert the form's dual element.  It is
    the matrix of ``c_generator(r, i, j)``, so symmetric in i and j.

    Satisfies C*C = (eps n) C: the trace of the form against its inverse
    is n for the symmetric flavour and -n for the symplectic one.
    """
    check_dim(space, DENSE_DIM_CAP)
    r = space.r
    if not (1 <= i <= r and 1 <= j <= r) or i == j:
        raise ValueError(f"bad contraction positions ({i}, {j}) for r={r}")
    d = c_generator(r, i, j)
    return dense_from_rows(_diagram_rows(d, space.n, form), space.dim)


def diagram_matrix(d: BrauerDiagram, space: TensorSpace, form: BilinearForm) -> np.ndarray:
    """Matrix of one diagram, read edge by edge: vertical edges copy an
    index, bottom edges pair two inputs with the form, top edges emit the
    form's dual element.  The symplectic flavour multiplies by the signs
    of the top and bottom reading words."""
    check_dim(space, DENSE_DIM_CAP)
    if d.m != space.r:
        raise ValueError(f"diagram on {d.m} columns against r={space.r}")
    return dense_from_rows(_diagram_rows(d, space.n, form), space.dim)


def sigma_element(el: AlgebraElement, space: TensorSpace, form: BilinearForm) -> np.ndarray:
    """Representing matrix of a specialized element on tensor space.

    The specialization must match the form: x0 = n for the symmetric
    flavour, x0 = -n for the symplectic one.
    """
    if el.m != space.r:
        raise ValueError(f"element on {el.m} columns against r={space.r}")
    if el.x0 is None:
        raise RingMismatchError("specialize the element before representing it")
    expected = Fraction(form.eps * space.n)
    if el.x0 != expected:
        raise SpecializationError(
            f"x0={el.x0} but the {form.flavor} action on n={space.n} needs x0={expected}")
    check_dim(space, DENSE_DIM_CAP)
    return dense_from_rows(_element_rows(el, space.n, form), space.dim)


# ---------------------------------------------------------------------------
# mixed tensor space: the V / V* pairing is the identity form

def mixed_diagram_rows(d: BrauerDiagram, space: MixedSpace) -> list[dict[int, int]]:
    """Walled diagram on V^(x r) (x) (V*)^(x s) as sparse rows, all
    entries 0/1: bottom horizontal edges pair a vector with a covector,
    top horizontal edges emit the identity element of V (x) V*."""
    check_dim(space)
    wall = Wall(space.r, space.s)
    if d.m != wall.m:
        raise ValueError(f"diagram on {d.m} columns against r+s={wall.m}")
    if not is_walled(d, wall):
        raise ValueError("diagram does not respect the wall")
    return _diagram_rows(d, space.n, BilinearForm("symmetric", space.n))


def mixed_diagram_matrix(d: BrauerDiagram, space: MixedSpace) -> np.ndarray:
    check_dim(space, DENSE_DIM_CAP)
    return dense_from_rows(mixed_diagram_rows(d, space), space.dim)


def sigma_mixed_rows(el: AlgebraElement, space: MixedSpace) -> list[dict[int, Fraction]]:
    """Sparse rows of the representing matrix of a walled element."""
    wall = Wall(space.r, space.s)
    if el.m != wall.m:
        raise ValueError(f"element on {el.m} columns against r+s={wall.m}")
    if el.x0 is None:
        raise RingMismatchError("specialize the element before representing it")
    if el.x0 != space.n:
        raise SpecializationError(
            f"x0={el.x0} but the mixed action on n={space.n} needs x0={space.n}")
    if not el.is_supported_walled(wall):
        raise ValueError("element is not supported on walled diagrams")
    check_dim(space)
    return _element_rows(el, space.n, BilinearForm("symmetric", space.n))


def sigma_mixed(el: AlgebraElement, space: MixedSpace) -> np.ndarray:
    """Representing matrix of a walled element on mixed tensor space.

    Requires support on walled diagrams and specialization x0 = n.
    """
    check_dim(space, DENSE_DIM_CAP)
    return dense_from_rows(sigma_mixed_rows(el, space), space.dim)


# ---------------------------------------------------------------------------
# Lie algebra bases and derived actions

def matrix_unit(n: int, a: int, b: int) -> np.ndarray:
    out = zeros_matrix(n, n)
    out[a, b] = 1
    return out


def lie_basis(family: str, n: int) -> list[np.ndarray]:
    """Ordered basis of gl_n, sl_n, sp_n or so_n as exact n x n matrices.

    gl and sl are written down directly; sp and so are computed as the
    exact nullspace of X^T G + G X = 0 for the standard Gram matrix G,
    which pins deterministic representatives and doubles as a check of
    the classical dimension formulas.
    """
    if family == "gl":
        return [matrix_unit(n, a, b) for a in range(n) for b in range(n)]
    if family == "sl":
        out = [matrix_unit(n, a, b) for a in range(n) for b in range(n) if a != b]
        for a in range(n - 1):
            h = zeros_matrix(n, n)
            h[a, a] = 1
            h[a + 1, a + 1] = -1
            out.append(h)
        return out
    if family in ("sp", "so"):
        form = BilinearForm("symplectic" if family == "sp" else "symmetric", n)
        gram = form.gram
        rows = []
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                # (X^T G + G X)[i, j] as a linear function of the entries of X
                for k in range(n):
                    row[k * n + i] += gram[k, j]
                    row[k * n + j] += gram[i, k]
                rows.append(row)
        kernel = nullspace_exact(rows, n * n)
        return [frac_matrix([v[i * n:(i + 1) * n] for i in range(n)]) for v in kernel]
    raise ValueError(f"unknown family {family!r}")


# The sparse structure of lie_basis('sl', n), in closed form: the
# off-diagonal units E_ab come first, row-major, then h_0, ..., h_(n-2)
# with h_a = E_aa - E_(a+1)(a+1).  In a traceless matrix of diagonal d
# the coordinate of h_a is cumulative: d_0 + ... + d_a.

def _sl_off(n: int, a: int, b: int) -> int:
    """Coordinate of E_ab, a != b."""
    return a * (n - 1) + b - (b > a)


def _sl_line(n: int, i: int, column: bool = False) -> list[tuple[int, int, int]]:
    """Nonzeros of the basis in row i (column i if ``column``), as
    (element, column (row), value)."""
    units = [(_sl_off(n, c, i) if column else _sl_off(n, i, c), c, 1)
             for c in range(n) if c != i]
    h = n * n - n + i
    return units + [(h - 1, i, -1)] * (i > 0) + [(h, i, 1)] * (i < n - 1)


def _ad_cols(x: np.ndarray, n: int) -> list[dict[int, object]]:
    """Columns of [x, -] on sl_n as sparse {row: value} dicts, rows
    ascending.

    Each nonzero x[a, b] = v reaches only the elements b_j with a nonzero
    in row b or column a, in O(1) per entry: row a of x b_j gains v times
    row b of b_j, and column b of b_j x gains v times column a of b_j."""
    if x.shape != (n, n):
        raise ValueError(f"x of shape {x.shape} does not act on sl_{n}")
    brackets: dict[int, dict[tuple[int, int], object]] = {}
    for k, v in _nonzeros(x).items():
        a, b = divmod(k, n)
        v = exactify(v)
        for j, c, w in _sl_line(n, b):
            e = brackets.setdefault(j, {})
            e[a, c] = e.get((a, c), 0) + v * w
        for j, i, w in _sl_line(n, a, column=True):
            e = brackets.setdefault(j, {})
            e[i, b] = e.get((i, b), 0) - w * v
    cols: list[dict[int, object]] = [{} for _ in range(n * n - 1)]
    for j, bracket in brackets.items():
        coords = {_sl_off(n, i, k): v for (i, k), v in bracket.items() if i != k}
        diag = {i: v for (i, k), v in bracket.items() if i == k}
        acc = 0
        for a in range(min(diag, default=n), n - 1):
            acc += diag.get(a, 0)
            coords[n * n - n + a] = acc
        cols[j] = {i: exactify(v) for i, v in sorted(coords.items()) if v}
    return cols


def _lift_entries(action_cols, dims, columns=None):
    """Leibniz sum of per-position actions, each given by its sparse
    columns, returned as sparse rows of nonzeros.

    ``columns`` restricts the sum to those source columns, renumbered in
    the given order; then only the rows it touches come back, in target
    order."""
    total = 1
    for d in dims:
        total *= d
    rows: dict[int, dict[int, Fraction]] = {}
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    npos = len(dims)
    for col, flat in enumerate(range(total) if columns is None else columns):
        digs = [(flat // strides[k]) % dims[k] for k in range(npos)]
        for k in range(npos):
            base = flat - digs[k] * strides[k]
            for i, v in action_cols[k][digs[k]].items():
                dst = base + i * strides[k]
                row = rows.get(dst)
                if row is None:
                    row = rows[dst] = {}
                row[col] = row.get(col, 0) + v
                if not row[col]:
                    del row[col]
    if columns is not None:
        return [rows[dst] for dst in sorted(rows)], total
    return [rows.get(dst, {}) for dst in range(total)], total


def ad_action(x: np.ndarray, n: int) -> np.ndarray:
    """Matrix of [x, -] on sl_n in the lie_basis('sl', n) coordinates,
    read from the sparse structure constants of sl_n and densified.

    Defined for any x in gl_n: commutators with a traceless matrix stay
    traceless.  Entries are plain ints where the denominator is 1."""
    return dense_from_rows(_ad_cols(x, n), n * n - 1).T.copy()


def _position_actions(x: np.ndarray, space):
    # the columns of x are the rows of x^T, those of -x^T the rows of -x
    if isinstance(space, TensorSpace):
        return [rows_from_dense(x.T)] * space.r, [space.n] * space.r
    if isinstance(space, MixedSpace):
        cols, dual = rows_from_dense(x.T), rows_from_dense(-x)
        return [cols] * space.r + [dual] * space.s, [space.n] * (space.r + space.s)
    if isinstance(space, AdjointSpace):
        return [_ad_cols(x, space.n)] * space.r, [space.n ** 2 - 1] * space.r
    raise TypeError(f"unknown space {space!r}")


def derivation_ops_sparse(x: np.ndarray, space) -> LinOp:
    """Derived action of an n x n matrix as sparse rows of nonzeros: the
    Leibniz sum over tensor positions, acting by -x^T on dual positions
    and by [x, -] on adjoint positions, read from the sparse structure
    constants of sl_n without a dense matrix."""
    check_dim(space)
    cols, dims = _position_actions(x, space)
    rows, total = _lift_entries(cols, dims)
    return LinOp(total, rows)


def derivation_action(x: np.ndarray, space) -> np.ndarray:
    """Dense matrix of :func:`derivation_ops_sparse`, for spaces within
    the dense cap."""
    check_dim(space, DENSE_DIM_CAP)
    return derivation_ops_sparse(x, space).to_dense()


def reflection_matrix(n: int, r: int) -> np.ndarray:
    """Tensor power of diag(-1, 1, ..., 1): the determinant -1 element
    that extends the rotation group to the full orthogonal group."""
    space = TensorSpace(n, r)
    check_dim(space, DENSE_DIM_CAP)
    out = zeros_matrix(space.dim, space.dim)
    for flat in range(space.dim):
        digs = _digits(flat, n, r)
        out[flat, flat] = (-1) ** sum(1 for d in digs if d == 0)
    return out


# ---------------------------------------------------------------------------
# the adjoint summand of mixed tensor space

def gl_sl_transport(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(S, T): S embeds sl coordinates into gl = V (x) V* coordinates,
    T projects a matrix to its trace-free part in sl coordinates.
    T S is the identity on sl.  Both are read from the sparse structure
    of the sl basis; the trace-free part of E_aa has h_c coordinate
    [a <= c] - (c+1)/n."""
    d = n * n - 1
    s, t = zeros_matrix(n * n, d), zeros_matrix(d, n * n)
    for a, b in itertools.permutations(range(n), 2):
        s[a * n + b, _sl_off(n, a, b)] = t[_sl_off(n, a, b), a * n + b] = 1
    for a in range(n):
        for j, _, w in _sl_line(n, a)[n - 1:]:
            s[a * n + a, j] = w
        for c in range(n - 1):
            t[n * n - n + c, a * n + a] = Fraction(n * (a <= c) - c - 1, n)
    return s, t


def adjoint_transport(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """(inclusion, coordinates) between the adjoint power and mixed
    (r, r) tensor space, using the equivariant identification of
    V (x) V* with n x n matrices: the r-th tensor powers of the pair of
    :func:`gl_sl_transport`, with the V digits moved before the V* ones."""
    space, d = MixedSpace(n, r, r), n * n - 1
    check_dim(space)
    s, t = gl_sl_transport(n)
    s_cols, t_cols = rows_from_dense(s.T), rows_from_dense(t.T)
    incl, coords = zeros_matrix(space.dim, d ** r), zeros_matrix(d ** r, space.dim)
    for aflat, ks in enumerate(itertools.product(range(d), repeat=r)):
        for picks in itertools.product(*(s_cols[k].items() for k in ks)):
            gs = [g for g, _ in picks]
            row = _flat([g // n for g in gs] + [g % n for g in gs], n)
            incl[row, aflat] = math.prod(c for _, c in picks)
    for mflat, digs in enumerate(itertools.product(range(n), repeat=2 * r)):
        gls = [digs[j] * n + digs[r + j] for j in range(r)]
        for picks in itertools.product(*(t_cols[g].items() for g in gls)):
            coords[_flat([k for k, _ in picks], d), mflat] = math.prod(c for _, c in picks)
    return incl, coords


def adjoint_projection(n: int, r: int) -> np.ndarray:
    """The projector on mixed (r, r) space represented by the sandwich
    idempotent; its image is the adjoint power, realized inside mixed
    tensor space."""
    return sigma_mixed(idempotent_e(r, n), MixedSpace(n, r, r))


def deranged_matrix(el: AlgebraElement, n: int, r: int,
                    transport: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Action of a sandwiched walled element on the adjoint power,
    transported from mixed tensor space.  The whole chain is multiplied
    sparsely; pass a precomputed transport pair to amortize it."""
    space = MixedSpace(n, r, r)
    check_dim(space, DENSE_DIM_CAP)
    incl, coords = adjoint_transport(n, r) if transport is None else transport
    adj_dim = AdjointSpace(n, r).dim
    rows = sparse_matmul(
        sparse_matmul(rows_from_dense(coords), sigma_mixed_rows(el, space)),
        rows_from_dense(incl))
    return dense_from_rows(rows, adj_dim)


# ---------------------------------------------------------------------------
# weight bookkeeping for the graded solvers

def _sl_weights(n: int) -> list[tuple[int, ...]]:
    """Torus weight of each element of lie_basis('sl', n): e_a - e_b for
    E_ab, zero for the diagonal elements."""
    return [tuple((c == a) - (c == b) for c in range(n))
            for a, b in itertools.permutations(range(n), 2)] + [(0,) * n] * (n - 1)


def _zero_weight_support(n: int, r: int) -> list[int]:
    """Indices of the zero-weight basis vectors of AdjointSpace(n, r),
    ascending, without listing every weight: the first r - 1 factors fix
    a weight, and only the last factors of the opposite weight (one unit
    E_ab, or the n - 1 diagonal elements for weight zero) complete it."""
    d, weights = n * n - 1, _sl_weights(n)
    cancel: dict[tuple[int, ...], list[int]] = {}
    for k, w in enumerate(weights):
        cancel.setdefault(tuple(-c for c in w), []).append(k)
    return [p * d + k for p, ws in enumerate(itertools.product(weights, repeat=r - 1))
            for k in cancel.get(tuple(map(sum, zip((0,) * n, *ws))), ())]


def weight_vectors(space) -> list[tuple[int, ...]]:
    """Torus weight of every basis vector, as an integer tuple per index.

    These are the diagonals of the derived actions of the diagonal matrix
    units; generators that commute with the torus preserve them."""
    n = space.n
    units = [tuple(int(c == a) for c in range(n)) for a in range(n)]
    if isinstance(space, TensorSpace):
        per_pos = [units] * space.r
    elif isinstance(space, MixedSpace):
        per_pos = [units] * space.r + [[tuple(-c for c in w) for w in units]] * space.s
    elif isinstance(space, AdjointSpace):
        per_pos = [_sl_weights(n)] * space.r
    else:
        raise TypeError(f"unknown space {space!r}")
    return [tuple(map(sum, zip((0,) * n, *ws))) for ws in itertools.product(*per_pos)]
