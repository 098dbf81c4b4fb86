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
  position, built by one lift.
"""
from __future__ import annotations

import itertools
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
    dense_from_rows,
    frac_matrix,
    identity_matrix,
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

def sigma_perm(word, space: TensorSpace, cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Permutation matrix of the place permutation of ``word``: the
    matrix of the permutation diagram of the inverse word."""
    check_dim(space, cap)
    if sorted(word) != list(range(space.r)):
        raise ValueError(f"not a permutation word of length {space.r}: {word!r}")
    d = permutation_to_diagram(inverse_word(word))
    return dense_from_rows(_diagram_rows(d, space.n, BilinearForm("symmetric", space.n)),
                           space.dim)


def sigma_contraction(i: int, j: int, space: TensorSpace, form: BilinearForm,
                      cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Weyl contraction in tensor positions i and j (1-based): pair the two
    factors with the form, then re-insert the form's dual element.  It is
    the matrix of ``c_generator(r, i, j)``, so symmetric in i and j.

    Satisfies C*C = (eps n) C: the trace of the form against its inverse
    is n for the symmetric flavour and -n for the symplectic one.
    """
    check_dim(space, cap)
    r = space.r
    if not (1 <= i <= r and 1 <= j <= r) or i == j:
        raise ValueError(f"bad contraction positions ({i}, {j}) for r={r}")
    d = c_generator(r, i, j)
    return dense_from_rows(_diagram_rows(d, space.n, form), space.dim)


def diagram_matrix(d: BrauerDiagram, space: TensorSpace, form: BilinearForm,
                   cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Matrix of one diagram, read edge by edge: vertical edges copy an
    index, bottom edges pair two inputs with the form, top edges emit the
    form's dual element.  The symplectic flavour multiplies by the signs
    of the top and bottom reading words."""
    check_dim(space, cap)
    if d.m != space.r:
        raise ValueError(f"diagram on {d.m} columns against r={space.r}")
    return dense_from_rows(_diagram_rows(d, space.n, form), space.dim)


def sigma_element(el: AlgebraElement, space: TensorSpace, form: BilinearForm,
                  cap: int = DENSE_DIM_CAP) -> np.ndarray:
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
    check_dim(space, cap)
    return dense_from_rows(_element_rows(el, space.n, form), space.dim)


# ---------------------------------------------------------------------------
# mixed tensor space: the V / V* pairing is the identity form

def mixed_diagram_rows(d: BrauerDiagram, space: MixedSpace,
                       cap: int = DEFAULT_DIM_CAP) -> list[dict[int, int]]:
    """Walled diagram on V^(x r) (x) (V*)^(x s) as sparse rows, all
    entries 0/1: bottom horizontal edges pair a vector with a covector,
    top horizontal edges emit the identity element of V (x) V*."""
    check_dim(space, cap)
    wall = Wall(space.r, space.s)
    if d.m != wall.m:
        raise ValueError(f"diagram on {d.m} columns against r+s={wall.m}")
    if not is_walled(d, wall):
        raise ValueError("diagram does not respect the wall")
    return _diagram_rows(d, space.n, BilinearForm("symmetric", space.n))


def mixed_diagram_matrix(d: BrauerDiagram, space: MixedSpace,
                         cap: int = DENSE_DIM_CAP) -> np.ndarray:
    check_dim(space, cap)
    return dense_from_rows(mixed_diagram_rows(d, space, cap), space.dim)


def sigma_mixed_rows(el: AlgebraElement, space: MixedSpace,
                     cap: int = DEFAULT_DIM_CAP) -> list[dict[int, Fraction]]:
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
    check_dim(space, cap)
    return _element_rows(el, space.n, BilinearForm("symmetric", space.n))


def sigma_mixed(el: AlgebraElement, space: MixedSpace,
                cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Representing matrix of a walled element on mixed tensor space.

    Requires support on walled diagrams and specialization x0 = n.
    """
    check_dim(space, cap)
    return dense_from_rows(sigma_mixed_rows(el, space, cap), space.dim)


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


def _lift_entries(action_mats, dims, dim_cap, columns=None):
    """Leibniz sum of per-position actions, returned as sparse rows.

    ``columns`` restricts the sum to those source columns, renumbered in
    the given order; then only the rows it touches come back, in target
    order."""
    total = 1
    for d in dims:
        total *= d
    if total > dim_cap:
        raise CapExceededError(f"space dimension {total} exceeds cap {dim_cap}")
    rows: dict[int, dict[int, Fraction]] = {}
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    npos = len(dims)
    cols_by_pos = []
    for mat, d in zip(action_mats, dims):
        cols: list[list[tuple[int, object]]] = [[] for _ in range(d)]
        ii, jj = np.nonzero(mat)
        for i, j in zip(ii.tolist(), jj.tolist()):
            cols[j].append((i, exactify(mat[i, j])))
        cols_by_pos.append(cols)
    for col, flat in enumerate(range(total) if columns is None else columns):
        digs = [(flat // strides[k]) % dims[k] for k in range(npos)]
        for k in range(npos):
            base = flat - digs[k] * strides[k]
            for i, v in cols_by_pos[k][digs[k]]:
                dst = base + i * strides[k]
                row = rows.get(dst)
                if row is None:
                    row = rows[dst] = {}
                row[col] = row.get(col, 0) + v
    if columns is not None:
        return [rows[dst] for dst in sorted(rows)], total
    return [rows.get(dst, {}) for dst in range(total)], total


def sl_coordinates(mat: np.ndarray) -> list:
    """Coordinates of a traceless matrix in the lie_basis('sl', n) order."""
    n = mat.shape[0]
    coords = [exactify(mat[a, b]) for a in range(n) for b in range(n) if a != b]
    acc = 0
    for a in range(n - 1):
        acc = acc + mat[a, a]
        coords.append(exactify(acc))
    return coords


def ad_action(x: np.ndarray, n: int) -> np.ndarray:
    """Matrix of [x, -] on sl_n in the lie_basis('sl', n) coordinates.

    Defined for any x in gl_n: commutators with a traceless matrix stay
    traceless."""
    basis = lie_basis("sl", n)
    d = len(basis)
    out = zeros_matrix(d, d)
    for j, b in enumerate(basis):
        coords = sl_coordinates(x @ b - b @ x)
        for i, c in enumerate(coords):
            if c:
                out[i, j] = c
    return out


def _position_actions(x: np.ndarray, space):
    if isinstance(space, TensorSpace):
        return [x] * space.r, [space.n] * space.r
    if isinstance(space, MixedSpace):
        dual = -x.T
        return [x] * space.r + [dual] * space.s, [space.n] * (space.r + space.s)
    if isinstance(space, AdjointSpace):
        ad = ad_action(x, space.n)
        return [ad] * space.r, [space.n ** 2 - 1] * space.r
    raise TypeError(f"unknown space {space!r}")


def derivation_action(x: np.ndarray, space, cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Derived action of an n x n matrix: the Leibniz sum over tensor
    positions, acting by -x^T on dual positions and by [x, -] on adjoint
    positions."""
    mats, dims = _position_actions(x, space)
    rows, total = _lift_entries(mats, dims, cap)
    return dense_from_rows(rows, total)


def derivation_ops_sparse(x: np.ndarray, space, cap: int = DEFAULT_DIM_CAP) -> LinOp:
    """Sparse form of :func:`derivation_action`, for the larger spaces."""
    mats, dims = _position_actions(x, space)
    rows, total = _lift_entries(mats, dims, cap)
    return LinOp(total, rows)


def reflection_matrix(n: int, r: int, cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Tensor power of diag(-1, 1, ..., 1): the determinant -1 element
    that extends the rotation group to the full orthogonal group."""
    space = TensorSpace(n, r)
    check_dim(space, cap)
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
    T S is the identity on sl."""
    basis = lie_basis("sl", n)
    d = len(basis)
    s = zeros_matrix(n * n, d)
    for k, b in enumerate(basis):
        for a in range(n):
            for c in range(n):
                v = b[a, c]
                if v:
                    s[a * n + c, k] = v
    t = zeros_matrix(d, n * n)
    for a in range(n):
        for b in range(n):
            col = a * n + b
            unit = matrix_unit(n, a, b)
            if a == b:
                unit = unit - Fraction(1, n) * identity_matrix(n)
            for k, v in enumerate(sl_coordinates(unit)):
                if v:
                    t[k, col] = v
    return s, t


def _mixed_pair_to_gl_flat(space: MixedSpace, mixed_flat: int) -> list[int]:
    n = space.n
    digs = _digits(mixed_flat, n, 2 * space.r)
    vs, fs = digs[: space.r], digs[space.r:]
    return [vs[t] * n + fs[t] for t in range(space.r)]


def adjoint_transport(n: int, r: int, cap: int = DEFAULT_DIM_CAP) -> tuple[np.ndarray, np.ndarray]:
    """(inclusion, coordinates) between the adjoint power and mixed
    (r, r) tensor space, using the equivariant identification of
    V (x) V* with n x n matrices."""
    space = MixedSpace(n, r, r)
    adj = AdjointSpace(n, r)
    check_dim(space, cap)
    s, t = gl_sl_transport(n)
    incl = zeros_matrix(space.dim, adj.dim)
    coords = zeros_matrix(adj.dim, space.dim)
    d = adj.n * adj.n - 1
    for aflat in range(adj.dim):
        ks = _digits(aflat, d, r)
        cols = [[(g, s[g, k]) for g in range(n * n) if s[g, k]] for k in ks]
        for picks in itertools.product(*cols):
            val = 1
            vs, fs = [], []
            for g, c in picks:
                val *= c
                vs.append(g // n)
                fs.append(g % n)
            incl[_flat(vs + fs, n), aflat] += val
    for mflat in range(space.dim):
        gls = _mixed_pair_to_gl_flat(space, mflat)
        rows = [[(k, t[k, g]) for k in range(d) if t[k, g]] for g in gls]
        for picks in itertools.product(*rows):
            val = 1
            ks = []
            for k, c in picks:
                val *= c
                ks.append(k)
            coords[_flat(ks, d), mflat] += val
    return incl, coords


def adjoint_projection(n: int, r: int, cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """The projector on mixed (r, r) space represented by the sandwich
    idempotent; its image is the adjoint power, realized inside mixed
    tensor space."""
    return sigma_mixed(idempotent_e(r, n), MixedSpace(n, r, r), cap)


def deranged_matrix(el: AlgebraElement, n: int, r: int,
                    cap: int = DENSE_DIM_CAP,
                    transport: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """Action of a sandwiched walled element on the adjoint power,
    transported from mixed tensor space.  The whole chain is multiplied
    sparsely; pass a precomputed transport pair to amortize it."""
    incl, coords = adjoint_transport(n, r) if transport is None else transport
    adj_dim = AdjointSpace(n, r).dim
    rows = sparse_matmul(
        sparse_matmul(rows_from_dense(coords),
                      sigma_mixed_rows(el, MixedSpace(n, r, r), cap)),
        rows_from_dense(incl))
    return dense_from_rows(rows, adj_dim)


# ---------------------------------------------------------------------------
# weight bookkeeping for the graded solvers

def weight_vectors(space) -> list[tuple[int, ...]]:
    """Torus weight of every basis vector, as an integer tuple per index.

    These are the diagonals of the derived actions of the diagonal matrix
    units; generators that commute with the torus preserve them."""
    n = space.n

    def basis_vec(a):
        return tuple(1 if c == a else 0 for c in range(n))

    def neg(w):
        return tuple(-x for x in w)

    if isinstance(space, TensorSpace):
        per_pos = [[basis_vec(a) for a in range(n)]] * space.r
    elif isinstance(space, MixedSpace):
        vw = [basis_vec(a) for a in range(n)]
        per_pos = [vw] * space.r + [[neg(w) for w in vw]] * space.s
    elif isinstance(space, AdjointSpace):
        sl_w = [tuple(x - y for x, y in zip(basis_vec(a), basis_vec(b)))
                for a in range(n) for b in range(n) if a != b]
        sl_w += [tuple(0 for _ in range(n))] * (n - 1)
        per_pos = [sl_w] * space.r
    else:
        raise TypeError(f"unknown space {space!r}")

    out = []
    dims = [len(ws) for ws in per_pos]
    total = 1
    for d in dims:
        total *= d
    for flat in range(total):
        acc = [0] * n
        rem = flat
        for ws in reversed(per_pos):
            rem, dig = divmod(rem, len(ws))
            for a in range(n):
                acc[a] += ws[dig][a]
        out.append(tuple(acc))
    return out
