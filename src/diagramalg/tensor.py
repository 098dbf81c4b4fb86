"""Exact matrices for diagram algebras and Lie algebras on tensor space.

Conventions, fixed once and pinned by the multiplicativity tests:

* Tensor space bases are ordered row-major with the leftmost factor most
  significant.
* ``sigma_perm(w)`` moves the tensor factor in position j to position
  w[j]; equivalently position k of the output reads position w^{-1}(k)
  of the input.  It is multiplicative for the usual composition
  (v o w)(i) = v(w(i)).
* Diagram matrices read their input on the bottom row and emit on the
  top row, which makes ``sigma_element`` an algebra homomorphism for the
  diagram product; on an all-vertical diagram with word u it acts as
  ``sigma_perm`` of the inverse word.
* In the symplectic flavour a permutation diagram acts with an extra
  factor sign(u).  Without the sign the contraction identity c.s = c
  would be violated, since swapping the arguments of an alternating form
  flips its sign.
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
    inverse_word,
    is_walled,
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


def _perm_flat_map(word, n: int) -> np.ndarray:
    """Flat-index map of the place permutation sending position j to
    position word[j]."""
    r = len(word)
    dim = n ** r
    out = np.empty(dim, dtype=np.int64)
    for flat in range(dim):
        digs = _digits(flat, n, r)
        j = [0] * r
        for k in range(r):
            j[word[k]] = digs[k]
        out[flat] = _flat(j, n)
    return out


# ---------------------------------------------------------------------------
# diagram-side matrices on plain tensor space

def sigma_perm(word, space: TensorSpace, cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Permutation matrix of the place permutation of ``word``."""
    check_dim(space, cap)
    if sorted(word) != list(range(space.r)):
        raise ValueError(f"not a permutation word of length {space.r}: {word!r}")
    move = _perm_flat_map(word, space.n)
    out = zeros_matrix(space.dim, space.dim)
    for col in range(space.dim):
        out[int(move[col]), col] = 1
    return out


def sigma_contraction(i: int, j: int, space: TensorSpace, form: BilinearForm,
                      cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Weyl contraction in tensor positions i and j (1-based): pair the two
    factors with the form, then re-insert the form's dual element.

    Satisfies C*C = (eps n) C: the trace of the form against its inverse
    is n for the symmetric flavour and -n for the symplectic one.
    """
    check_dim(space, cap)
    r, n = space.r, space.n
    if not (1 <= i <= r and 1 <= j <= r) or i == j:
        raise ValueError(f"bad contraction positions ({i}, {j}) for r={r}")
    if form.n != n:
        raise ValueError(f"form on n={form.n} does not match space n={n}")
    a, b = i - 1, j - 1
    gram, gram_inv = form.gram, form.gram_inv
    out = zeros_matrix(space.dim, space.dim)
    for src in range(space.dim):
        digs = _digits(src, n, r)
        scal = gram[digs[a], digs[b]]
        if not scal:
            continue
        for u in range(n):
            for v in range(n):
                coeff = gram_inv[u, v]
                if not coeff:
                    continue
                jd = list(digs)
                jd[a], jd[b] = u, v
                dst = _flat(jd, n)
                out[dst, src] += scal * coeff
    return out


def _split_edges(d: BrauerDiagram):
    m = d.m
    top, bottom, vertical = [], [], []
    for v, w in d.edges:
        if w < m:
            top.append((v, w))
        elif v >= m:
            bottom.append((v - m, w - m))
        else:
            vertical.append((v, w - m))
    return top, bottom, vertical


def _canonical_factors(d: BrauerDiagram):
    """Write d as (vertical diagram of w_top^{-1}) o E_k o (vertical
    diagram of beta), with E_k the diagram pairing columns (0,1), (2,3),
    ..., and the tail columns vertical.  All words are 0-based."""
    m = d.m
    top, bottom, vertical = _split_edges(d)
    k = len(top)
    free_top = sorted(set(range(m)) - {c for e in top for c in e})
    free_bot = sorted(set(range(m)) - {c for e in bottom for c in e})
    w_top = [0] * m
    w_bot = [0] * m
    for t, (a, b) in enumerate(top):
        w_top[2 * t], w_top[2 * t + 1] = a, b
    for t, (a, b) in enumerate(bottom):
        w_bot[2 * t], w_bot[2 * t + 1] = a, b
    for u, col in enumerate(free_top):
        w_top[2 * k + u] = col
    for u, col in enumerate(free_bot):
        w_bot[2 * k + u] = col
    vert_map = dict(vertical)
    beta = list(w_bot)
    bot_pos = {col: 2 * k + u for u, col in enumerate(free_bot)}
    for u, col in enumerate(free_top):
        beta[2 * k + u] = w_bot[bot_pos[vert_map[col]]]
    return w_top, k, beta


def _contraction_ladder(k: int, space: TensorSpace, form: BilinearForm) -> np.ndarray:
    """Product of the commuting contractions in positions (1,2), (3,4),
    ..., (2k-1, 2k), assembled in one pass."""
    r, n = space.r, space.n
    gram, gram_inv = form.gram, form.gram_inv
    out = zeros_matrix(space.dim, space.dim)
    tail = range(2 * k, r)
    for src in range(space.dim):
        digs = _digits(src, n, r)
        scal = 1
        for t in range(k):
            scal *= gram[digs[2 * t], digs[2 * t + 1]]
            if not scal:
                break
        if not scal:
            continue
        for choice in itertools.product(range(n * n), repeat=k):
            coeff = scal
            jd = list(digs)
            for t, uv in enumerate(choice):
                u, v = divmod(uv, n)
                coeff *= gram_inv[u, v]
                if not coeff:
                    break
                jd[2 * t], jd[2 * t + 1] = u, v
            if coeff:
                out[_flat(jd, n), src] += coeff
    return out


def diagram_matrix(d: BrauerDiagram, space: TensorSpace, form: BilinearForm,
                   cap: int = DENSE_DIM_CAP) -> np.ndarray:
    """Matrix of one diagram: permute, contract along the horizontal
    edges, permute again, via the canonical factorization.  Symplectic
    flavour twists each permutation factor by its sign."""
    check_dim(space, cap)
    if d.m != space.r:
        raise ValueError(f"diagram on {d.m} columns against r={space.r}")
    w_top, k, beta = _canonical_factors(d)
    core = _contraction_ladder(k, space, form)
    rows = _perm_flat_map(w_top, space.n)
    cols = _perm_flat_map(inverse_word(beta), space.n)
    out = np.empty_like(core)
    out[rows, :] = core
    out = out[:, cols]
    if form.flavor == "symplectic":
        sign = word_sign(w_top) * word_sign(beta)
        if sign < 0:
            out = -out
    return out


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
    out = zeros_matrix(space.dim, space.dim)
    for d, c in sorted(el.items(), key=lambda t: t[0].edges):
        out = out + c * diagram_matrix(d, space, form, cap)
    return out


# ---------------------------------------------------------------------------
# mixed tensor space

def mixed_diagram_rows(d: BrauerDiagram, space: MixedSpace,
                       cap: int = DEFAULT_DIM_CAP) -> list[dict[int, Fraction]]:
    """Walled diagram on V^(x r) (x) (V*)^(x s) as sparse rows, all
    entries 0/1: vertical edges copy indices, bottom horizontal edges
    pair a vector with a covector, top horizontal edges emit the
    identity element of V (x) V*."""
    check_dim(space, cap)
    wall = Wall(space.r, space.s)
    if d.m != wall.m:
        raise ValueError(f"diagram on {d.m} columns against r+s={wall.m}")
    if not is_walled(d, wall):
        raise ValueError("diagram does not respect the wall")
    n, m = space.n, wall.m
    top, bottom, vertical = _split_edges(d)
    rows: list[dict[int, Fraction]] = [{} for _ in range(space.dim)]
    for src in range(space.dim):
        digs = _digits(src, n, m)
        if any(digs[a] != digs[b] for a, b in bottom):
            continue
        jd = [0] * m
        for a, b in vertical:
            jd[a] = digs[b]
        for choice in itertools.product(range(n), repeat=len(top)):
            for (a, b), val in zip(top, choice):
                jd[a] = val
                jd[b] = val
            row = rows[_flat(jd, n)]
            row[src] = row.get(src, 0) + 1
    return rows


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
    acc: list[dict[int, Fraction]] = [{} for _ in range(space.dim)]
    for d, c in sorted(el.items(), key=lambda t: t[0].edges):
        sparse_scale_add(acc, Fraction(c), mixed_diagram_rows(d, space, cap))
    return acc


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


def _lift_entries(action_mats, dims, dim_cap):
    """Leibniz sum of per-position actions, returned as sparse rows."""
    total = 1
    for d in dims:
        total *= d
    if total > dim_cap:
        raise CapExceededError(f"space dimension {total} exceeds cap {dim_cap}")
    rows: list[dict[int, Fraction]] = [{} for _ in range(total)]
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
        for i in range(d):
            for j in range(d):
                v = mat[i, j]
                if v:
                    cols[j].append((i, exactify(v)))
        cols_by_pos.append(cols)
    for flat in range(total):
        digs = [(flat // strides[k]) % dims[k] for k in range(npos)]
        for k in range(npos):
            base = flat - digs[k] * strides[k]
            for i, v in cols_by_pos[k][digs[k]]:
                dst = base + i * strides[k]
                row = rows[dst]
                row[flat] = row.get(flat, 0) + v
    return rows, total


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
