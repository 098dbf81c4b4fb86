"""Exact matrices for diagram algebras and Lie algebras on tensor space.

Conventions, fixed once and pinned by the multiplicativity tests:

* Tensor space bases are ordered row-major with the leftmost factor most
  significant.
* Every diagram acts by one edge rule.  Input indices sit on the bottom
  row and output indices on the top row; a vertical edge copies an
  index, a bottom edge (a, b), a < b, pairs the two inputs through the
  Gram matrix of the form, and a top edge (a, b), a < b, emits the dual
  element, the entries of the inverse Gram matrix.  This makes
  ``_element_rows``, the sparse rows of a specialized element, an
  algebra homomorphism for the diagram product.
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
  position, built by one lift over each position's nonzeros: a digit with
  a nonzero action walks the settings of the other digits, and no column
  is decoded.  On adjoint positions [x, -] is read from the sparse
  structure of the sl_n basis, without dense commutators.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import AlgebraElement, RingMismatchError
from .diagrams import (
    BrauerDiagram,
    CapExceededError,
    Wall,
    inverse_word,
    is_walled,
    permutation_to_diagram,
    word_sign,
)
from .ring import exactify
from .linalg import (
    DEFAULT_UNKNOWN_CAP,
    LinOp,
    _nonzeros,
    dense_from_rows,
    sparse_matmul,
    sparse_scale_add,
    zeros_matrix,
)

DEFAULT_DIM_CAP = 65536
DENSE_DIM_CAP = 4096


class SpecializationError(ValueError):
    """The element's specialization does not match the target space."""


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
class TensorSpace(MixedSpace):
    """V tensored with itself r times, V = Q^n: the mixed space with no
    dual factors."""

    s: int = 0

    def __post_init__(self):
        if self.n < 2 or self.r < 1 or self.s != 0:
            raise ValueError(f"need n >= 2 and r >= 1, got ({self.n}, {self.r})")


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

    @functools.cached_property
    def nonzeros(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """Nonzero (row, column, value) triples of ``gram`` and ``gram_inv``, read once."""
        return tuple(tuple((u, v, c) for u, row in enumerate(mat.tolist())
                           for v, c in enumerate(row) if c) for mat in (self.gram, self.gram_inv))


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
    pair, emit = form.nonzeros
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
        sparse_scale_add(acc, exactify(c), _diagram_rows(d, n, form))
    return acc


# ---------------------------------------------------------------------------
# specialized elements; on mixed tensor space the V / V* pairing is the
# identity form

def _check_specialized(el: AlgebraElement, m: int, x0, action: str, n: int) -> None:
    """An element acting on m tensor factors of Q^n: m columns, specialized at x0."""
    if el.m != m:
        raise ValueError(f"element on {el.m} columns against {m} tensor factors")
    if el.x0 is None:
        raise RingMismatchError("specialize the element before representing it")
    if el.x0 != x0:
        raise SpecializationError(f"x0={el.x0} but the {action} action on n={n} needs x0={x0}")


def _walled_rows(el: AlgebraElement, space: MixedSpace) -> list[dict[int, Fraction]]:
    """Sparse rows of a walled element on a space its caller has capped."""
    wall = Wall(space.r, space.s)
    _check_specialized(el, wall.m, space.n, "mixed", space.n)
    if not el.is_supported_walled(wall):
        raise ValueError("element is not supported on walled diagrams")
    return _element_rows(el, space.n, BilinearForm("symmetric", space.n))


# ---------------------------------------------------------------------------
# matrix units, the sl_n basis and derived actions

def matrix_unit(n: int, a: int, b: int) -> np.ndarray:
    out = zeros_matrix(n, n)
    out[a, b] = 1
    return out


def raising_units(kind: str, n: int) -> list[np.ndarray]:
    """Simple raising root vectors: E_(a,a+1) of gl_n, or of sp_n (block Gram,
    m = n/2) E_(i,i+1) - E_(m+i+1,m+i) for i < m - 1, and E_(m-1,n-1)."""
    m, e = n // 2, functools.partial(matrix_unit, n)
    if kind == "sp":
        return [e(i, i + 1) - e(m + i + 1, m + i) for i in range(m - 1)] + [e(m - 1, n - 1)]
    return [e(a, a + 1) for a in range(n - 1)]


# The sl_n basis used throughout, by its sparse structure: the
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
    h = n * n - n
    # the bracket of column j: off-diagonal entries by sl coordinate, diagonal ones by index
    brackets: dict[int, tuple[dict[int, object], dict[int, object]]] = {}

    def add(j, i, k, v):
        off, diag = brackets.setdefault(j, ({}, {}))
        e, key = (off, _sl_off(n, i, k)) if i != k else (diag, i)
        e[key] = e.get(key, 0) + v

    for k, v in _nonzeros(x).items():
        a, b = divmod(k, n)
        v = exactify(v)
        for j, c, w in _sl_line(n, b):
            add(j, a, c, v * w)
        for j, i, w in _sl_line(n, a, column=True):
            add(j, i, b, -w * v)
    cols: list[dict[int, object]] = [{} for _ in range(n * n - 1)]
    for j, (off, diag) in brackets.items():
        col, acc = cols[j], 0
        for i in sorted(off):
            if off[i]:
                col[i] = exactify(off[i])
        for a in range(min(diag, default=n), n - 1):
            acc += diag.get(a, 0)
            if acc:
                col[h + a] = exactify(acc)
    return cols


def _lift_entries(action_cols, dims, columns=None):
    """Leibniz sum of per-position actions, each given by its sparse
    columns, returned as sparse rows of nonzeros.

    Each position k and digit t with a nonzero action walks the settings
    of the other digits; an entry off the diagonal is reached once, and a
    diagonal entry that cancels across positions is dropped.  ``columns``
    restricts the sum to those source columns, renumbered in the given
    order; then only the rows it touches come back, in target order."""
    strides = [math.prod(dims[k + 1:]) for k in range(len(dims))]
    total = strides[0] * dims[0]
    # moves[k][t]: (target offset, value) of position k's action on digit t
    moves = [[[((i - t) * s, v) for i, v in col.items() if v] for t, col in enumerate(cols)]
             for cols, s in zip(action_cols, strides)]
    if columns is not None:
        touched: dict[int, dict[int, Fraction]] = {}
        for col, flat in enumerate(columns):
            for k, s in enumerate(strides):
                for delta, v in moves[k][flat // s % dims[k]]:
                    row = touched.get(flat + delta)
                    if row is None:
                        row = touched[flat + delta] = {}
                    row[col] = row.get(col, 0) + v
                    if not row[col]:
                        del row[col]
        return [touched[dst] for dst in sorted(touched)], total
    rows: list[dict[int, Fraction]] = [{} for _ in range(total)]
    for k, s in enumerate(strides):
        others = [hi + lo for hi in range(0, total, dims[k] * s) for lo in range(s)]
        for t, pairs in enumerate(moves[k]):
            flats = [f + t * s for f in others] if pairs else ()
            for delta, v in pairs:
                if delta:
                    for f in flats:
                        rows[f + delta][f] = v
                    continue
                for f in flats:
                    rows[f][f] = rows[f].get(f, 0) + v
                    if not rows[f][f]:
                        del rows[f][f]
    return rows, total


def _sparse_cols(x: np.ndarray) -> list[dict[int, object]]:
    """Columns of a small dense matrix as sparse {row: value} dicts."""
    return [{i: exactify(v) for i, v in enumerate(col) if v} for col in x.T.tolist()]


def _position_actions(x: np.ndarray, space):
    if isinstance(space, MixedSpace):
        # dual positions act by -x^T
        cols, dual = _sparse_cols(x), _sparse_cols(-x.T)
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


def reflection_op(n: int, r: int) -> LinOp:
    """Tensor power of diag(-1, 1, ..., 1), as a diagonal ``LinOp``: the
    determinant -1 element that extends rotations to the full orthogonal group."""
    space = TensorSpace(n, r)
    check_dim(space)
    return LinOp(space.dim, [{i: (-1) ** digs.count(0)} for i, digs in
                             enumerate(itertools.product(range(n), repeat=r))])


# ---------------------------------------------------------------------------
# the adjoint summand of mixed tensor space

def _gl_sl_cols(n: int) -> tuple[list[dict], list[dict]]:
    """The columns of (S, T) as sparse {row: value} dicts: S embeds sl
    coordinates into gl = V (x) V* coordinates, T projects a matrix to its
    trace-free part in sl coordinates, and T S is the identity on sl.
    Both are read from the sparse structure of the sl basis; the
    trace-free part of E_aa has h_c coordinate [a <= c] - (c+1)/n."""
    s_cols: list[dict] = [{} for _ in range(n * n - 1)]
    t_cols: list[dict] = [{} for _ in range(n * n)]
    for a, b in itertools.permutations(range(n), 2):
        s_cols[_sl_off(n, a, b)][a * n + b] = t_cols[a * n + b][_sl_off(n, a, b)] = 1
    for a in range(n):
        for j, _, w in _sl_line(n, a)[n - 1:]:
            s_cols[j][a * n + a] = w
        for c in range(n - 1):
            t_cols[a * n + a][n * n - n + c] = Fraction(n * (a <= c) - c - 1, n)
    return s_cols, t_cols


def _power_cols(cols: list[dict], offsets: list[list[int]]) -> list[list[tuple]]:
    """Sparse columns of a tensor power, built position by position from the
    factor's nonzeros: a (flat row, value) list per column, columns in
    lexicographic order, row i of position j at flat offset ``offsets[j][i]``."""
    power = [[(0, 1)]]
    for offs in offsets:
        power = [[(f + offs[i], c * w) for f, c in col for i, w in factor.items()]
                 for col in power for factor in cols]
    return power


def adjoint_transport_rows(n: int, r: int) -> tuple[list[dict], list[dict]]:
    """(inclusion, coordinates) between the adjoint power and mixed
    (r, r) tensor space as sparse rows, using the equivariant
    identification of V (x) V* with n x n matrices: the r-th tensor
    powers of the pair (S, T) of :func:`_gl_sl_cols`, with the V digits
    moved before the V* ones."""
    space, d = MixedSpace(n, r, r), n * n - 1
    check_dim(space)
    s_cols, t_cols = _gl_sl_cols(n)
    # the mixed offset of gl index a * n + b in position j: V digit a, V* digit b
    gl_offsets = [[a * n ** (2 * r - 1 - j) + b * n ** (r - 1 - j)
                   for a in range(n) for b in range(n)] for j in range(r)]
    incl: list[dict] = [{} for _ in range(space.dim)]
    coords: list[dict] = [{} for _ in range(d ** r)]
    for aflat, col in enumerate(_power_cols(s_cols, gl_offsets)):
        for row, c in col:
            incl[row][aflat] = c
    # the mixed flat of each gl column, read off the power of the identity
    mixed = [col[0][0] for col in _power_cols([{g: 1} for g in range(n * n)], gl_offsets)]
    t_power = _power_cols(t_cols, [[k * d ** (r - 1 - j) for k in range(d)] for j in range(r)])
    for mflat, col in zip(mixed, t_power):
        for row, c in col:
            coords[row][mflat] = c
    return incl, coords


def deranged_ops(els: list[AlgebraElement], n: int, r: int) -> list[LinOp]:
    """Actions of sandwiched walled elements on the adjoint power,
    transported from mixed tensor space through one transport pair, which
    checks the mixed space once, and multiplied sparsely in integers: the
    coordinate map scaled by n^r (its denominators divide it), each
    element by its common denominator, and each product divided once."""
    def scaled(rows, s):
        return [{j: c.numerator * (s // c.denominator) for j, c in row.items()} for row in rows]

    incl, coords = adjoint_transport_rows(n, r)
    coords, ops = scaled(coords, n ** r), []
    for el in els:
        m = _walled_rows(el, MixedSpace(n, r, r))
        den = math.lcm(*(c.denominator for row in m for c in row.values()))
        rows = sparse_matmul(sparse_matmul(coords, scaled(m, den)), incl)
        ops.append(LinOp(len(coords), [{j: Fraction(x, n ** r * den) for j, x in row.items()}
                                       for row in rows]))
    return ops


# ---------------------------------------------------------------------------
# weight bookkeeping for the graded solvers

def _sl_weights(n: int) -> list[tuple[int, ...]]:
    """Torus weight of each element of the sl_n basis: e_a - e_b for
    E_ab, zero for the diagonal elements."""
    return [tuple((c == a) - (c == b) for c in range(n))
            for a, b in itertools.permutations(range(n), 2)] + [(0,) * n] * (n - 1)


def _position_weights(space, kind: str = "gl") -> list[list[tuple[int, ...]]]:
    """Torus weights of each position's basis: gl_n ones, or sp_n ones w_i - w_(m+i)."""
    n, m = space.n, space.n // 2
    units = [tuple(int(c == a) for c in range(n)) for a in range(n)]
    if isinstance(space, MixedSpace):
        per_pos = [units] * space.r + [[tuple(-c for c in w) for w in units]] * space.s
    elif isinstance(space, AdjointSpace):
        per_pos = [_sl_weights(n)] * space.r
    else:
        raise TypeError(f"unknown space {space!r}")
    if kind == "sp":  # positions that share a gl list share its projection
        sp = {id(ws): [tuple(w[i] - w[m + i] for i in range(m)) for w in ws] for ws in per_pos}
        return [sp[id(ws)] for ws in per_pos]
    return per_pos


def _weight_support(space, weight: tuple[int, ...], kind: str = "gl") -> list[int]:
    """Indices of the basis vectors of ``space`` of the given weight, ascending:
    the head positions grouped by partial weight, one position at a time, each
    group completed by the last factors of its missing weight.  In a space past
    the solver cap the groups are counted first, so an oversized one is refused at once."""
    per_pos = _position_weights(space, kind)
    lists = {id(ws): ws for ws in per_pos}  # positions share their weight lists
    # weights as integers in base 2b + 1, b bounding every coordinate difference met: codes add
    b = 2 * (max(map(abs, weight)) + len(per_pos) * max(
        map(abs, itertools.chain.from_iterable(itertools.chain.from_iterable(lists.values())))))
    powers = [(2 * b + 1) ** i for i in range(len(weight))]
    for key, ws in lists.items():
        lists[key] = classes = {}  # code -> its indices, ascending
        for k, w in enumerate(ws):
            classes.setdefault(sum(map(operator.mul, w, powers)), []).append(k)
    *head, last = [lists[id(ws)] for ws in per_pos]
    target, groups = sum(map(operator.mul, weight, powers)), {0: [0]}
    if space.dim > DEFAULT_UNKNOWN_CAP:  # else no weight space can outnumber the cap
        counts = {0: 1}
        for ws in head:
            counts, before = {}, counts
            for w, n in before.items():
                for v, ks in ws.items():
                    counts[w + v] = counts.get(w + v, 0) + n * len(ks)
        if sum(n * len(last.get(target - w, ())) for w, n in counts.items()) > DEFAULT_UNKNOWN_CAP:
            raise CapExceededError(f"weight {weight} has more than {DEFAULT_UNKNOWN_CAP} "
                                   f"unknowns, the solver cap")
    for ws in head:
        groups, before, size = {}, groups, sum(map(len, ws.values()))
        for w, ps in before.items():
            for v, ks in ws.items():
                groups.setdefault(w + v, []).extend(p * size + k for p in ps for k in ks)
    size = sum(map(len, last.values()))
    return sorted(p * size + k for w, ps in groups.items() for k in last.get(target - w, ())
                  for p in ps)


def weight_vectors(space, kind: str = "gl") -> list[tuple[int, ...]]:
    """Torus weight of every basis vector, as an integer tuple per index.

    These are the diagonals of the derived actions of the diagonal matrix
    units (of the sp_n Cartan elements for kind 'sp'); generators that
    commute with the torus preserve them."""
    return [tuple(map(sum, zip(*ws))) for ws in itertools.product(*_position_weights(space, kind))]


# ---------------------------------------------------------------------------
# Dense builders.  No command calls them: every verify route carries its
# operators as sparse ``LinOp``s.  They stay because ``bench/tracer.py``
# wraps each one by name (``TENSOR_BUILDERS``, bound with ``getattr`` and
# no default), until the benchmark reads the program's own trace instead.

def sigma_perm(word, space: TensorSpace) -> np.ndarray:
    """Permutation matrix of the place permutation of ``word``: the
    matrix of the permutation diagram of the inverse word."""
    if sorted(word) != list(range(space.r)):
        raise ValueError(f"not a permutation word of length {space.r}: {word!r}")
    return diagram_matrix(permutation_to_diagram(inverse_word(word)), space,
                          BilinearForm("symmetric", space.n))


def diagram_matrix(d: BrauerDiagram, space: TensorSpace, form: BilinearForm) -> np.ndarray:
    """Matrix of one diagram, read edge by edge: vertical edges copy an
    index, bottom edges pair two inputs with the form, top edges emit the
    form's dual element.  The symplectic flavour multiplies by the signs
    of the top and bottom reading words."""
    check_dim(space, DENSE_DIM_CAP)
    if d.m != space.r:
        raise ValueError(f"diagram on {d.m} columns against r={space.r}")
    return dense_from_rows(_diagram_rows(d, space.n, form), space.dim)


def mixed_diagram_matrix(d: BrauerDiagram, space: MixedSpace) -> np.ndarray:
    """Walled diagram on V^(x r) (x) (V*)^(x s), all entries 0/1: bottom
    horizontal edges pair a vector with a covector, top horizontal edges
    emit the identity element of V (x) V*."""
    check_dim(space, DENSE_DIM_CAP)
    wall = Wall(space.r, space.s)
    if d.m != wall.m:
        raise ValueError(f"diagram on {d.m} columns against r+s={wall.m}")
    if not is_walled(d, wall):
        raise ValueError("diagram does not respect the wall")
    return dense_from_rows(_diagram_rows(d, space.n, BilinearForm("symmetric", space.n)),
                           space.dim)


def derivation_action(x: np.ndarray, space) -> np.ndarray:
    """Dense matrix of :func:`derivation_ops_sparse`, for spaces within
    the dense cap."""
    check_dim(space, DENSE_DIM_CAP)
    return derivation_ops_sparse(x, space).to_dense()


def reflection_matrix(n: int, r: int) -> np.ndarray:
    """Dense matrix of :func:`reflection_op`."""
    check_dim(TensorSpace(n, r), DENSE_DIM_CAP)
    return reflection_op(n, r).to_dense()


def ad_action(x: np.ndarray, n: int) -> np.ndarray:
    """Matrix of [x, -] on sl_n in the coordinates of the sl_n basis,
    read from the sparse structure constants of sl_n and densified.

    Defined for any x in gl_n: commutators with a traceless matrix stay
    traceless.  Entries are plain ints where the denominator is 1."""
    return dense_from_rows(_ad_cols(x, n), n * n - 1).T.copy()


def adjoint_transport(n: int, r: int) -> tuple[np.ndarray, np.ndarray]:
    """Dense matrices of :func:`adjoint_transport_rows`."""
    check_dim(MixedSpace(n, r, r), DENSE_DIM_CAP)
    incl, coords = adjoint_transport_rows(n, r)
    return dense_from_rows(incl, len(coords)), dense_from_rows(coords, len(incl))


def deranged_matrix(el: AlgebraElement, n: int, r: int) -> np.ndarray:
    """Dense matrix of one element's action, as :func:`deranged_ops`."""
    check_dim(MixedSpace(n, r, r), DENSE_DIM_CAP)
    return deranged_ops([el], n, r)[0].to_dense()
