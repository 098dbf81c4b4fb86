"""Independent reference implementations used only by the tests.

These deliberately avoid the code paths they check: diagram
composition is a union-find over the vertices of the two stacked
diagrams, the twisted-strand composition is a literal graph chase on two
stacked permutation diagrams, the walled predicate and the flip go edge by edge over the
sorted edge list, the orthogonal diagram action is the edge-by-edge delta
product rather than a permute-contract-permute factorization, the
adjoint action forms every commutator as a dense matrix product, the
generic product adds one shifted polynomial per pair of terms, and the
modular echelon form is a whole-matrix Gauss-Jordan over GF(p) on lists.
The tensor multiplicities are solved against the whole sl_n basis, the
route the highest-weight solve replaced, and the closed forms they are
checked against are plain integer recurrences.  The glA dimensions are
checked against the hook length and hook-content formulas over the
partitions of r.  The duality verify is
solved on bases, the route the generator solves replaced: every element
of ``lie_basis`` on the group side and every diagram on the diagram side.
The routes that reading the torus off the weights replaced are kept too:
the Cartan operators as Leibniz sums, the commutant support by a scan of
every entry, and the adjoint transport multiplied in Fractions.

The tests' dense inputs live here as well, since no command builds them:
exact object arrays (``frac_matrix``, ``identity_matrix``,
``matrices_equal``), the Lie algebra bases (``lie_basis``) and uniformly
random diagrams (``random_diagram``).
"""
import itertools
import math
from fractions import Fraction

import numpy as np

from diagramalg.algebra import AlgebraElement, deranged_basis
from diagramalg.diagrams import (BrauerDiagram, Wall, compose, enumerate_diagrams,
                                 enumerate_walled, permutation_to_diagram)
from diagramalg.duality import DualityReport, _combine_methods, _commute
from diagramalg.linalg import (
    DEFAULT_UNKNOWN_CAP,
    LinOp,
    MatrixSpan,
    algebra_closure,
    commutant,
    graded_commutant_dim,
    intertwiner_kernel,
    rows_from_dense,
    solve_sparse_system,
    span_equal,
    sparse_matmul,
    zeros_matrix,
)
from diagramalg.ring import QPoly, exactify
from diagramalg.tensor import (
    AdjointSpace,
    BilinearForm,
    MixedSpace,
    TensorSpace,
    _diagram_rows,
    _lift_entries,
    _walled_rows,
    adjoint_transport_rows,
    deranged_ops,
    derivation_ops_sparse,
    matrix_unit,
    reflection_op,
    weight_vectors,
)


# ---------------------------------------------------------------------------
# dense exact matrices (numpy object arrays of ints and Fractions) and
# random diagrams

def frac_matrix(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=object)
    for i, row in enumerate(rows):
        for j, v in enumerate(row):
            out[i, j] = exactify(v)
    return out


def identity_matrix(d: int) -> np.ndarray:
    out = zeros_matrix(d, d)
    for i in range(d):
        out[i, i] = 1
    return out


def matrices_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a == b).all())


def lie_basis(family: str, n: int) -> list[np.ndarray]:
    """Ordered basis of gl_n, sl_n, sp_n or so_n as exact n x n matrices.

    gl and sl are written down directly, sl in the order of the sl_n
    basis of ``diagramalg.tensor``; sp and so are computed as the exact
    nullspace of X^T G + G X = 0 for the standard Gram matrix G, which
    pins deterministic representatives and doubles as a check of the
    classical dimension formulas.
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
        kernel = solve_sparse_system(rows, n * n, mode="exact").kernel
        return [frac_matrix([v[i * n:(i + 1) * n] for i in range(n)]) for v in kernel]
    raise ValueError(f"unknown family {family!r}")


def random_diagram(m: int, rng) -> BrauerDiagram:
    """Uniformly random diagram, driven by a ``random.Random`` instance."""
    verts = list(range(2 * m))
    rng.shuffle(verts)
    partner = [-1] * (2 * m)
    for v, w in zip(verts[0::2], verts[1::2]):
        partner[v], partner[w] = w, v
    return BrauerDiagram(m, tuple(partner))


def glued_compose(d1: BrauerDiagram, d2: BrauerDiagram):
    """Compose by gluing: a union-find over the 4m vertices of ``d1``
    (0 .. 2m-1) stacked on ``d2`` (2m .. 4m-1), joining every edge of both
    and each bottom vertex of ``d1`` to the top vertex of ``d2`` in its
    column.  Returns (composite, loops): the composite pairs the two
    boundary vertices of each component, and the loops are the components
    with no boundary vertex, those lying only in the middle row."""
    m = d1.m
    assert d2.m == m
    parent = list(range(4 * m))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    def union(v, w):
        parent[find(v)] = find(w)

    for offset, d in ((0, d1), (2 * m, d2)):
        for v, w in d.edges:
            union(offset + v, offset + w)
    for j in range(m):
        union(m + j, 2 * m + j)
    ends: dict[int, list[int]] = {find(v): [] for v in range(4 * m)}
    for k in range(2 * m):  # d1's top vertex k, or d2's bottom vertex k
        ends[find(k if k < m else 2 * m + k)].append(k)
    partner = [-1] * (2 * m)
    for pair in ends.values():
        if pair:
            a, b = pair
            partner[a], partner[b] = b, a
    return BrauerDiagram(m, tuple(partner)), sum(1 for pair in ends.values() if not pair)


def bizarre_compose(p1: BrauerDiagram, p2: BrauerDiagram, wall: Wall):
    """Compose two permutation diagrams by gluing the bottom-left of the
    first to the top-left of the second and the top-right of the first to
    the bottom-right of the second.  Returns (composite, loops).

    Under the flip bijection this matches ordinary walled composition.
    """
    m, r = wall.m, wall.r
    assert p1.m == m and p2.m == m
    assert p1.is_permutation() and p2.is_permutation()

    def mate(tag, v):
        diagram = p1 if tag == 1 else p2
        return (tag, diagram.partner[v])

    def identified(tag, v):
        # interior gluing: (1, bottom j) ~ (2, top j) for j < r,
        #                  (1, top j)    ~ (2, bottom j) for j >= r
        if tag == 1 and v >= m and v - m < r:
            return (2, v - m)
        if tag == 2 and v < m and v < r:
            return (1, v + m)
        if tag == 1 and v < m and v >= r:
            return (2, v + m)
        if tag == 2 and v >= m and v - m >= r:
            return (1, v - m)
        return None

    def boundary_index(tag, v):
        # composite top: (1, top j) j < r and (2, top j) j >= r
        # composite bottom: (2, bottom j) j < r and (1, bottom j) j >= r
        if tag == 1 and v < r:
            return v
        if tag == 2 and r <= v < m:
            return v
        if tag == 2 and m <= v < m + r:
            return v
        if tag == 1 and v >= m + r:
            return v
        return None

    partner = [-1] * (2 * m)
    seen = set()
    for tag0, v0 in [(1, j) for j in range(r)] + [(2, j) for j in range(r, m)] \
            + [(2, m + j) for j in range(r)] + [(1, m + j) for j in range(r, m)]:
        start = boundary_index(tag0, v0)
        if partner[start] != -1:
            continue
        tag, v = mate(tag0, v0)
        seen.add((tag0, v0))
        while boundary_index(tag, v) is None:
            seen.add((tag, v))
            tag, v = identified(tag, v)
            seen.add((tag, v))
            tag, v = mate(tag, v)
        seen.add((tag, v))
        end = boundary_index(tag, v)
        partner[start] = end
        partner[end] = start

    loops = 0
    for tag0 in (1, 2):
        for v0 in range(2 * m):
            if boundary_index(tag0, v0) is not None or (tag0, v0) in seen:
                continue
            loops += 1
            tag, v = tag0, v0
            while (tag, v) not in seen:
                seen.add((tag, v))
                tag, v = mate(tag, v)
                seen.add((tag, v))
                tag, v = identified(tag, v)
    return BrauerDiagram(m, tuple(partner)), loops


def _column(v: int, m: int) -> int:
    return v if v < m else v - m


def reference_is_walled(d: BrauerDiagram, wall: Wall) -> bool:
    """Edge by edge: every horizontal edge crosses the wall and no
    vertical edge does."""
    m = d.m
    for v, w in d.edges:
        left_v = _column(v, m) < wall.r
        left_w = _column(w, m) < wall.r
        horizontal = (v < m) == (w < m)
        if horizontal and left_v == left_w:
            return False
        if not horizontal and left_v != left_w:
            return False
    return True


def reference_flip(d: BrauerDiagram, wall: Wall) -> BrauerDiagram:
    """Swap top and bottom vertices to the right of the wall, edge by edge."""
    m = d.m

    def phi(v: int) -> int:
        if _column(v, m) < wall.r:
            return v
        return v + m if v < m else v - m

    partner = [-1] * (2 * m)
    for v, w in d.edges:
        partner[phi(v)], partner[phi(w)] = phi(w), phi(v)
    return BrauerDiagram(m, tuple(partner))


def orthogonal_diagram_matrix(d: BrauerDiagram, n: int) -> np.ndarray:
    """Edge-product formula for the orthogonal flavour: with the identity
    Gram matrix every edge contributes a plain Kronecker delta, so no
    orientation choices arise."""
    m = d.m
    dim = n ** m
    out = zeros_matrix(dim, dim)

    def digits(flat):
        out_digits = [0] * m
        for k in range(m - 1, -1, -1):
            flat, out_digits[k] = divmod(flat, n)
        return out_digits

    vertical, top_h, bot_h = [], [], []
    for v, w in d.edges:
        if w < m:
            top_h.append((v, w))
        elif v >= m:
            bot_h.append((v - m, w - m))
        else:
            vertical.append((v, w - m))

    for src in range(dim):
        idig = digits(src)
        if any(idig[a] != idig[b] for a, b in bot_h):
            continue
        for dst in range(dim):
            jdig = digits(dst)
            if any(jdig[a] != idig[b] for a, b in vertical):
                continue
            if any(jdig[a] != jdig[b] for a, b in top_h):
                continue
            out[dst, src] = 1
    return out


def sl_coordinates(mat: np.ndarray) -> list:
    """Coordinates of a traceless matrix in the lie_basis('sl', n) order:
    the off-diagonal entries, then the cumulative diagonal sums."""
    n = mat.shape[0]
    coords = [exactify(mat[a, b]) for a in range(n) for b in range(n) if a != b]
    acc = 0
    for a in range(n - 1):
        acc = acc + mat[a, a]
        coords.append(exactify(acc))
    return coords


def dense_ad_action(x: np.ndarray, n: int) -> np.ndarray:
    """Matrix of [x, -] on sl_n from n^2 - 1 dense commutators x b - b x,
    one per element b of lie_basis('sl', n)."""
    basis = lie_basis("sl", n)
    d = len(basis)
    out = zeros_matrix(d, d)
    for j, b in enumerate(basis):
        for i, c in enumerate(sl_coordinates(x @ b - b @ x)):
            if c:
                out[i, j] = c
    return out


def reference_generic_product(a, b):
    """The generic product one pair at a time: each term's coefficient
    product is shifted by its loops and added into a fresh polynomial,
    and the element constructor normalizes the sum again."""
    assert a.x0 is None and b.x0 is None and a.m == b.m
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            res = compose(d1, d2)
            acc = out.get(res.composite, QPoly()) + (c1 * c2).shift(res.loops)
            if acc:
                out[res.composite] = acc
            else:
                out.pop(res.composite, None)
    return AlgebraElement(a.m, out)


def gauss_jordan_modp(rows, ncols: int, p: int):
    """Plain dense Gauss-Jordan over GF(p) on the whole matrix at once.

    Returns (pivot columns, kernel): the kernel is an (ncols x nullity)
    int64 array with one column per free column f, in order, holding 1 at
    f and minus the reduced row's entry at each pivot column.
    """
    m = [[int(x) % p for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, len(m)) if m[i][c]), None)
        if k is None:
            continue
        m[r], m[k] = m[k], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                m[i] = [(a - m[i][c] * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
    free = [f for f in range(ncols) if f not in pivots]
    kernel = np.zeros((ncols, len(free)), dtype=np.int64)
    for k, f in enumerate(free):
        kernel[f, k] = 1
        for r, pc in enumerate(pivots):
            kernel[pc, k] = -m[r][f] % p
    return pivots, kernel


def full_basis_trivial_multiplicity(n: int, r: int, mode: str) -> int:
    """Invariants of sl_n on its r-th tensor power from every
    off-diagonal unit E_ab, each [E_ab, -] formed from dense commutators,
    on the zero-weight coordinates that the weight filter picks."""
    zero = (0,) * n
    support = [i for i, w in enumerate(weight_vectors(AdjointSpace(n, r))) if w == zero]
    rows = []
    for a in range(n):
        for b in range(n):
            if a != b:
                x = zeros_matrix(n, n)
                x[a, b] = 1
                cols = rows_from_dense(dense_ad_action(x, n).T)
                rows += _lift_entries([cols] * r, [n * n - 1] * r, columns=support)[0]
    return solve_sparse_system(rows, len(support), mode=mode, want_kernel=False).nullity


def full_basis_adjoint_multiplicity(n: int, r: int, mode: str) -> int:
    """dim Hom_sl_n(sl_n^(x r), sl_n): the equivariant maps, solved
    against every element of lie_basis('sl', n)."""
    space = AdjointSpace(n, r)
    basis = lie_basis("sl", n)
    left = [derivation_ops_sparse(x, space) for x in basis]
    right = [derivation_ops_sparse(x, AdjointSpace(n, 1)) for x in basis]
    result, _ = intertwiner_kernel(left, right, space.dim, n * n - 1,
                                   mode=mode, want_kernel=False)
    return result.nullity


def riordan(r: int) -> int:
    """Riordan number R(r): R(0) = 1, R(1) = 0 and
    R(r) = (r - 1)(2 R(r-1) + 3 R(r-2)) / (r + 1)."""
    vals = [1, 0]
    for k in range(2, r + 1):
        vals.append((k - 1) * (2 * vals[k - 1] + 3 * vals[k - 2]) // (k + 1))
    return vals[r]


def derangement_number(k: int) -> int:
    """N(k) from N(0) = 1, N(1) = 0 and N(k) = (k - 1)(N(k-1) + N(k-2))."""
    a, b = 1, 0
    for j in range(2, k + 1):
        a, b = b, (j - 1) * (a + b)
    return a if k == 0 else b


def closed_form_multiplicity(n: int, r: int, adjoint: bool):
    """Multiplicity of the trivial module (of sl_n itself if ``adjoint``)
    in sl_n^(x r) where a closed form gives it, else None.

    For sl_2 the invariants of the r-th power are counted by the Riordan
    number R(r).  In the stable range n >= r they are N(r): one product
    of traces along the cycles of each fixed-point-free permutation.  The
    adjoint multiplicity in the r-th power is the invariant count of the
    (r+1)-st, by self-duality."""
    k = r + 1 if adjoint else r
    if n == 2:
        return riordan(k)
    if n >= k:
        return derangement_number(k)
    return None


def partitions(r: int, max_parts: int, largest: int | None = None):
    """The partitions of r into at most ``max_parts`` parts (each at most
    ``largest``), as weakly decreasing tuples, largest first part first."""
    if r == 0:
        yield ()
    elif max_parts > 0:
        for first in range(min(r, largest or r), 0, -1):
            for rest in partitions(r - first, max_parts - 1, first):
                yield (first,) + rest


def _hooks_and_contents(shape) -> list[tuple[int, int]]:
    """(hook length, content j - i) of each box (i, j) of the Young diagram."""
    columns = [sum(1 for part in shape if part > j) for j in range(max(shape, default=0))]
    return [(shape[i] - j + columns[j] - i - 1, j - i)
            for i in range(len(shape)) for j in range(shape[i])]


def standard_tableaux(shape) -> int:
    """f^shape by the hook length formula (Frame, Robinson and Thrall 1954):
    r! over the product of the hook lengths."""
    return math.factorial(sum(shape)) // math.prod(h for h, _ in _hooks_and_contents(shape))


def gl_irrep_dim(shape, n: int) -> int:
    """dim V_shape of GL_n by the hook-content formula (Stanley, EC2,
    Cor. 7.21.4): the product of (n + content) / hook over the boxes."""
    boxes = _hooks_and_contents(shape)
    return math.prod(n + c for _, c in boxes) // math.prod(h for h, _ in boxes)


def full_basis_verify(family: str, n: int, r: int, s=None, mode: str = "auto",
                      solver_cap: int = DEFAULT_UNKNOWN_CAP) -> DualityReport:
    """``verify_duality`` solved on bases: the derived action of every
    element of ``lie_basis`` on the group side (the commutant solves and
    the closure seed alike) and every diagram in the diagram commutant."""
    kind = {"glA": "gl", "walled": "gl", "deranged": "gl", "sp": "sp"}.get(family, "so")
    space = (AdjointSpace(n, r) if family == "deranged" else
             TensorSpace(n, r) if s is None else MixedSpace(n, r, s))
    d = space.dim
    gens = [derivation_ops_sparse(x, space) for x in lie_basis(kind, n)]
    if family in ("o", "so-direct"):
        gens.append(reflection_op(n, r))

    def count(ops, solve_mode=mode, want_basis=False):
        return commutant(ops, d, mode=solve_mode, want_basis=want_basis, unknown_cap=solver_cap)

    if family == "so-direct":
        (_, so_comm), (_, o_comm) = count(gens[:-1]), count(gens)
        dims = {"group_image": None, "diagram_image": None,
                "commutant_of_diagram": None, "commutant_of_group": so_comm.nullity}
        extra = {"so_commutant": so_comm.nullity, "o_commutant": o_comm.nullity,
                 "proper_subalgebra": o_comm.nullity < so_comm.nullity}
        return DualityReport(family, n, r, None, dims, None, None, None,
                             _combine_methods(so_comm.method, o_comm.method), extra=extra)
    if family == "deranged":
        diagram_ops = deranged_ops([AlgebraElement.from_diagram(el.diagram, 1, n)
                                    for el in deranged_basis(r, n)], n, r)
        diagram_span = MatrixSpan.from_matrices(diagram_ops, d)
        comm_span, comm_group = count(gens, "auto" if mode == "modular" else mode, True)
        equal_b = span_equal(diagram_span, comm_span)
        if not equal_b and not _commute(gens, diagram_ops):
            raise ArithmeticError("group and diagram actions fail to commute")
        comm_diag, graded_method = graded_commutant_dim(
            diagram_ops, weight_vectors(space), mode="exact" if mode == "exact" else "modular")
        dims = {"group_image": comm_diag if equal_b else None,
                "diagram_image": diagram_span.dim, "commutant_of_diagram": comm_diag,
                "commutant_of_group": comm_group.nullity}
        return DualityReport(family, n, r, r, dims, True if equal_b else None, equal_b,
                             diagram_span.dim == len(diagram_ops),
                             _combine_methods(comm_group.method, graded_method),
                             extra={"group_image_via": "double commutant"})
    if family == "glA":
        diagrams = map(permutation_to_diagram, itertools.permutations(range(r)))
    else:
        diagrams = enumerate_walled(Wall(r, s)) if family == "walled" else enumerate_diagrams(r)
    form = BilinearForm("symplectic" if family == "sp" else "symmetric", n)
    diagram_ops = [LinOp(d, _diagram_rows(x, n, form)) for x in diagrams]
    if not _commute(gens, diagram_ops):
        raise ArithmeticError("group and diagram actions fail to commute")
    diagram_span = MatrixSpan.from_matrices(diagram_ops, d)
    _, comm_diag = count(diagram_ops)
    group_span = algebra_closure(gens, d, bound=comm_diag.nullity)
    _, comm_group = count(gens)
    equal_a = group_span.dim == comm_diag.nullity
    equal_b = diagram_span.dim == comm_group.nullity
    methods = ["mod-p-confirmed-exact" if equal and res.method.startswith("mod-p(")
               else res.method for res, equal in ((comm_diag, equal_a), (comm_group, equal_b))]
    dims = {"group_image": group_span.dim, "diagram_image": diagram_span.dim,
            "commutant_of_diagram": comm_diag.nullity, "commutant_of_group": comm_group.nullity}
    return DualityReport(family, n, r, s, dims, equal_a, equal_b,
                         diagram_span.dim == len(diagram_ops),
                         _combine_methods("exact", *methods))


def scanned_support(left_ops, right_ops, dim_w: int, dim_u: int) -> list[tuple[int, int]]:
    """The unknowns of ``intertwiner_kernel`` by a scan of all dim_w * dim_u
    entries: (i, u) is kept when every diagonal pair agrees there."""
    diags = [(l.diagonal_vector(), r.diagonal_vector()) for l, r in zip(left_ops, right_ops)]
    diags = [(dl, dr) for dl, dr in diags if dl is not None and dr is not None]
    return [(i, u) for i in range(dim_w) for u in range(dim_u)
            if all(dl[i] == dr[u] for dl, dr in diags)]


def derived_cartan_ops(kind: str, space) -> list[LinOp]:
    """The Cartan operators of gl_n (E_aa) or sp_n (E_ii - E_(m+i)(m+i),
    m = n/2) as the Leibniz sums of their derived actions."""
    n, m = space.n, space.n // 2
    xs = ([matrix_unit(n, i, i) - matrix_unit(n, m + i, m + i) for i in range(m)]
          if kind == "sp" else [matrix_unit(n, a, a) for a in range(n)])
    return [derivation_ops_sparse(x, space) for x in xs]


def fraction_deranged_ops(els, n: int, r: int) -> list[LinOp]:
    """``deranged_ops`` multiplied in Fractions: the coordinate map times
    each element's mixed rows times the inclusion."""
    incl, coords = adjoint_transport_rows(n, r)
    space = MixedSpace(n, r, r)
    return [LinOp(len(coords), sparse_matmul(sparse_matmul(coords, _walled_rows(el, space)),
                                             incl)) for el in els]
