"""Double-centralizer verification.

For each family the engine builds the group side (the derived action of
root vectors, plus one reflection for the full orthogonal group) and the
diagram side.  glA, o, sp and walled build only the images of the diagram
algebra's generators, which generate the diagram image: a diagram acts
multiplicatively and a closed loop scales by +-n, never 0.  Both
containments hold exactly when the group generators commute with these
images, checked exactly, once, on sparse rows (a failure raises
ArithmeticError).  Both images are semisimple: the group image is
sum End(V_mu), the diagram image is closed under transpose (deranged's is
a corner e B e of a walled Brauer algebra, semisimple for n >= 2r - 1).
So for A inside B', A = B' exactly when B = A', and then dim B = dim A'
(double commutant theorem; Goodman and Wallach, GTM 255, 4.1-4.2): a
route needs both commutants but one image.  One rule (``_report``) reads
the other image off them, and ``faithful`` compares the diagram image,
where known, with the number of diagrams, r!, (2r-1)!!, (r+s)! or N(2r).

glA, walled and sp compute the group image from V = sum V_mu (x) M_mu, a
sum of pairwise distinct irreducibles V_mu of gl_n or sp_n (dimension by
Weyl's formula) with M_mu their highest-weight vectors: the group
commutant is sum m_mu^2, the group image sum (dim V_mu)^2, and End_A(V)
of the diagram image A is sum Hom(V_mu, V_nu) (x) Hom_A(M_mu, M_nu),
solved on small matrices.  The identity Gram of o has no rational raising
operator: there both commutants are solved on generators, and the image
that the smaller one bounds is closed (residues modulo one prime, then
exact): the diagram image if the group commutant is smaller, else the
group image.  ``solver_cap`` bounds the unknowns of each system.  Deranged
spans its diagram image, proves it equal to the exactly solved group
commutant, and counts the diagram commutant by one graded solve, modulo
two primes unless the exact mode is requested.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import asdict, dataclass, field

from .diagrams import CapExceededError, Wall, c_generator, permutation_to_diagram, wall_generator
from .combinatorics import _highest_weight_equations, diagram_count, walled_count
from .linalg import (
    DEFAULT_UNKNOWN_CAP,
    LinOp,
    MatrixSpan,
    algebra_closure,
    check_unknowns,
    commutant,
    graded_commutant_dim,
    intertwiner_kernel,
    solve_sparse_system,
    span_equal,
)
from .tensor import (
    DENSE_DIM_CAP,
    AdjointSpace,
    BilinearForm,
    MixedSpace,
    TensorSpace,
    _diagram_rows,
    check_dim,
    deranged_ops,
    derivation_ops_sparse,
    raising_units,
    reflection_op,
    weight_vectors,
)

FAMILIES = ("glA", "sp", "o", "so-direct", "walled", "deranged")
MODES = ("auto", "exact")


@dataclass
class DualityReport:
    """Outcome of one double-centralizer verification."""

    family: str
    n: int
    r: int
    s: int | None
    dims: dict
    equal_a: bool | None
    equal_b: bool | None
    faithful: bool | None
    method: str
    elapsed_ms: int | None = None
    extra: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        """The fields in order, then the ``extra`` keys."""
        out = asdict(self)
        out.update(out.pop("extra"))
        return out

    @property
    def verified(self) -> bool:
        return bool(self.equal_a) and bool(self.equal_b)


def _combine_methods(*labels: str) -> str:
    if all(l == "exact" for l in labels):
        return "exact"
    if all(l in ("exact", "mod-p-confirmed-exact") for l in labels):
        return "mod-p-confirmed-exact"
    mods = [l for l in labels if l.startswith("mod-p(")]
    return mods[0] if mods else "mod-p"


def _generators(kind: str, space) -> list[LinOp]:
    """Derived actions on ``space``, as Leibniz sums, of the simple root
    vectors of gl_n or sp_n (block Gram, m = n/2), or of so_n's adjacent
    rotations (identity Gram).  Their brackets give the Cartan elements, so
    whatever commutes with these commutes with the whole Lie algebra and
    preserves torus weights; with o's reflection, words in them span the
    group image."""
    raising = raising_units(kind, space.n)
    roots = [x - x.T for x in raising] if kind == "so" else raising + [x.T for x in raising]
    return [derivation_ops_sparse(x, space) for x in roots]


def _torus(weights: list[tuple[int, ...]]) -> list[LinOp]:
    """Cartan elements, diagonal: each acts by one coordinate of the weights."""
    return [LinOp(len(weights), [{i: v} if v else {} for i, v in enumerate(col)])
            for col in zip(*weights)]


def _diagram_generators(family: str, r: int, s: int | None) -> list:
    """Diagrams generating a span family's diagram algebra: adjacent
    transpositions (not across the wall), and one contraction for o and sp
    (Brauer 1937), or one crossing the wall (Benkart et al. 1994)."""
    w = list(range(r + (s or 0)))
    gens = [permutation_to_diagram(w[:j] + [j + 1, j] + w[j + 2:])
            for j in range(len(w) - 1) if s is None or j != r - 1]
    if family in ("o", "sp") and r > 1:
        gens.append(c_generator(r, 1, 2))
    if family == "walled" and r and s:
        gens.append(wall_generator(Wall(r, s), r, 1))
    return gens


# family -> (its number of diagrams, the Lie algebra of ``_generators``).  Walled
# acts on mixed tensor space, sp by the symplectic form; o adds the reflection.
_SIDES = {
    "glA": (lambda r, s: math.factorial(r), "gl"),
    "o": (lambda r, s: diagram_count(r), "so"),
    "sp": (lambda r, s: diagram_count(r), "sp"),
    "walled": (walled_count, "gl"),
}


def _weyl_dim(kind: str, mu: tuple) -> int:
    """dim V_mu by Weyl's formula: over the positive roots a of gl_n (e_i - e_j)
    or sp_n (also e_i + e_j, 2 e_i), the product of <mu + rho, a> / <rho, a>, rho = (m, .., 1)."""
    m = len(mu)
    roots = [(i, j, -1) for i, j in itertools.combinations(range(m), 2)]
    if kind == "sp":
        roots += [(i, j, 1) for i, j in itertools.combinations_with_replacement(range(m), 2)]
    rho = range(m, 0, -1)
    l = [x + y for x, y in zip(mu, rho)]
    return (math.prod(l[i] + c * l[j] for i, j, c in roots)
            // math.prod(rho[i] + c * rho[j] for i, j, c in roots))


def _multiplicity_spaces(space, kind: str, diagram_gens, mode: str, solver_cap: int):
    """(mu, dim V_mu, m_mu, [A_mu(g) for each g]) for each dominant weight mu
    with m_mu > 0, decreasing, and the solve tags.  M_mu is the kernel of the
    raising equations on the weight-mu indices; each kernel vector is 1 at
    its own free column (its first key) and 0 at the others, so A_mu(g)
    is read off the free-column entries of g v."""
    blocks, methods = [], []
    for mu in sorted(set(weight_vectors(space, kind)), reverse=True):
        if any(a < b for a, b in zip(mu, mu[1:] + (0,) * (kind == "sp"))):
            continue
        rows, support = _highest_weight_equations(space, mu, kind)
        check_unknowns(len(support), solver_cap)
        res = solve_sparse_system(rows, len(support), mode=mode)
        methods.append(res.method)
        if res.nullity:
            pos = {j: k for k, j in enumerate(support)}
            free = [support[next(iter(v))] for v in res.kernel]
            blocks.append((mu, _weyl_dim(kind, mu), res.nullity, [LinOp(res.nullity, [
                {k: c for k, v in enumerate(res.kernel)
                 if (c := sum(x * v.get(pos[j], 0) for j, x in g.rows[f].items()))} for f in free])
                for g in diagram_gens]))
    return blocks, methods


def _verify_span_family(family, n, r, s, mode, solver_cap):
    space = TensorSpace(n, r) if s is None else MixedSpace(n, r, s)
    check_dim(space, DENSE_DIM_CAP)  # every operator has d rows, every weight space <= d unknowns
    count, kind = _SIDES[family]
    d, gen_ops = space.dim, _generators(kind, space)
    if family == "o":
        gen_ops.append(reflection_op(n, r))
    form = BilinearForm("symplectic" if family == "sp" else "symmetric", n)
    diagram_gens = [LinOp(d, _diagram_rows(x, n, form)) for x in _diagram_generators(family, r, s)]
    if not _commute(gen_ops, diagram_gens):
        raise ArithmeticError("group and diagram actions fail to commute")
    if family == "o":
        solves = [commutant(ops, d, mode=mode, want_basis=False, unknown_cap=solver_cap)[1]
                  for ops in (diagram_gens, gen_ops)]
        comm_diag, comm_group = (res.nullity for res in solves)
        methods = [res.method for res in solves]
        # each image lies in the other side's commutant, a proven bound: close the smaller
        if comm_group < comm_diag:
            image = {"diagram_image": algebra_closure(diagram_gens, d, bound=comm_group).dim}
            via = "double commutant"
        else:
            image = {"group_image": algebra_closure(gen_ops, d, bound=comm_diag).dim}
            via = "closure"
    else:
        blocks, methods = _multiplicity_spaces(space, kind, diagram_gens, mode, solver_cap)
        if sum(dim_v * m for _, dim_v, m, _ in blocks) != d:
            raise ArithmeticError("the highest-weight vectors do not account for every dimension")
        check_unknowns(max(m * m for _, _, m, _ in blocks), solver_cap)  # the largest Hom system
        homs = [(dim_mu * dim_nu, intertwiner_kernel(a_nu, a_mu, m_nu, m_mu, mode=mode,
                                                     want_kernel=False, unknown_cap=solver_cap)[0])
                for (_, dim_mu, m_mu, a_mu), (_, dim_nu, m_nu, a_nu) in
                itertools.product(blocks, repeat=2)]
        image = {"group_image": sum(dim_v * dim_v for _, dim_v, _, _ in blocks)}
        comm_diag = sum(k * hom.nullity for k, hom in homs)
        comm_group = sum(m * m for _, _, m, _ in blocks)
        methods += [hom.method for _, hom in homs]
        via = "highest weights"
    return _report(family, n, r, s, count(r, s), comm_diag, comm_group, ["exact", *methods], via,
                   **image)


def _report(family, n, r, s, count, comm_diag, comm_group, methods, via, group_image=None,
            diagram_image=None, equal=None) -> DualityReport:
    """The one double-commutant rule, from both commutants and the one image
    a route computed: both equalities are (that image == the opposite
    commutant), unless the route proved ``equal``; the other image is the
    other commutant where they hold.  ``via`` names the group image's route."""
    if equal is None:
        equal = group_image == comm_diag if diagram_image is None else diagram_image == comm_group
    if diagram_image is None:
        diagram_image = comm_group if equal else None
    else:
        group_image = comm_diag if equal else None
    dims = {"group_image": group_image, "diagram_image": diagram_image,
            "commutant_of_diagram": comm_diag, "commutant_of_group": comm_group}
    return DualityReport(family, n, r, s, dims, equal, equal,
                         None if diagram_image is None else diagram_image == count,
                         _combine_methods(*methods), extra={"group_image_via": via})


def _verify_so_direct(n, r, mode, solver_cap):
    """No diagram side: the O(n) commutant inside the rotation commutant C,
    from one solve.  X -> R X R, R the diagonal reflection, is an involution
    of C fixing the O(n) commutant, of dimension (dim C + trace) / 2; each
    kernel vector is 1 at its free column (i, j) and 0 at the others, so the
    trace is the sum of sign[i] * sign[j] over the free columns."""
    space = TensorSpace(n, r)
    check_dim(space, DENSE_DIM_CAP)
    rotations = _generators("so", space)
    so_comm, support = intertwiner_kernel(rotations, rotations, space.dim, space.dim, mode=mode,
                                          unknown_cap=solver_cap)
    sign = reflection_op(n, r).diagonal_vector()
    o_comm = (so_comm.nullity + sum(sign[i] * sign[j] for i, j in
                                    (support[next(iter(v))] for v in so_comm.kernel))) // 2
    dims = {"group_image": None, "diagram_image": None, "commutant_of_diagram": None,
            "commutant_of_group": so_comm.nullity}
    extra = {"so_commutant": so_comm.nullity, "o_commutant": o_comm,
             "proper_subalgebra": o_comm < so_comm.nullity}
    return DualityReport("so-direct", n, r, None, dims, None, None, None, so_comm.method,
                         extra=extra)


def _commute(gens: list[LinOp], mats: list[LinOp]) -> bool:
    """Exact check that every generator commutes with every matrix."""
    return all((g @ m).rows == (m @ g).rows for g in gens for m in mats)


def _verify_deranged(n, r, mode, solver_cap):
    """GL_n on the r-th adjoint power against the deranged diagram image.

    The gl_n generators ([x, -] from the structure constants of sl_n) and
    the diagram actions (through one sparse transport pair) are ``LinOp``s
    from builder to solver; the graded solve reads its weight blocks from
    the sparse rows in both arithmetics."""
    from .algebra import AlgebraElement, deranged_basis

    space = AdjointSpace(n, r)
    check_dim(MixedSpace(n, r, r), DENSE_DIM_CAP)  # n^(2r) > d: caps the adjoint power too
    d = space.dim
    if d * d > solver_cap:
        raise CapExceededError(f"{d * d} matrix-space unknowns exceed the solver cap {solver_cap}")
    elements = deranged_basis(r, n)
    # sigma(e) fixes the image of the inclusion and the coordinate map
    # vanishes on its kernel, so the bare diagram D acts as e*D*e does.
    diagram_ops = deranged_ops([AlgebraElement.from_diagram(el.diagram, 1, n)
                                for el in elements], n, r)
    diagram_span = MatrixSpan.from_matrices(diagram_ops, d)

    weights = weight_vectors(space)
    gens = _torus(weights) + _generators("gl", space)  # Cartan elements E_aa, then roots

    # Commutant of the group side: sparse and torus-reduced.  Its basis
    # realizes End of the group action, and the span check reads it.
    comm_group_span, comm_group = commutant(gens, d, mode=mode, unknown_cap=solver_cap)
    equal_b = span_equal(diagram_span, comm_group_span)
    # Containment of the group image in the diagram commutant reduces to
    # the generators commuting with the diagram matrices.  equal_b proves
    # it: every diagram matrix is then a combination of the commutant
    # basis, which was checked exactly against the generators.  Otherwise
    # check the products exactly, on the span's basis.
    if not equal_b and not _commute(gens, diagram_span.basis):
        raise ArithmeticError("group and diagram actions fail to commute")

    # The commutant of the diagram image lives in a 50625-unknown matrix
    # space at n=4, r=2; the torus grading splits it into small blocks.
    comm_diag_dim, graded_method = graded_commutant_dim(
        diagram_ops, weights, mode="exact" if mode == "exact" else "modular")

    return _report("deranged", n, r, r, len(diagram_ops), comm_diag_dim, comm_group.nullity,
                   [comm_group.method, graded_method], "double commutant",
                   diagram_image=diagram_span.dim, equal=equal_b)


def verify_duality(
    family: str,
    n: int,
    r: int,
    s: int | None = None,
    mode: str = "auto",
    solver_cap: int = DEFAULT_UNKNOWN_CAP,
    with_timing: bool = False,
) -> DualityReport:
    """Run one double-centralizer verification and report dimensions,
    equality flags and the faithfulness of the diagram action.

    ``s`` is only meaningful for the walled family.  ``mode`` is one of
    ``MODES``: 'exact', or 'auto' (exact where cheap, one prime with an
    exact certificate elsewhere, two primes in the deranged graded solve).
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; choose from {MODES}")
    if family == "sp" and n % 2 != 0:
        raise ValueError("the symplectic family needs even n")
    if family == "walled":
        if s is None:
            raise ValueError("the walled family needs s")
    elif family == "deranged":
        if s is not None and s != r:
            raise ValueError("the deranged family lives on (r, r) columns")
    elif s is not None:
        raise ValueError(f"family {family!r} does not take s")
    t0 = time.monotonic()
    if family == "so-direct":
        report = _verify_so_direct(n, r, mode, solver_cap)
    elif family == "deranged":
        report = _verify_deranged(n, r, mode, solver_cap)
    else:
        report = _verify_span_family(family, n, r, s, mode, solver_cap)
    if with_timing:
        report.elapsed_ms = int((time.monotonic() - t0) * 1000)
    return report
