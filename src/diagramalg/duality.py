"""Double-centralizer verification.

For each family the engine builds the group side (the unital algebra
generated by the derived action of root vectors, plus one reflection for
the full orthogonal group) and the diagram side (the span of the matrices
of every diagram).  A commutant depends only on the unital algebra its
operators generate, so each is solved on generators.  Each equality is
one containment plus a dimension count.  Both containments hold exactly
when the group generators commute with every diagram matrix, which is
checked exactly, once, on sparse rows (a failure raises ArithmeticError);
the report carries all four dimensions.

The diagram commutant is solved before the group image, because its
nullity bounds the image: the checked containment puts the image inside
that commutant.  The closure then saturates on residues modulo one
prime and stops once that many words are independent there (independent
residues come from exactly independent words), so only a basis of the
image is multiplied out exactly; if it stops short, the exact saturation
decides.

The deranged family is too large for span saturation of the group image
(it has dimension 11732 inside 225 x 225 matrices at n=4, r=2).  There
the commutant of the group generators is computed exactly and proven
equal to the diagram image (``equal_b``).  The group image is the
commutant of that commutant (for a semisimple algebra in characteristic
zero the double commutant is the algebra itself), so once ``equal_b``
holds it is the commutant of the diagram image, and one graded solve
gives both dimensions.  That solve runs modulo two primes unless the
exact mode is requested, and the report carries its method tag.
"""
from __future__ import annotations

import functools
import itertools
import time
from dataclasses import asdict, dataclass, field

from .diagrams import (CapExceededError, Wall, c_generator, enumerate_diagrams,
                       enumerate_walled, permutation_to_diagram, wall_generator)
from .linalg import (
    DEFAULT_UNKNOWN_CAP,
    LinOp,
    MatrixSpan,
    algebra_closure,
    commutant,
    graded_commutant_dim,
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
    matrix_unit,
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


def _generators(kind: str, space) -> tuple[list[LinOp], list[LinOp]]:
    """Derived actions on ``space`` of (Cartan elements, root vectors) of
    gl_n, sp_n (block Gram, m = n/2) or so_n (identity Gram: no Cartan,
    adjacent rotations).  Commutants take both, keeping their torus
    restriction; a closure takes the roots alone, whose words span H = EF - FE.

    A diagonal h = sum_a c_a E_aa acts on a basis vector of torus weight w
    by sum_a c_a w_a, so the Cartan operators are diagonal ``LinOp``s read
    off ``weight_vectors(space)``; the roots are Leibniz sums."""
    n, m, e = space.n, space.n // 2, functools.partial(matrix_unit, space.n)
    if kind == "sp":
        cartan = [{i: 1, m + i: -1} for i in range(m)]
        raising = [e(i, i + 1) - e(m + i + 1, m + i) for i in range(m - 1)] + [e(m - 1, n - 1)]
    else:
        cartan = [{a: 1} for a in range(n)] if kind == "gl" else []
        raising = [e(i, i + 1) for i in range(n - 1)]
    weights = weight_vectors(space) if cartan else []
    torus = [LinOp(space.dim, [{i: v} if (v := sum(c * w[a] for a, c in h.items())) else {}
                               for i, w in enumerate(weights)]) for h in cartan]
    roots = [x - x.T for x in raising] if kind == "so" else raising + [x.T for x in raising]
    return torus, [derivation_ops_sparse(x, space) for x in roots]


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


# family -> (its diagrams, a basis of the abstract diagram algebra; the
# Lie algebra of ``_generators`` for the group side).  Walled acts on
# mixed tensor space, the sp diagrams by the symplectic form, and o adds
# the reflection to the roots.  Names resolve at call time, so a test may
# patch them on this module.
_SIDES = {
    "glA": (lambda r, s: map(permutation_to_diagram, itertools.permutations(range(r))), "gl"),
    "o": (lambda r, s: enumerate_diagrams(r), "so"),
    "sp": (lambda r, s: enumerate_diagrams(r), "sp"),
    "walled": (lambda r, s: enumerate_walled(Wall(r, s)), "gl"),
}


def _verify_span_family(family, n, r, s, mode, solver_cap):
    space = TensorSpace(n, r) if s is None else MixedSpace(n, r, s)
    check_dim(space, DENSE_DIM_CAP)  # d * d unknowns in every solve
    diagrams, kind = _SIDES[family]
    cartan, seed = _generators(kind, space)
    if family == "o":
        seed.append(reflection_op(n, r))
    d, gen_ops = space.dim, cartan + seed
    form = BilinearForm("symplectic" if family == "sp" else "symmetric", n)
    diagram_ops, diagram_gens = ([LinOp(d, _diagram_rows(x, n, form)) for x in xs]
                                 for xs in (diagrams(r, s), _diagram_generators(family, r, s)))
    # both containments at once; each equality is then a dimension count
    if not _commute(gen_ops, diagram_ops):
        raise ArithmeticError("group and diagram actions fail to commute")
    diagram_span = MatrixSpan.from_matrices(diagram_ops, d)
    _, comm_diag = commutant(diagram_gens, d, mode=mode, want_basis=False,
                             unknown_cap=solver_cap)
    # The group image lies in the commutant of every diagram, inside that
    # of the generators, whose dimension is this nullity: a proven bound
    # for the closure.
    group_span = algebra_closure(seed, d, bound=comm_diag.nullity)
    _, comm_group = commutant(gen_ops, d, mode=mode, want_basis=False,
                              unknown_cap=solver_cap)
    dims = {
        "group_image": group_span.dim,
        "diagram_image": diagram_span.dim,
        "commutant_of_diagram": comm_diag.nullity,
        "commutant_of_group": comm_group.nullity,
    }
    return DualityReport(family, n, r, s, dims, group_span.dim == comm_diag.nullity,
                         diagram_span.dim == comm_group.nullity,
                         diagram_span.dim == len(diagram_ops),
                         _combine_methods("exact", comm_diag.method, comm_group.method))


def _verify_so_direct(n, r, mode, solver_cap):
    """No diagram side here: only the strict containment of the full
    orthogonal commutant inside the rotation-only commutant is computed."""
    space = TensorSpace(n, r)
    check_dim(space, DENSE_DIM_CAP)
    _, rotations = _generators("so", space)
    _, so_comm = commutant(rotations, space.dim, mode=mode, want_basis=False,
                           unknown_cap=solver_cap)
    _, o_comm = commutant(rotations + [reflection_op(n, r)], space.dim, mode=mode,
                          want_basis=False, unknown_cap=solver_cap)
    dims = {
        "group_image": None,
        "diagram_image": None,
        "commutant_of_diagram": None,
        "commutant_of_group": so_comm.nullity,
    }
    extra = {
        "so_commutant": so_comm.nullity,
        "o_commutant": o_comm.nullity,
        "proper_subalgebra": o_comm.nullity < so_comm.nullity,
    }
    return DualityReport("so-direct", n, r, None, dims, None, None, None,
                         _combine_methods(so_comm.method, o_comm.method),
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
        raise CapExceededError(
            f"{d * d} matrix-space unknowns exceed the solver cap {solver_cap}")
    elements = deranged_basis(r, n)
    # sigma(e) fixes the image of the inclusion and the coordinate map
    # vanishes on its kernel, so the bare diagram D acts as e*D*e does.
    diagram_ops = deranged_ops([AlgebraElement.from_diagram(el.diagram, 1, n)
                                for el in elements], n, r)
    diagram_span = MatrixSpan.from_matrices(diagram_ops, d)

    gens = sum(_generators("gl", space), [])  # Cartan elements, then roots

    # Commutant of the group side: sparse and torus-reduced.  Its basis
    # realizes End of the group action, and the span check reads it.
    comm_group_span, comm_group = commutant(gens, d, mode=mode, unknown_cap=solver_cap)
    equal_b = span_equal(diagram_span, comm_group_span)
    # Containment of the group image in the diagram commutant reduces to
    # the generators commuting with the diagram matrices.  equal_b proves
    # it: every diagram matrix is then a combination of the commutant
    # basis, which was checked exactly against the generators.  Otherwise
    # check the products exactly.
    if not equal_b and not _commute(gens, diagram_ops):
        raise ArithmeticError("group and diagram actions fail to commute")

    # The commutant of the diagram image lives in a 50625-unknown matrix
    # space at n=4, r=2; the torus grading splits it into small blocks.
    weights = weight_vectors(space)
    graded_mode = "exact" if mode == "exact" else "modular"
    comm_diag_dim, graded_method = graded_commutant_dim(diagram_ops, weights, mode=graded_mode)

    # The group image is the commutant of the group commutant (double
    # commutant theorem: semisimple, characteristic zero), and equal_b
    # proves that span equal to the diagram image.  Without equal_b there
    # is no computed group image to compare.
    group_image_dim = comm_diag_dim if equal_b else None
    equal_a = True if equal_b else None
    dims = {
        "group_image": group_image_dim,
        "diagram_image": diagram_span.dim,
        "commutant_of_diagram": comm_diag_dim,
        "commutant_of_group": comm_group.nullity,
    }
    method = _combine_methods(comm_group.method, graded_method)
    return DualityReport("deranged", n, r, r, dims, equal_a, equal_b,
                         diagram_span.dim == len(diagram_ops), method,
                         extra={"group_image_via": "double commutant"})


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
