"""Double-centralizer verification.

For each family the engine builds the group side (the unital algebra
generated by the derived Lie algebra action, plus one reflection for the
full orthogonal group) and the diagram side (the span of the representing
matrices of the diagram basis), and counts both commutants.  Each
equality is one containment plus a dimension count.  Both containments
hold exactly when the group generators commute with the diagram
matrices, which is checked exactly, once, on sparse rows (a failure
raises ArithmeticError); the report carries all four dimensions, and an
equality that holds proves exact the modular commutant count it compares.

The diagram commutant is solved before the group image, because its
nullity bounds the image: the checked containment puts the image inside
that commutant, and a nullity counted modulo a prime is never below the
exact one.  The closure then saturates on residues modulo one prime and
stops once that many words are independent there (independent residues
come from exactly independent words), so only a basis of the image is
multiplied out exactly; if it stops short, the exact saturation decides.

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

import itertools
import time
from dataclasses import dataclass, field
from math import factorial

from .combinatorics import derangements, diagram_count, walled_count
from .diagrams import CapExceededError, Wall, enumerate_diagrams, is_walled
from .linalg import (
    DEFAULT_UNKNOWN_CAP,
    MODES,
    LinOp,
    MatrixSpan,
    algebra_closure,
    commutant,
    graded_commutant_dim,
    span_equal,
    sparse_matmul,
)
from .tensor import (
    AdjointSpace,
    BilinearForm,
    MixedSpace,
    TensorSpace,
    adjoint_transport,
    check_dim,
    deranged_matrix,
    derivation_action,
    derivation_ops_sparse,
    diagram_matrix,
    lie_basis,
    mixed_diagram_matrix,
    reflection_matrix,
    sigma_perm,
    weight_vectors,
)

FAMILIES = ("glA", "sp", "o", "so-direct", "walled", "deranged")


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
        out = {
            "family": self.family,
            "n": self.n,
            "r": self.r,
            "s": self.s,
            "dims": {
                "group_image": self.dims.get("group_image"),
                "diagram_image": self.dims.get("diagram_image"),
                "commutant_of_diagram": self.dims.get("commutant_of_diagram"),
                "commutant_of_group": self.dims.get("commutant_of_group"),
            },
            "equal_a": self.equal_a,
            "equal_b": self.equal_b,
            "faithful": self.faithful,
            "method": self.method,
            "elapsed_ms": self.elapsed_ms,
        }
        out.update(self.extra)
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


def _standard_sides(family: str, n: int, r: int, s: int | None):
    """Space dimension, diagram matrices, group generator matrices and the
    abstract diagram-algebra dimension for the span-based families."""
    if family == "glA":
        space = TensorSpace(n, r)
        diagram_mats = [sigma_perm(w, space)
                        for w in itertools.permutations(range(r))]
        gens = [derivation_action(x, space) for x in lie_basis("gl", n)]
        return space.dim, diagram_mats, gens, factorial(r)
    if family in ("o", "sp"):
        flavor = "symmetric" if family == "o" else "symplectic"
        form = BilinearForm(flavor, n)
        space = TensorSpace(n, r)
        diagram_mats = [diagram_matrix(d, space, form)
                        for d in enumerate_diagrams(r)]
        gens = [derivation_action(x, space)
                for x in lie_basis("so" if family == "o" else "sp", n)]
        if family == "o":
            gens.append(reflection_matrix(n, r))
        return space.dim, diagram_mats, gens, diagram_count(r)
    if family == "walled":
        space = MixedSpace(n, r, s)
        wall = Wall(r, s)
        diagram_mats = [mixed_diagram_matrix(d, space)
                        for d in enumerate_diagrams(wall.m)
                        if is_walled(d, wall)]
        gens = [derivation_action(x, space) for x in lie_basis("gl", n)]
        return space.dim, diagram_mats, gens, walled_count(r, s)
    raise ValueError(f"unknown standard family {family!r}")


def _verify_span_family(family, n, r, s, mode, solver_cap):
    d, diagram_mats, gens, abstract_dim = _standard_sides(family, n, r, s)
    gen_ops = [LinOp.from_dense(g) for g in gens]
    diagram_ops = [LinOp.from_dense(m) for m in diagram_mats]
    # both containments at once; each equality is then a dimension count
    if not _commute(gen_ops, diagram_ops):
        raise ArithmeticError("group and diagram actions fail to commute")
    diagram_span = MatrixSpan.from_matrices(diagram_mats, d)
    _, comm_diag = commutant(diagram_ops, d, mode=mode, want_basis=False,
                             unknown_cap=solver_cap)
    # The group image lies in the diagram commutant, whose exact dimension
    # is at most this nullity in every mode: a proven bound for the closure.
    group_span = algebra_closure(gens, d, bound=comm_diag.nullity)
    _, comm_group = commutant(gen_ops, d, mode=mode, want_basis=False,
                              unknown_cap=solver_cap)
    dims = {
        "group_image": group_span.dim,
        "diagram_image": diagram_span.dim,
        "commutant_of_diagram": comm_diag.nullity,
        "commutant_of_group": comm_group.nullity,
    }
    equal_a = group_span.dim == comm_diag.nullity
    equal_b = diagram_span.dim == comm_group.nullity
    # The checked containment gives image dim <= exact nullity <= modular
    # nullity, so an equality proves a modular count exact.
    methods = ["mod-p-confirmed-exact" if equal and res.method.startswith("mod-p(")
               else res.method for res, equal in ((comm_diag, equal_a), (comm_group, equal_b))]
    return DualityReport(family, n, r, s, dims, equal_a, equal_b,
                         diagram_span.dim == abstract_dim,
                         _combine_methods("exact", *methods))


def _verify_so_direct(n, r, mode, solver_cap):
    """No diagram side here: only the strict containment of the full
    orthogonal commutant inside the rotation-only commutant is computed."""
    space = TensorSpace(n, r)
    gens_so = [derivation_action(x, space) for x in lie_basis("so", n)]
    gens_o = gens_so + [reflection_matrix(n, r)]
    _, so_comm = commutant(gens_so, space.dim, mode=mode, want_basis=False,
                           unknown_cap=solver_cap)
    _, o_comm = commutant(gens_o, space.dim, mode=mode, want_basis=False,
                          unknown_cap=solver_cap)
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
    """Exact check that every generator commutes with every matrix, on
    sparse rows."""
    return all(sparse_matmul(g.rows, m.rows) == sparse_matmul(m.rows, g.rows)
               for g in gens for m in mats)


def _verify_deranged(n, r, mode, solver_cap):
    """GL_n on the r-th adjoint power against the deranged diagram image.

    The gl_n generators are built as sparse ``LinOp`` rows
    (``derivation_ops_sparse``, [x, -] from the structure constants of
    sl_n) and go to the commutant solve, and to the exact commutation
    check when ``equal_b`` fails, without a dense matrix in between."""
    from .algebra import deranged_basis

    space = AdjointSpace(n, r)
    check_dim(space)
    d = space.dim
    if d * d > solver_cap:
        raise CapExceededError(
            f"{d * d} matrix-space unknowns exceed the solver cap {solver_cap}")
    transport = adjoint_transport(n, r)
    elements = deranged_basis(r, n)
    diagram_mats = [deranged_matrix(el.element, n, r, transport=transport)
                    for el in elements]
    diagram_span = MatrixSpan.from_matrices(diagram_mats, d)

    gens = [derivation_ops_sparse(x, space) for x in lie_basis("gl", n)]

    # Commutant of the group side: sparse and torus-reduced.  Its basis
    # realizes End of the group action and the span check needs it
    # exactly, so the modular mode takes the certified route here.
    comm_group_span, comm_group = commutant(
        gens, d, mode="auto" if mode == "modular" else mode,
        unknown_cap=solver_cap)
    equal_b = span_equal(diagram_span, comm_group_span)
    # Containment of the group image in the diagram commutant reduces to
    # the generators commuting with the diagram matrices.  equal_b proves
    # it: every diagram matrix is then a combination of the commutant
    # basis, which was checked exactly against the generators.  Otherwise
    # check the products exactly.
    if not equal_b and not _commute(gens, [LinOp.from_dense(m) for m in diagram_mats]):
        raise ArithmeticError("group and diagram actions fail to commute")

    # The commutant of the diagram image lives in a 50625-unknown matrix
    # space at n=4, r=2; the torus grading splits it into small blocks.
    weights = weight_vectors(space)
    chunk_mode = "exact" if mode == "exact" else "modular"
    comm_diag_dim, chunk_method = graded_commutant_dim(
        diagram_mats, weights, mode=chunk_mode)

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
    method = _combine_methods(comm_group.method, chunk_method)
    return DualityReport("deranged", n, r, r, dims, equal_a, equal_b,
                         diagram_span.dim == derangements(2 * r), method,
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

    ``s`` is only meaningful for the walled family.  ``mode`` selects the
    arithmetic: 'exact', 'modular', or 'auto' (exact where cheap,
    certified modular elsewhere).
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
