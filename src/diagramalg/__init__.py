"""Exact diagram algebras (Brauer, walled Brauer, deranged) together with
their tensor-space representations and a commutant engine for checking
Schur-Weyl double-centralizer statements at small sizes.

Everything is computed in exact arithmetic: rational numbers, rational
polynomials in the algebra parameter, and (for the larger linear-algebra
jobs) modular arithmetic with exact certification where feasible.
"""

from .diagrams import (
    BrauerDiagram,
    CapExceededError,
    CompositionResult,
    DiagramError,
    DiagramInvariantError,
    DiagramParseError,
    SizeMismatchError,
    Wall,
    c_generator,
    compose,
    deserialize_diagram,
    diagram_from_json,
    diagram_to_json,
    enumerate_diagrams,
    enumerate_walled,
    flip,
    identity_diagram,
    is_walled,
    permutation_to_diagram,
    serialize_diagram,
    wall_generator,
)
from .ring import QPoly
from .algebra import (
    AlgebraElement,
    DerangedElement,
    RingMismatchError,
    deranged_basis,
    element_from_json,
    element_to_json,
    generated_subalgebra,
    idempotent_e,
)
from .tensor import (
    AdjointSpace,
    BilinearForm,
    MixedSpace,
    SpecializationError,
    TensorSpace,
    adjoint_projection,
    deranged_matrix,
    derivation_action,
    diagram_matrix,
    lie_basis,
    mixed_diagram_matrix,
    sigma_contraction,
    sigma_element,
    sigma_mixed,
    sigma_perm,
)
from .linalg import (
    MatrixSpan,
    algebra_closure,
    commutant,
    matrix_from_json,
    matrix_to_json,
    rref,
    span_equal,
)
from .duality import DualityReport, verify_duality
from .combinatorics import (
    DerangementTable,
    derangement_table,
    derangements,
    diagram_count,
    multiplicity_adjoint,
    multiplicity_trivial,
    walled_count,
)

__version__ = "0.1.0"
