"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite is exact (the two large computations use the
certified or two-prime modular engine as noted in the reports).
"""
import itertools
import json
import random
import subprocess
import sys
from fractions import Fraction
from math import factorial

from diagramalg.algebra import AlgebraElement, deranged_basis, idempotent_e
from diagramalg.combinatorics import (
    derangements,
    derangements_by_enumeration,
    multiplicity_adjoint,
    multiplicity_trivial,
    nearest_integer_to_k_factorial_over_e,
)
from diagramalg.diagrams import (
    Wall,
    c_generator,
    compose,
    double_factorial_odd,
    enumerate_diagrams,
    flip,
    is_walled,
)
from diagramalg.duality import verify_duality
from diagramalg.ring import QPoly
from diagramalg.tensor import BilinearForm, TensorSpace, diagram_matrix

from oracles import bizarre_compose, matrices_equal, random_diagram


def report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion:02d}: PASS  {message}")


def test_criterion_01_diagram_counts():
    counts = [sum(1 for _ in enumerate_diagrams(r)) for r in range(1, 6)]
    assert counts == [1, 3, 15, 105, 945]
    assert counts == [double_factorial_odd(r) for r in range(1, 6)]
    for m in range(1, 7):
        diagrams = list(enumerate_diagrams(m))
        for r in range(m + 1):
            wall = Wall(r, m - r)
            walled = sum(1 for d in diagrams if is_walled(d, wall))
            assert walled == factorial(m), (r, m - r)
    report(1, "diagram counts (2r-1)!! for r<=5 and walled counts (r+s)! for r+s<=6")


def test_criterion_02_algebra_laws():
    diagrams2 = list(enumerate_diagrams(2))
    for a, b, c in itertools.product(diagrams2, repeat=3):
        ea, eb, ec = (AlgebraElement.from_diagram(d) for d in (a, b, c))
        assert (ea * eb) * ec == ea * (eb * ec)
    rng = random.Random(2024)
    checked = 0
    while checked < 500:
        m = 3 + checked % 3
        ea, eb, ec = (AlgebraElement.from_diagram(random_diagram(m, rng))
                      for _ in range(3))
        assert (ea * eb) * ec == ea * (eb * ec)
        checked += 1
    c = AlgebraElement.from_diagram(c_generator(2, 1, 2))
    assert c * c == AlgebraElement.from_diagram(c_generator(2, 1, 2), QPoly.x())
    report(2, "associativity (27 exhaustive + 500 random triples) and c*c = x*c")


def test_criterion_03_flip_isomorphism():
    pairs = 0
    for r, s in [(1, 1), (2, 1), (2, 2)]:
        wall = Wall(r, s)
        walled = [d for d in enumerate_diagrams(wall.m) if is_walled(d, wall)]
        for d in walled:
            assert flip(flip(d, wall), wall) == d
        for d1, d2 in itertools.product(walled, repeat=2):
            res = compose(d1, d2)
            twisted, loops = bizarre_compose(flip(d1, wall), flip(d2, wall), wall)
            assert twisted == flip(res.composite, wall)
            assert loops == res.loops
            pairs += 1
    report(3, f"flip involutive and intertwines composition on {pairs} walled pairs")


def test_criterion_04_representation_property():
    for n, flavor in [(2, "symmetric"), (2, "symplectic"), (3, "symmetric")]:
        form = BilinearForm(flavor, n)
        space = TensorSpace(n, 2)
        mats = {d: diagram_matrix(d, space, form) for d in enumerate_diagrams(2)}
        for d1, d2 in itertools.product(mats, repeat=2):
            res = compose(d1, d2)
            scale = Fraction(form.eps * n) ** res.loops
            assert matrices_equal(mats[d1] @ mats[d2], scale * mats[res.composite])
    for n in (2, 3, 4):
        for flavor in ("symmetric", "symplectic"):
            if flavor == "symplectic" and n % 2:
                continue
            form = BilinearForm(flavor, n)
            space = TensorSpace(n, 3)
            for i, j in itertools.permutations(range(1, 4), 2):
                c = diagram_matrix(c_generator(3, i, j), space, form)
                assert matrices_equal(c @ c, form.eps * n * c)
    report(4, "sigma multiplicative (exhaustive, both flavours) and C^2 = eps*n*C for n<=4")


def test_criterion_05_type_a_duality():
    for n, r in [(2, 2), (2, 3), (3, 2)]:
        rep = verify_duality("glA", n, r)
        assert rep.equal_a and rep.equal_b, (n, r)
        assert rep.faithful == (n >= r), (n, r)
    report(5, "glA duality at (2,2), (2,3), (3,2); faithful exactly when n >= r")


def test_criterion_06_brauer_duality():
    outcomes = {}
    for fam, n, r in [("o", 3, 2), ("o", 3, 3), ("sp", 2, 2), ("sp", 2, 3),
                      ("sp", 4, 2)]:
        rep = verify_duality(fam, n, r)
        assert rep.equal_a and rep.equal_b, (fam, n, r)
        assert rep.faithful == (rep.dims["diagram_image"] == double_factorial_odd(r))
        outcomes[(fam, n, r)] = (rep.dims["diagram_image"], rep.faithful)
    assert outcomes[("o", 3, 2)][1] is True
    assert outcomes[("o", 3, 3)][1] is True
    # recorded without asserting any faithfulness threshold: the image of
    # the 3-dimensional algebra is 2-dimensional here
    sp22_image, sp22_faithful = outcomes[("sp", 2, 2)]

    # generation claim at the matrix level: transpositions plus a single
    # crossing generate the whole diagram image on three tensor factors
    from diagramalg.diagrams import permutation_to_diagram
    from diagramalg.linalg import MatrixSpan, algebra_closure, span_equal
    from diagramalg.tensor import diagram_matrix

    form = BilinearForm("symmetric", 3)
    space = TensorSpace(3, 3)
    seeds = [diagram_matrix(permutation_to_diagram(w), space, form)
             for w in [(1, 0, 2), (0, 2, 1)]]
    seeds.append(diagram_matrix(c_generator(3, 1, 2), space, form))
    closure = algebra_closure(seeds, space.dim)
    full_span = MatrixSpan.from_matrices(
        [diagram_matrix(d, space, form) for d in enumerate_diagrams(3)], space.dim)
    assert span_equal(closure, full_span)

    report(6, "Brauer duality at 5 parameter points; "
              f"sp(2,2) image dim {sp22_image}, faithful={sp22_faithful}; "
              "generator closure spans the diagram image at (o,3,3)")


def test_criterion_07_proper_subalgebra():
    rep = verify_duality("so-direct", 2, 1)
    assert rep.extra["so_commutant"] > rep.extra["o_commutant"]
    assert rep.extra["proper_subalgebra"] is True
    report(7, f"rotation-only commutant {rep.extra['so_commutant']} strictly exceeds "
              f"full orthogonal commutant {rep.extra['o_commutant']} at (n=2, r=1)")


def test_criterion_08_walled_duality():
    for n, r, s in [(2, 1, 1), (2, 2, 1), (3, 1, 1)]:
        rep = verify_duality("walled", n, r, s)
        assert rep.equal_a and rep.equal_b, (n, r, s)
        assert rep.faithful == (n >= r + s), (n, r, s)
    report(8, "walled duality at (2,(1,1)), (2,(2,1)), (3,(1,1)); "
              "faithful exactly when n >= r+s")


def test_criterion_09_deranged_algebra():
    for r in (1, 2, 3):
        for n in range(2, 7):
            e = idempotent_e(r, n)
            assert e * e == e, (r, n)
    basis = deranged_basis(2, 4)
    assert len(basis) == 9 == derangements(4)
    rep = verify_duality("deranged", 4, 2)
    assert rep.equal_a and rep.equal_b
    assert rep.dims["diagram_image"] == 9
    assert rep.faithful is True
    report(9, f"idempotents for r<=3, n<=6; 9 basis elements; duality dims {rep.dims} "
              f"({rep.method})")


def test_criterion_10_derangement_identities():
    for k in range(9):
        assert derangements(k) == derangements_by_enumeration(k)
    values = [derangements(k) for k in range(31)]
    for k in range(2, 31):
        assert values[k] == (k - 1) * (values[k - 1] + values[k - 2])
    for k in range(1, 31):
        assert nearest_integer_to_k_factorial_over_e(k) == values[k]
    report(10, "formula == enumeration (k<=8), recurrence and nearest-integer "
               "law (k<=30), all exact")


def test_criterion_11_multiplicities():
    assert multiplicity_trivial(2, 1) == derangements(1) == 0
    assert multiplicity_trivial(4, 2) == derangements(2) == 1
    assert multiplicity_trivial(6, 3, mode="modular") == derangements(3) == 2
    adj = multiplicity_adjoint(4, 2)
    assert adj.consistent, "equivariant-map count disagrees with the self-duality oracle"
    report(11, f"trivial multiplicities match N(r) at (2,1), (4,2), (6,3); adjoint "
               f"multiplicity computed={adj.computed} (self-duality cross-check "
               f"agrees), derangement reference N(r-1)={adj.derangement_reference}")


CLI = [sys.executable, "-m", "diagramalg.cli"]

# every verification, dimension and table command exercised by the
# criteria above, in CLI form
DETERMINISM_COMMANDS = [
    ("dims", "--family", "brauer", "--r", "5"),
    ("dims", "--family", "walled", "--r", "4", "--s", "2"),
    ("dims", "--family", "deranged", "--r", "2", "--n", "4"),
    ("derangements", "--max", "20"),
    ("verify", "--duality", "glA", "--n", "2", "--r", "2"),
    ("verify", "--duality", "glA", "--n", "2", "--r", "3"),
    ("verify", "--duality", "glA", "--n", "3", "--r", "2"),
    ("verify", "--duality", "o", "--n", "3", "--r", "2"),
    ("verify", "--duality", "o", "--n", "3", "--r", "3"),
    ("verify", "--duality", "sp", "--n", "2", "--r", "2"),
    ("verify", "--duality", "sp", "--n", "2", "--r", "3"),
    ("verify", "--duality", "sp", "--n", "4", "--r", "2"),
    ("verify", "--duality", "walled", "--n", "2", "--r", "1", "--s", "1"),
    ("verify", "--duality", "walled", "--n", "2", "--r", "2", "--s", "1"),
    ("verify", "--duality", "walled", "--n", "3", "--r", "1", "--s", "1"),
    ("verify", "--duality", "so-direct", "--n", "2", "--r", "1"),
    ("verify", "--duality", "deranged", "--n", "4", "--r", "2"),
]


def test_criterion_12_determinism(tmp_path):
    payload = [{"m": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}] * 2
    path = tmp_path / "c.json"
    path.write_text(json.dumps(payload))
    commands = DETERMINISM_COMMANDS + [("multiply", "--file", str(path))]
    for args in commands:
        outs = []
        for threads in ("1", "3"):
            proc = subprocess.run(CLI + ["--threads", threads, *args],
                                  capture_output=True)
            outs.append((proc.returncode, proc.stdout))
        assert outs[0] == outs[1], args
        json.loads(outs[0][1])  # stdout is one canonical JSON document
    report(12, f"{len(commands)} commands byte-identical across thread counts")
