"""Independent reference for products of generic Brauer-algebra elements.

This file shares no code with ``diagramalg``: diagrams are read straight
from the wire format (edges as pairs of 't<k>' / 'b<k>' labels), two
diagrams are composed by gluing the bottom row of the first to the top
row of the second and walking the strands of the resulting graph, and
every closed loop in the glued middle row multiplies the coefficient by
the loop parameter x.  Coefficients are polynomials in x with rational
coefficients, stored constant term first.
"""
from __future__ import annotations

import random
from fractions import Fraction

Poly = tuple  # of Fraction, constant term first, no trailing zeros
Diagram = frozenset  # of frozenset({label, label})


def trim(coeffs) -> Poly:
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ()
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return trim(out)


def poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return trim((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def diagram_of(obj) -> Diagram:
    return frozenset(frozenset(edge) for edge in obj["edges"])


def compose(top: Diagram, bottom: Diagram, m: int) -> tuple[Diagram, int]:
    """Stack ``top`` over ``bottom``; return the outer matching and the
    number of closed loops."""
    # Graph nodes: ('t', k) and ('b', k) on the outer rows, ('m', k) in the
    # glued middle row.  Each middle node has exactly two incident edges,
    # one from each diagram, so edges are kept with ids to tell apart two
    # parallel edges between the same pair of middle nodes.
    def place(label, layer):
        row, k = label[0], int(label[1:])
        if layer == 0:
            return ("t", k) if row == "t" else ("m", k)
        return ("m", k) if row == "t" else ("b", k)

    incident: dict[tuple, list] = {}
    for layer, diagram in enumerate((top, bottom)):
        for edge in diagram:
            u, v = (place(label, layer) for label in sorted(edge))
            eid = (layer, u, v)
            incident.setdefault(u, []).append((eid, v))
            incident.setdefault(v, []).append((eid, u))

    seen = set()
    pairs = []
    for row in ("t", "b"):
        for k in range(1, m + 1):
            start = (row, k)
            if start in seen:
                continue
            (eid, node), = incident[start]
            seen.add(start)
            while node[0] == "m":
                seen.add(node)
                eid, node = next((e, w) for e, w in incident[node] if e != eid)
            seen.add(node)
            pairs.append(frozenset((f"{start[0]}{start[1]}", f"{node[0]}{node[1]}")))

    loops = 0
    for k in range(1, m + 1):
        start = ("m", k)
        if start in seen:
            continue
        loops += 1
        eid, node = incident[start][0]
        seen.add(start)
        while node != start:
            seen.add(node)
            eid, node = next((e, w) for e, w in incident[node] if e != eid)
    return frozenset(pairs), loops


def element_of(obj) -> dict:
    """Wire-format element (or bare diagram) -> {diagram: poly}."""
    if "edges" in obj:
        return {diagram_of(obj): (Fraction(1),)}
    out: dict = {}
    for term in obj["terms"]:
        d = diagram_of(term["diagram"])
        out[d] = poly_add(out.get(d, ()), trim(Fraction(s) for s in term["coeff"]))
    return {d: c for d, c in out.items() if c}


def product(payload: list) -> dict:
    """Left-to-right product of the payload's elements."""
    m = payload[0]["m"]
    acc = element_of(payload[0])
    for obj in payload[1:]:
        factor = element_of(obj)
        out: dict = {}
        for d1, c1 in acc.items():
            for d2, c2 in factor.items():
                d, loops = compose(d1, d2, m)
                c = (Fraction(0),) * loops + poly_mul(c1, c2)
                out[d] = poly_add(out.get(d, ()), c)
        acc = {d: c for d, c in out.items() if c}
    return acc


def random_element(rng: random.Random, m: int, nterms: int) -> dict:
    """A generic element with ``nterms`` random diagrams and coefficients
    of degree at most 2 with small rational entries."""
    labels = [f"t{k}" for k in range(1, m + 1)] + [f"b{k}" for k in range(1, m + 1)]
    terms = []
    for _ in range(nterms):
        order = labels[:]
        rng.shuffle(order)
        edges = [sorted(order[i:i + 2]) for i in range(0, 2 * m, 2)]
        degree = rng.randrange(3)
        coeffs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(degree)]
        coeffs.append(Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 4)))
        terms.append({"diagram": {"m": m, "edges": edges},
                      "coeff": [str(c) for c in coeffs]})
    return {"m": m, "ring": "generic", "terms": terms}


def seeded_payload(seed: int, m: int, factors: int, nterms: int) -> list:
    rng = random.Random(seed)
    return [random_element(rng, m, nterms) for _ in range(factors)]
