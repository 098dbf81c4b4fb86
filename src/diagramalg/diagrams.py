"""Brauer diagrams: perfect matchings on two rows of labelled vertices.

A diagram on ``m`` columns has ``2m`` vertices: ``0 .. m-1`` form the top
row (left to right) and ``m .. 2m-1`` the bottom row.  Every vertex is
matched to exactly one partner, so a diagram is a fixed-point-free
involution on ``2m`` points with ``m`` edges.  Edges inside one row are
*horizontal*, edges between the rows are *vertical*; the all-vertical
diagrams are exactly the permutation diagrams.

Composition stacks the first diagram on top of the second, identifies the
middle rows and follows strands through; closed strands trapped in the
middle are counted separately (they become powers of the algebra
parameter, see :mod:`diagramalg.algebra`).
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

DEFAULT_ENUM_CAP = 6

_LABEL_RE = re.compile(r"^([tb])([1-9][0-9]*)$")


class DiagramError(ValueError):
    """Base class for diagram construction and usage errors."""


class DiagramParseError(DiagramError):
    """Malformed textual/JSON input (bad label, wrong shape, ...)."""


class DiagramInvariantError(DiagramError):
    """Structurally valid input that violates a diagram invariant
    (repeated vertex, fixed point, missing vertex)."""


class SizeMismatchError(DiagramError):
    """Operands live on a different number of columns."""


class CapExceededError(RuntimeError):
    """A configured resource cap (enumeration size, solver size) was hit."""


@dataclass(frozen=True)
class BrauerDiagram:
    """A perfect matching on ``2m`` points, ``partner[v]`` being v's mate."""

    m: int
    partner: tuple[int, ...]

    def __post_init__(self):
        if self.m <= 0:
            raise DiagramInvariantError(f"need at least one column, got m={self.m}")
        n = 2 * self.m
        if len(self.partner) != n:
            raise DiagramInvariantError(
                f"partner table has length {len(self.partner)}, expected {n}")
        for v, w in enumerate(self.partner):
            if not 0 <= w < n:
                raise DiagramInvariantError(f"vertex {v} matched out of range: {w}")
            if w == v:
                raise DiagramInvariantError(f"fixed point at vertex {v}")
            if self.partner[w] != v:
                raise DiagramInvariantError(
                    f"not an involution: partner[{v}]={w} but partner[{w}]={self.partner[w]}")

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges as sorted vertex pairs, sorted lexicographically.

        This is the canonical form used for ordering and serialization,
        built once per diagram; ``==`` and ``hash`` read only the fields.
        """
        return tuple(sorted((v, w) if v < w else (w, v)
                            for v, w in enumerate(self.partner) if v < w))

    def is_horizontal(self, v: int) -> bool:
        """True if the edge at vertex ``v`` stays inside one row."""
        return (v < self.m) == (self.partner[v] < self.m)

    def has_horizontal_edge(self) -> bool:
        return any(self.is_horizontal(v) for v in range(self.m))

    def is_permutation(self) -> bool:
        return not self.has_horizontal_edge()

    def permutation_word(self) -> tuple[int, ...]:
        """The permutation depicted by an all-vertical diagram.

        Returns the 0-based word ``w`` with top column ``i`` joined to
        bottom column ``w[i]``.

        >>> BrauerDiagram(2, (3, 2, 1, 0)).permutation_word()
        (1, 0)
        """
        if not self.is_permutation():
            raise DiagramInvariantError("diagram has horizontal edges")
        return tuple(self.partner[i] - self.m for i in range(self.m))

    def __lt__(self, other: "BrauerDiagram") -> bool:
        return (self.m, self.edges) < (other.m, other.edges)

    def __repr__(self):
        return f"BrauerDiagram({self.m}, edges={list(self.edges)})"


@dataclass(frozen=True)
class CompositionResult:
    composite: BrauerDiagram
    loops: int


@dataclass(frozen=True)
class Wall:
    """A wall between the first ``r`` and the last ``s`` columns."""

    r: int
    s: int

    def __post_init__(self):
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise DiagramInvariantError(f"bad wall ({self.r}, {self.s})")

    @property
    def m(self) -> int:
        return self.r + self.s


def _from_edges(m: int, edge_pairs) -> BrauerDiagram:
    partner = [-1] * (2 * m)
    for v, w in edge_pairs:
        partner[v] = w
        partner[w] = v
    return BrauerDiagram(m, tuple(partner))


def identity_diagram(m: int) -> BrauerDiagram:
    """The all-vertical diagram joining top i to bottom i."""
    return BrauerDiagram(m, tuple(range(m, 2 * m)) + tuple(range(m)))


def permutation_to_diagram(word: Sequence[int]) -> BrauerDiagram:
    """All-vertical diagram with top column ``i`` joined to bottom ``word[i]``.

    ``word`` is a 0-based permutation word of length m.

    >>> permutation_to_diagram((1, 0)).edges
    ((0, 3), (1, 2))
    """
    m = len(word)
    if sorted(word) != list(range(m)):
        raise DiagramInvariantError(f"not a permutation word: {word!r}")
    partner = [0] * (2 * m)
    for i, wi in enumerate(word):
        partner[i] = m + wi
        partner[m + wi] = i
    return BrauerDiagram(m, tuple(partner))


def compose_words(v: Sequence[int], w: Sequence[int]) -> tuple[int, ...]:
    """Left-to-right composition of permutation words: apply v, then w.

    Matches diagram composition:
    ``compose(permutation_to_diagram(v), permutation_to_diagram(w))``
    is ``permutation_to_diagram(compose_words(v, w))`` with zero loops.
    """
    return tuple(w[vi] for vi in v)


def inverse_word(w: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi] = i
    return tuple(inv)


def word_sign(w: Sequence[int]) -> int:
    """Sign of a permutation via its cycle count."""
    seen = [False] * len(w)
    cycles = 0
    for i in range(len(w)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = w[j]
    return 1 if (len(w) - cycles) % 2 == 0 else -1


def c_generator(m: int, i: int, j: int) -> BrauerDiagram:
    """The diagram with horizontal edges joining columns ``i`` and ``j``
    on both rows and vertical edges everywhere else.

    Columns are 1-based, so ``c_generator(2, 1, 2)`` has edges
    top1-top2 and bot1-bot2.
    """
    if not (1 <= i <= m and 1 <= j <= m):
        raise DiagramError(f"columns out of range: ({i}, {j}) for m={m}")
    if i == j:
        raise DiagramError(f"columns must differ, got i=j={i}")
    a, b = i - 1, j - 1
    partner = list(range(m, 2 * m)) + list(range(m))
    partner[a], partner[b] = b, a
    partner[m + a], partner[m + b] = m + b, m + a
    return BrauerDiagram(m, tuple(partner))


def wall_generator(wall: Wall, i: int, j: int) -> BrauerDiagram:
    """Wall-crossing generator joining left column ``i`` with right
    column ``j`` (both 1-based within their side of the wall)."""
    if not (1 <= i <= wall.r and 1 <= j <= wall.s):
        raise DiagramError(f"columns out of range for wall ({wall.r},{wall.s}): ({i}, {j})")
    return c_generator(wall.m, i, wall.r + j)


def compose(d1: BrauerDiagram, d2: BrauerDiagram) -> CompositionResult:
    """Stack ``d1`` on top of ``d2`` and follow the strands.

    Returns the composite diagram together with the number of closed
    loops trapped in the identified middle row.

    >>> c = c_generator(2, 1, 2)
    >>> compose(c, c)
    CompositionResult(composite=BrauerDiagram(2, edges=[(0, 1), (2, 3)]), loops=1)
    """
    if d1.m != d2.m:
        raise SizeMismatchError(f"cannot compose diagrams on {d1.m} and {d2.m} columns")
    m, two_m = d1.m, 2 * d1.m
    layers, partner = (d1.partner, d2.partner), [-1] * two_m
    seen = [False] * m  # middle columns that some strand crossed
    # Layer False is d1, whose bottom row is glued; layer True is d2, whose
    # top row is.  A strand on a glued vertex crosses to the other layer in
    # the same middle column and follows the edge there.
    for start in range(two_m):
        if partner[start] != -1:
            continue
        k = start >= m
        v = layers[k][start]
        while (v >= m) != k:
            seen[v % m] = True
            k = not k
            v = layers[k][(v + m) % two_m]
        partner[start], partner[v] = v, start
    # every column left over lies on a closed loop of glued edges only
    loops = 0
    for j in range(m):
        if not seen[j]:
            loops += 1
            k, v = False, m + j
            while not seen[v % m]:
                seen[v % m] = True
                k, v = not k, (layers[k][v] + m) % two_m
    return CompositionResult(BrauerDiagram(m, tuple(partner)), loops)


def _walled_pair(v: int, w: int, m: int, r: int) -> bool:
    # An edge stays in one row exactly when its ends lie on opposite sides
    # of the wall (vertex v sits in column v % m).
    return ((v < m) == (w < m)) == ((v % m < r) != (w % m < r))


def is_walled(d: BrauerDiagram, wall: Wall) -> bool:
    """True if every horizontal edge crosses the wall and no vertical
    edge does."""
    if wall.m != d.m:
        raise SizeMismatchError(f"wall ({wall.r},{wall.s}) does not fit m={d.m}")
    m, r = d.m, wall.r
    return all(_walled_pair(v, w, m, r) for v, w in enumerate(d.partner))


def flip(d: BrauerDiagram, wall: Wall) -> BrauerDiagram:
    """Swap top and bottom vertices to the right of the wall.

    An involution on diagrams; restricted to walled diagrams it is a
    bijection onto the permutation diagrams.
    """
    if wall.m != d.m:
        raise SizeMismatchError(f"wall ({wall.r},{wall.s}) does not fit m={d.m}")
    m = d.m

    def phi(v: int) -> int:
        return v if v % m < wall.r else (v + m) % (2 * m)

    partner = [-1] * (2 * m)
    for v in range(2 * m):
        partner[phi(v)] = phi(d.partner[v])
    return BrauerDiagram(m, tuple(partner))


def _matchings(m: int, allowed=None) -> Iterator[BrauerDiagram]:
    # The smallest free vertex takes each free partner in turn (the
    # canonical order), skipping a pair that ``allowed(v, w)`` refuses.
    if m > DEFAULT_ENUM_CAP:
        raise CapExceededError(f"enumeration for m={m} exceeds cap {DEFAULT_ENUM_CAP}")
    if m <= 0:
        raise DiagramError(f"need at least one column, got m={m}")

    def matchings(verts: tuple[int, ...]) -> Iterator[list[tuple[int, int]]]:
        if not verts:
            yield []
            return
        a = verts[0]
        for k in range(1, len(verts)):
            if allowed is None or allowed(a, verts[k]):
                for tail in matchings(verts[1:k] + verts[k + 1:]):
                    yield [(a, verts[k])] + tail

    for pairs in matchings(tuple(range(2 * m))):
        yield _from_edges(m, pairs)


def enumerate_diagrams(m: int) -> Iterator[BrauerDiagram]:
    """Yield every diagram on ``m`` columns once, in canonical order.

    Canonical order is lexicographic on the sorted edge lists; there are
    (2m-1)!! diagrams in total.  ``m`` above :data:`DEFAULT_ENUM_CAP`
    raises :class:`CapExceededError` so exhaustive sweeps stay bounded.
    """
    return _matchings(m)


def enumerate_walled(wall: Wall) -> Iterator[BrauerDiagram]:
    """Yield the walled diagrams on ``wall.m`` columns in canonical order,
    building no other diagram; there are (r+s)! of them.  The column cap
    of :func:`enumerate_diagrams` applies.

    >>> sum(1 for _ in enumerate_walled(Wall(2, 1)))
    6
    """
    m, r = wall.m, wall.r
    return _matchings(m, lambda v, w: _walled_pair(v, w, m, r))


def vertex_label(v: int, m: int) -> str:
    return f"t{v + 1}" if v < m else f"b{v - m + 1}"


def _parse_label(label: str, m: int, where: str) -> int:
    if not isinstance(label, str):
        raise DiagramParseError(f"{where}: label must be a string, got {label!r}")
    match = _LABEL_RE.match(label)
    if not match:
        raise DiagramParseError(f"{where}: malformed vertex label {label!r}")
    k = int(match.group(2))
    if k > m:
        raise DiagramParseError(f"{where}: column {k} out of range for m={m}")
    return k - 1 if match.group(1) == "t" else m + k - 1


def diagram_to_json(d: BrauerDiagram) -> dict:
    """Canonical wire format: edges as sorted label pairs.

    >>> diagram_to_json(c_generator(2, 1, 2))["edges"]
    [['t1', 't2'], ['b1', 'b2']]
    """
    return {
        "m": d.m,
        "edges": [[vertex_label(v, d.m), vertex_label(w, d.m)] for v, w in d.edges],
    }


def diagram_from_json(obj) -> BrauerDiagram:
    if not isinstance(obj, dict):
        raise DiagramParseError(f"diagram must be an object, got {type(obj).__name__}")
    m = obj.get("m")
    if type(m) is not int or m <= 0:  # a JSON boolean is no column count
        raise DiagramParseError(f"'m' must be a positive integer, got {m!r}")
    edges = obj.get("edges")
    if not isinstance(edges, list):
        raise DiagramParseError("'edges' must be a list")
    if len(edges) != m:
        raise DiagramInvariantError(f"expected {m} edges, got {len(edges)}")
    partner = [-1] * (2 * m)
    for idx, edge in enumerate(edges):
        where = f"edge {idx + 1}"
        if not isinstance(edge, (list, tuple)) or len(edge) != 2:
            raise DiagramParseError(f"{where}: must be a pair of labels")
        v = _parse_label(edge[0], m, where)
        w = _parse_label(edge[1], m, where)
        if v == w:
            raise DiagramInvariantError(f"{where}: fixed point at {edge[0]!r}")
        for u in (v, w):
            if partner[u] != -1:
                raise DiagramInvariantError(
                    f"{where}: vertex {vertex_label(u, m)!r} appears twice")
        partner[v] = w
        partner[w] = v
    return BrauerDiagram(m, tuple(partner))


def serialize_diagram(d: BrauerDiagram) -> str:
    """Canonical one-line JSON text for a diagram."""
    import json

    return json.dumps(diagram_to_json(d), sort_keys=True, separators=(",", ":"))


def deserialize_diagram(text: str) -> BrauerDiagram:
    """Inverse of :func:`serialize_diagram`; parse errors carry the
    offending position, invariant violations are reported separately."""
    import json

    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    return diagram_from_json(obj)


def double_factorial_odd(r: int) -> int:
    """(2r-1)!! = 1*3*5*...*(2r-1), the number of diagrams on r columns."""
    out = 1
    for k in range(1, 2 * r, 2):
        out *= k
    return out
