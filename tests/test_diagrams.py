import itertools
import math
import random

import pytest

from diagramalg import diagrams
from diagramalg.diagrams import (
    BrauerDiagram,
    CapExceededError,
    DiagramInvariantError,
    DiagramParseError,
    SizeMismatchError,
    Wall,
    c_generator,
    compose,
    compose_words,
    diagram_from_json,
    diagram_to_json,
    double_factorial_odd,
    enumerate_diagrams,
    enumerate_walled,
    flip,
    identity_diagram,
    inverse_word,
    is_walled,
    permutation_to_diagram,
    wall_generator,
)

from oracles import (bizarre_compose, glued_compose, random_diagram, reference_flip,
                     reference_is_walled)


def test_identity_composes_to_identity():
    ident = identity_diagram(3)
    res = compose(ident, ident)
    assert res.composite == ident
    assert res.loops == 0


def test_cup_cap_composition_makes_one_loop():
    c = c_generator(2, 1, 2)
    res = compose(c, c)
    assert res.composite == c
    assert res.loops == 1


def test_transposition_squares_to_identity():
    s = permutation_to_diagram((1, 0))
    res = compose(s, s)
    assert res.composite == identity_diagram(2)
    assert res.loops == 0


@pytest.mark.parametrize("m", [1, 2, 3])
def test_compose_matches_gluing_on_every_pair(m):
    ds = list(enumerate_diagrams(m))
    for d1, d2 in itertools.product(ds, repeat=2):
        res = compose(d1, d2)
        assert (res.composite, res.loops) == glued_compose(d1, d2)


@pytest.mark.parametrize("m", [4, 5, 6])
def test_compose_matches_gluing_on_random_pairs(m):
    rng = random.Random(400 + m)
    for _ in range(2000):
        d1, d2 = random_diagram(m, rng), random_diagram(m, rng)
        res = compose(d1, d2)
        assert (res.composite, res.loops) == glued_compose(d1, d2)


def test_compose_size_mismatch():
    with pytest.raises(SizeMismatchError):
        compose(identity_diagram(2), identity_diagram(3))


def test_invariant_violations_rejected():
    with pytest.raises(DiagramInvariantError):
        BrauerDiagram(1, (0, 1))           # fixed point
    with pytest.raises(DiagramInvariantError):
        BrauerDiagram(2, (1, 2, 3, 0))     # not an involution
    with pytest.raises(DiagramInvariantError):
        BrauerDiagram(2, (1, 0, 3, 2, 5, 4))  # wrong length


@pytest.mark.parametrize("partner,message", [
    ((4, 2, 1, 0), "vertex 0 matched out of range: 4"),
    ((1, 0, 2, 3), "fixed point at vertex 2"),
    ((1, 2, 3, 0), "not an involution: partner[0]=1 but partner[1]=2"),
    ((-1, 2, 1, 0), "vertex 0 matched out of range: -1"),
], ids=["out-of-range", "fixed-point", "not-an-involution", "negative"])
def test_each_invariant_violation_keeps_its_message(partner, message):
    with pytest.raises(DiagramInvariantError) as exc:
        BrauerDiagram(2, partner)
    assert str(exc.value) == message


def test_permutation_roundtrip():
    rng = random.Random(11)
    for _ in range(100):
        m = rng.randint(1, 7)
        w = list(range(m))
        rng.shuffle(w)
        d = permutation_to_diagram(w)
        assert d.is_permutation()
        assert d.permutation_word() == tuple(w)


def test_permutation_diagrams_compose_like_words():
    rng = random.Random(5)
    for _ in range(50):
        m = rng.randint(2, 6)
        v = list(range(m))
        w = list(range(m))
        rng.shuffle(v)
        rng.shuffle(w)
        res = compose(permutation_to_diagram(v), permutation_to_diagram(w))
        assert res.loops == 0
        assert res.composite == permutation_to_diagram(compose_words(v, w))


def test_non_permutation_rejected():
    with pytest.raises(DiagramInvariantError):
        permutation_to_diagram((0, 0, 1))
    with pytest.raises(DiagramInvariantError):
        c_generator(3, 1, 2).permutation_word()


def test_c_generator_edges():
    c = c_generator(2, 1, 2)
    assert c.edges == ((0, 1), (2, 3))
    c13 = c_generator(3, 1, 3)
    horizontal = [e for e in c13.edges if (e[0] < 3) == (e[1] < 3)]
    assert len(horizontal) == 2
    assert len(c13.edges) - len(horizontal) == 1
    assert compose(c_generator(5, 1, 2), c_generator(5, 1, 2)).loops == 1


def test_c_generator_validation():
    with pytest.raises(ValueError):
        c_generator(3, 2, 2)
    with pytest.raises(ValueError):
        c_generator(3, 0, 2)
    with pytest.raises(ValueError):
        c_generator(3, 1, 4)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_enumeration_counts_and_canonical_order(m):
    diagrams = list(enumerate_diagrams(m))
    assert len(diagrams) == double_factorial_odd(m)
    assert len(set(diagrams)) == len(diagrams)
    keys = [d.edges for d in diagrams]
    assert keys == sorted(keys)


def test_enumeration_cap(monkeypatch):
    with pytest.raises(CapExceededError):
        list(enumerate_diagrams(7))
    for r in range(8):  # before yielding anything, whatever the wall
        with pytest.raises(CapExceededError):
            next(enumerate_walled(Wall(r, 7 - r)))
    monkeypatch.setattr(diagrams, "DEFAULT_ENUM_CAP", 7)
    assert sum(1 for _ in enumerate_diagrams(7)) == double_factorial_odd(7)


def test_walled_predicate_basics():
    ident = identity_diagram(4)
    for r in range(5):
        assert is_walled(ident, Wall(r, 4 - r))
    c = c_generator(2, 1, 2)
    assert is_walled(c, Wall(1, 1))
    assert not is_walled(c, Wall(2, 0))
    with pytest.raises(SizeMismatchError):
        is_walled(c, Wall(2, 1))


def test_walled_rule_and_flip_match_the_edge_by_edge_reference():
    cases = 0
    for m in range(1, 6):
        for d in enumerate_diagrams(m):
            for r in range(m + 1):
                wall = Wall(r, m - r)
                assert is_walled(d, wall) == reference_is_walled(d, wall), (d, wall)
                assert flip(d, wall) == reference_flip(d, wall), (d, wall)
                cases += 1
    assert cases == 6266


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 6])
def test_walled_enumeration_is_the_filtered_full_one_in_order(m):
    full = list(enumerate_diagrams(m))
    for r in range(m + 1):
        wall = Wall(r, m - r)
        walled = list(enumerate_walled(wall))
        assert walled == [d for d in full if is_walled(d, wall)], wall
        assert len(walled) == math.factorial(m)


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_walled_count_is_factorial(r, s):
    wall = Wall(r, s)
    count = sum(1 for d in enumerate_diagrams(wall.m) if is_walled(d, wall))
    expected = 1
    for k in range(2, wall.m + 1):
        expected *= k
    assert count == expected


def test_walled_closed_under_composition():
    for r, s in [(1, 1), (2, 1)]:
        wall = Wall(r, s)
        walled = [d for d in enumerate_diagrams(wall.m) if is_walled(d, wall)]
        for d1, d2 in itertools.product(walled, repeat=2):
            assert is_walled(compose(d1, d2).composite, wall)


def test_flip_involutive_on_random_diagrams():
    rng = random.Random(23)
    for _ in range(100):
        m = rng.randint(1, 6)
        r = rng.randint(0, m)
        d = random_diagram(m, rng)
        wall = Wall(r, m - r)
        assert flip(flip(d, wall), wall) == d


def test_flip_of_crossing_generator_is_permutation():
    f = flip(c_generator(2, 1, 2), Wall(1, 1))
    assert f.is_permutation()
    assert f == permutation_to_diagram((1, 0))


def test_flip_trivial_wall():
    rng = random.Random(3)
    for _ in range(20):
        d = random_diagram(4, rng)
        assert flip(d, Wall(4, 0)) == d


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (2, 2)])
def test_flip_bijects_walled_onto_permutations(r, s):
    wall = Wall(r, s)
    walled = [d for d in enumerate_diagrams(wall.m) if is_walled(d, wall)]
    flipped = {flip(d, wall) for d in walled}
    perms = {permutation_to_diagram(w)
             for w in itertools.permutations(range(wall.m))}
    assert flipped == perms


@pytest.mark.parametrize("r,s", [(1, 1), (2, 1), (2, 2)])
def test_flip_intertwines_composition(r, s):
    # walled composition corresponds to the twisted composition of the
    # flipped permutation diagrams, with matching loop counts
    wall = Wall(r, s)
    walled = [d for d in enumerate_diagrams(wall.m) if is_walled(d, wall)]
    for d1, d2 in itertools.product(walled, repeat=2):
        res = compose(d1, d2)
        twisted, loops = bizarre_compose(flip(d1, wall), flip(d2, wall), wall)
        assert loops == res.loops
        assert twisted == flip(res.composite, wall)


def test_bizarre_composition_with_empty_right_side_is_ordinary():
    wall = Wall(3, 0)
    rng = random.Random(9)
    for _ in range(20):
        v = list(range(3))
        w = list(range(3))
        rng.shuffle(v)
        rng.shuffle(w)
        d1, d2 = permutation_to_diagram(v), permutation_to_diagram(w)
        twisted, loops = bizarre_compose(d1, d2, wall)
        assert loops == 0
        assert twisted == compose(d1, d2).composite


def test_composition_associative_with_additive_loops_exhaustive():
    for m in (1, 2, 3):
        diagrams = list(enumerate_diagrams(m))
        for a, b, c in itertools.product(diagrams, repeat=3):
            ab = compose(a, b)
            bc = compose(b, c)
            left = compose(ab.composite, c)
            right = compose(a, bc.composite)
            assert left.composite == right.composite
            assert ab.loops + left.loops == bc.loops + right.loops


def test_composition_associative_random_larger():
    rng = random.Random(77)
    for _ in range(200):
        m = rng.randint(4, 6)
        a, b, c = (random_diagram(m, rng) for _ in range(3))
        ab = compose(a, b)
        bc = compose(b, c)
        left = compose(ab.composite, c)
        right = compose(a, bc.composite)
        assert left.composite == right.composite
        assert ab.loops + left.loops == bc.loops + right.loops


def test_wall_generator_matches_columns():
    wall = Wall(2, 2)
    d = wall_generator(wall, 1, 2)
    assert d == c_generator(4, 1, 4)
    assert is_walled(d, wall)
    with pytest.raises(ValueError):
        wall_generator(wall, 3, 1)


def test_serialization_golden():
    assert diagram_to_json(identity_diagram(2)) == {
        "m": 2, "edges": [["t1", "b1"], ["t2", "b2"]]}
    assert diagram_to_json(c_generator(2, 1, 2)) == {
        "m": 2, "edges": [["t1", "t2"], ["b1", "b2"]]}


def test_serialization_roundtrip_random():
    rng = random.Random(41)
    for _ in range(100):
        d = random_diagram(rng.randint(1, 6), rng)
        assert diagram_from_json(diagram_to_json(d)) == d


def test_deserialize_rejects_malformed():
    with pytest.raises(DiagramParseError):
        diagram_from_json({"m": 2, "edges": [["t1", "x2"], ["t2", "b2"]]})
    with pytest.raises(DiagramParseError):
        diagram_from_json({"m": 2, "edges": [["t1"], ["t2", "b2"]]})
    with pytest.raises(DiagramParseError):
        diagram_from_json({"m": 0, "edges": []})
    with pytest.raises(DiagramParseError):
        diagram_from_json([1, 2, 3])
    with pytest.raises(DiagramParseError):
        diagram_from_json({"m": 2, "edges": [["t1", "t3"], ["t2", "b2"]]})


def test_deserialize_reports_invariant_violations_distinctly():
    with pytest.raises(DiagramInvariantError, match="twice"):
        diagram_from_json({"m": 2, "edges": [["t1", "t2"], ["t1", "b2"]]})
    with pytest.raises(DiagramInvariantError, match="fixed point"):
        diagram_from_json({"m": 2, "edges": [["t1", "t1"], ["b1", "b2"]]})
    with pytest.raises(DiagramInvariantError, match="edges"):
        diagram_from_json({"m": 3, "edges": [["t1", "b1"]]})


def test_wall_validation():
    with pytest.raises(DiagramInvariantError):
        Wall(0, 0)
    with pytest.raises(DiagramInvariantError):
        Wall(-1, 2)
    assert Wall(2, 0).m == 2


def test_inverse_word():
    assert inverse_word((2, 0, 1)) == (1, 2, 0)
    assert compose_words((2, 0, 1), (1, 2, 0)) == (0, 1, 2)


def test_text_serialization_roundtrip():
    from diagramalg.diagrams import deserialize_diagram, serialize_diagram

    c = c_generator(2, 1, 2)
    text = serialize_diagram(c)
    assert text == '{"edges":[["t1","t2"],["b1","b2"]],"m":2}'
    assert deserialize_diagram(text) == c
    with pytest.raises(DiagramParseError, match="line"):
        deserialize_diagram("{oops")
