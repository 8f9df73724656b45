"""Group actions, walk gains, switching, and gauge fixing."""

import random
from itertools import product

import numpy as np
import pytest

from gainquad import (GF, AdditiveGroup, CyclicGroup, GainGraph, Rationals,
                      affine_gains, gains_from_json, gains_to_json,
                      group_from_spec, identity_gains, spanning_tree_edges,
                      spanning_tree_gauge, switch, walk_gain)
from gainquad.groups import code_dtype


def sample_groups():
    return [CyclicGroup(5), AdditiveGroup(GF(2, 2)), AdditiveGroup(GF(3))]


@pytest.mark.parametrize("group", sample_groups(), ids=repr)
def test_group_axioms(group):
    els = group.elements()
    e = group.identity()
    for g in els:
        assert group.compose(g, e) == g
        assert group.compose(e, g) == g
        assert group.compose(g, group.inverse(g)) == e
    rng = random.Random(1)
    for _ in range(50):
        g, h, k = (rng.choice(els) for _ in range(3))
        assert (group.compose(group.compose(g, h), k)
                == group.compose(g, group.compose(h, k)))


@pytest.mark.parametrize("group", sample_groups(), ids=repr)
def test_left_action_laws(group):
    els = group.elements()
    lams = group.lambdas()
    e = group.identity()
    rng = random.Random(2)
    for lam in lams:
        assert group.act(e, lam) == lam
    for _ in range(50):
        g, h = rng.choice(els), rng.choice(els)
        lam = rng.choice(lams)
        assert group.act(group.compose(g, h), lam) == group.act(g, group.act(h, lam))


@pytest.mark.parametrize("group", sample_groups(), ids=repr)
def test_regular_actions(group):
    # the shipped instances act on themselves: free and transitive
    els = group.elements()
    assert group.regular
    for g in els:
        images = {group.act(g, lam) for lam in group.lambdas()}
        assert len(images) == len(els)
        if any(group.act(g, lam) == lam for lam in group.lambdas()):
            assert g == group.identity()


# GF(2^4) has the largest order with uint8 codes, Z17 the smallest with uint16.
CODED_GROUPS = [CyclicGroup(n) for n in (2, 3, 4, 5, 17)] + [
    AdditiveGroup(GF(p, n)) for p, n in ((2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2))]


@pytest.mark.parametrize("group", CODED_GROUPS, ids=repr)
def test_codes_follow_the_group_law(group):
    els = group.elements()
    assert [group.code(g) for g in els] == list(range(len(els)))
    pairs = list(product(els, els))
    dtype = code_dtype(group.order)
    assert dtype == (np.uint8 if group.order <= 16 else np.uint16)
    a = np.array([group.code(g) for g, _ in pairs], dtype=dtype)
    b = np.array([group.code(h) for _, h in pairs], dtype=dtype)
    composed = group.compose_codes(a, b)
    inverted = group.inverse_codes(a)
    assert composed.dtype == inverted.dtype == dtype
    assert composed.tolist() == [group.code(group.compose(g, h)) for g, h in pairs]
    assert inverted.tolist() == [group.code(group.inverse(g)) for g, _ in pairs]
    # narrower codes are widened first: Z17 takes uint8 16 + 16 to 15
    narrow = group.compose_codes(a.astype(np.uint8), b.astype(np.uint8))
    assert narrow.tolist() == composed.tolist()


def test_group_spec_roundtrip():
    for group in sample_groups() + [AdditiveGroup(Rationals())]:
        assert group_from_spec(group.spec()) == group


def test_cyclic_decode_is_strict():
    group = CyclicGroup(3)
    assert [group.decode(group.encode(g)) for g in group.elements()] == [0, 1, 2]
    for bad in (3, -1, [1], 1.0, True, "1"):
        with pytest.raises(ValueError):
            group.decode(bad)


def test_gain_graph_requires_total_assignment(plane2):
    group = CyclicGroup(2)
    gains = {(b, p): 0 for p, b in plane2.structure.incidence}
    key = next(iter(gains))
    del gains[key]
    with pytest.raises(ValueError):
        GainGraph(plane2.structure, group, gains)


def test_single_edge_walk_orientation(plane2):
    g = affine_gains(plane2)
    s = plane2.structure
    p, b = s.incidence[5]
    phi = g.gain(b, p)
    assert walk_gain(g, [s.line_eid(b), p]) == phi
    assert walk_gain(g, [p, s.line_eid(b)]) == g.group.inverse(phi)


def test_empty_walk_is_identity(plane2):
    g = affine_gains(plane2)
    assert walk_gain(g, [0]) == g.group.identity()


def test_malformed_walk(plane2):
    g = affine_gains(plane2)
    with pytest.raises(ValueError):
        walk_gain(g, [])
    with pytest.raises(ValueError):
        walk_gain(g, [0, 1])  # two points are never adjacent


def _random_walk(rng, s, length):
    adj = s.adjacency()
    walk = [rng.randrange(s.n_elements)]
    for _ in range(length):
        walk.append(rng.choice(adj[walk[-1]]))
    return walk


def test_walk_gain_concatenation_and_reverse(plane3):
    g = affine_gains(plane3)
    s = plane3.structure
    group = g.group
    rng = random.Random(4)
    for _ in range(30):
        w1 = _random_walk(rng, s, rng.randrange(1, 6))
        w2 = [w1[-1]]  # continue from where w1 stopped
        for _ in range(rng.randrange(1, 6)):
            w2.append(rng.choice(s.adjacency()[w2[-1]]))
        joined = w1 + w2[1:]
        assert walk_gain(g, joined) == group.compose(walk_gain(g, w2),
                                                     walk_gain(g, w1))
        assert walk_gain(g, list(reversed(w1))) == group.inverse(walk_gain(g, w1))


def test_switch_identity_function(plane2):
    g = affine_gains(plane2)
    f = {e: g.group.identity() for e in range(plane2.structure.n_elements)}
    assert switch(g, f).gains == g.gains


def test_switch_twice_restores(plane3):
    g = affine_gains(plane3)
    group = g.group
    rng = random.Random(6)
    els = group.elements()
    f = {e: rng.choice(els) for e in range(plane3.structure.n_elements)}
    f_inv = {e: group.inverse(v) for e, v in f.items()}
    assert switch(switch(g, f), f_inv).gains == g.gains


def test_switch_formula_exact(plane3):
    g = affine_gains(plane3)
    s = plane3.structure
    group = g.group
    rng = random.Random(7)
    els = group.elements()
    f = {e: rng.choice(els) for e in range(s.n_elements)}
    switched = switch(g, f)
    for (b, p), phi in g.gains.items():
        expected = group.compose(f[s.point_eid(p)],
                                 group.compose(phi, group.inverse(f[s.line_eid(b)])))
        assert switched.gains[(b, p)] == expected


def test_switch_requires_total_function(plane2):
    g = affine_gains(plane2)
    with pytest.raises(ValueError):
        switch(g, {0: g.group.identity()})


def _shortest_path(s, u, v):
    from collections import deque
    adj = s.adjacency()
    prev = {u: None}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            path = [v]
            while prev[path[-1]] is not None:
                path.append(prev[path[-1]])
            return path[::-1]
        for y in adj[x]:
            if y not in prev:
                prev[y] = x
                queue.append(y)
    raise AssertionError("disconnected")


def test_closed_walk_gain_conjugated_by_switching(plane3):
    g = affine_gains(plane3)
    s = plane3.structure
    group = g.group
    rng = random.Random(8)
    els = group.elements()
    f = {e: rng.choice(els) for e in range(s.n_elements)}
    switched = switch(g, f)
    for _ in range(20):
        walk = _random_walk(rng, s, 2 * rng.randrange(2, 6))
        closed = walk + _shortest_path(s, walk[-1], walk[0])[1:]
        base_gain = walk_gain(g, closed)
        h = f[closed[0]]
        conj = group.compose(h, group.compose(base_gain, group.inverse(h)))
        assert walk_gain(switched, closed) == conj


def test_spanning_tree_gauge(plane2):
    g = affine_gains(plane2)
    s = plane2.structure
    tree = spanning_tree_edges(s)
    assert len(tree) == s.n_elements - 1 == 9
    normalized, f = spanning_tree_gauge(g)
    for b, p in tree:
        assert normalized.gain(b, p) == g.group.identity()
    free = [e for e in ((b, p) for p, b in s.incidence) if e not in set(tree)]
    assert len(free) == 3


def test_gauge_output_is_switching_equivalent(plane2):
    from gainquad import expand, switching_isomorphism, verify_isomorphism
    g = affine_gains(plane2)
    normalized, f = spanning_tree_gauge(g)
    iso = switching_isomorphism(g, f)  # validated internally
    assert verify_isomorphism(expand(g), expand(normalized), iso)


def test_gauge_on_trivial_gains_is_identity(plane2):
    group = CyclicGroup(2)
    g = identity_gains(plane2.structure, group)
    normalized, f = spanning_tree_gauge(g)
    assert normalized.gains == g.gains
    assert all(v == group.identity() for v in f.values())


def test_gauge_rejects_disconnected():
    from gainquad import IncidenceStructure
    s = IncidenceStructure(["p", "q"], ["a", "b"], [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        spanning_tree_edges(s)


def test_gain_json_roundtrip(plane3):
    g = affine_gains(plane3)
    doc = gains_to_json(g)
    assert doc["group"] == {"kind": "GFpn", "p": 3, "n": 1}
    g2 = gains_from_json(plane3.structure, doc)
    assert g2.gains == g.gains
