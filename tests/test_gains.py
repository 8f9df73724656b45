"""Group actions, walk gains, switching, and gauge fixing."""

import random
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest

from gainquad import (GF, AdditiveGroup, CyclicGroup, GainGraph, affine_gains,
                      affine_plane, expand, field_from_order, gains_from_json,
                      gains_to_json, gq_criterion, group_from_spec, identity_gains,
                      spanning_tree_edges, switch)
from gainquad.gains import spanning_tree_gauge_codes
from gainquad.fields import MAX_ORDER
from gainquad.groups import code_dtype
from helpers import spanning_tree_gauge, walk_gain


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


# Z_n and GF(p) compose by add-and-wrap, GF(2^n) by XOR, and GF(9) and
# GF(27) read the Cayley table; GF(2^4) has the largest order with uint8
# codes, Z17 the smallest with uint16 and Z257 the smallest with uint32.
CODED_GROUPS = ([CyclicGroup(n) for n in (*range(1, 21), 255, 256, 257)]
                + [AdditiveGroup(GF(2, n)) for n in range(1, 9)]
                + [AdditiveGroup(GF(p)) for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)]
                + [AdditiveGroup(GF(3, n)) for n in (2, 3)])


@pytest.mark.parametrize("group", CODED_GROUPS, ids=repr)
def test_codes_follow_the_group_law(group):
    els = group.elements()
    assert [group.code(g) for g in els] == list(range(len(els)))
    k = group.order
    dtype = code_dtype(k)
    assert dtype == (np.uint8 if k <= 16 else np.uint16 if k <= 256 else np.uint32)
    # the Cayley table on ranks, built from compose, is the reference
    table, inverses = group._code_tables
    a, b = np.divmod(np.arange(k * k), k)
    # every code pair in each integer dtype that holds the codes; narrower
    # codes are widened first, so Z17 takes uint8 16 + 16 to 15
    for width in (np.uint8, np.uint16, np.int64):
        if k - 1 > np.iinfo(width).max:
            continue
        x, y = a.astype(width), b.astype(width)
        composed, inverted = group.compose_codes(x, y), group.inverse_codes(x)
        assert composed.dtype == inverted.dtype == dtype
        assert not (np.shares_memory(composed, x) or np.shares_memory(inverted, x))
        assert np.array_equal(composed, table) and np.array_equal(inverted, inverses[a])
    # numpy scalars and 0-d arrays, at the last code, where a sum wraps
    for last in (np.int64(k - 1), np.array(k - 1, dtype=dtype)):
        composed, inverted = group.compose_codes(last, last), group.inverse_codes(last)
        assert composed.dtype == inverted.dtype == dtype
        assert composed is not last and inverted is not last
        assert composed == table[-1] and inverted == inverses[-1]


@pytest.mark.parametrize("group", [CyclicGroup(3), AdditiveGroup(GF(2, 2))], ids=repr)
def test_composing_codes_makes_no_wide_index(group):
    # a table read would widen 1 MB of uint8 codes into an 8 MB intp index
    a = np.arange(1 << 20, dtype=np.uint8) % np.uint8(group.order)
    tracemalloc.start()
    try:
        group.compose_codes(a, a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 << 20


def test_codes_at_the_order_ceiling_fit_uint32():
    # no group is larger (CyclicGroup refuses a modulus past MAX_ORDER),
    # and the largest sum of two codes of the largest still fits
    top = np.array([MAX_ORDER - 1])
    composed = CyclicGroup(MAX_ORDER).compose_codes(top, top)
    assert code_dtype(MAX_ORDER) == composed.dtype == np.uint32
    assert composed.tolist() == [MAX_ORDER - 2]


def test_group_spec_roundtrip():
    for group in sample_groups():
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


def test_gain_graph_refuses_a_non_element(plane2):
    # Z2 gains of 5 on every edge were once accepted: expand read 5 as 1,
    # gains_to_json wrote a 5 that gains_from_json refuses, and
    # gq_criterion raised a bare KeyError.  Now no such graph reaches
    # them: it is refused when made, and codes are read-only after.
    s, group = plane2.structure, CyclicGroup(2)
    with pytest.raises(ValueError, match=r"^gain 5 on edge \(0, 0\) is not an element of Z2$"):
        GainGraph(s, group, {(b, p): 5 for p, b in s.incidence})
    gains = {(b, p): 0 for p, b in s.incidence}
    for value in (2, -1, 0.5, [1], (1,), None):
        gains[(3, 3)] = value
        with pytest.raises(ValueError, match=re.escape(f"gain {value!r} on edge (3, 3) ")):
            GainGraph(s, group, gains)
    codes = np.zeros(len(s.pairs), dtype=np.int64)
    codes[7] = 5  # edge 7 is (3, 3)
    with pytest.raises(ValueError, match=r"^gain code 5 on edge \(3, 3\) is not a code of Z2$"):
        GainGraph(s, group, codes)
    for bad in (codes[1:], codes.astype(float), codes[:, None]):
        with pytest.raises(ValueError, match="^gain codes are 12 integers, one per edge$"):
            GainGraph(s, group, bad)
    g = GainGraph(s, group, codes % 2)
    with pytest.raises(ValueError, match="read-only"):
        g.codes[7] = 5
    assert gains_from_json(s, gains_to_json(g)).codes.tolist() == g.codes.tolist()
    assert not gq_criterion(g) and expand(g).n_points == 16


def test_gains_file_listing_an_edge_twice_is_refused(plane2):
    # the last of the two entries once won silently: edge (0, 0) read
    # back as (1,) where the file's first entry says (0,)
    doc = gains_to_json(affine_gains(plane2))
    assert [0, 0, [0]] in doc["gains"]
    doc["gains"].append([0, 0, [1]])
    with pytest.raises(ValueError, match=r"^two gain entries for point 0 and line 0$"):
        gains_from_json(plane2.structure, doc)


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
    adj = s.adjacency
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
            w2.append(rng.choice(s.adjacency[w2[-1]]))
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
    adj = s.adjacency
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


def _gauge_case(q, group, columns, seed):
    """A base and (edges, S) gain codes: every assignment when columns
    is None, else that many seeded random ones."""
    base = affine_plane(field_from_order(q)).structure
    edges = len(base.pairs)
    if columns is None:
        digits = np.array(list(product(range(group.order), repeat=edges))).T
    else:
        rng = random.Random(seed)
        digits = np.array([[rng.randrange(group.order) for _ in range(columns)]
                           for _ in range(edges)]).reshape(edges, columns)
    return base, digits.astype(code_dtype(group.order))


def _columns(graphs, codes):
    """The codes of each gain graph, one column each, shaped as codes."""
    return np.array([g.codes for g in graphs]).reshape(codes.shape[::-1]).T


# AG(2,2)/Z2 in full, seeded batches on larger planes, and no columns.
GAUGE_CASES = [
    pytest.param(2, CyclicGroup(2), None, id="ag2-2-Z2-all"),
    pytest.param(3, CyclicGroup(3), 200, id="ag2-3-Z3"),
    pytest.param(4, AdditiveGroup(GF(2, 2)), 100, id="ag2-4-GF4"),
    pytest.param(5, CyclicGroup(5), 60, id="ag2-5-Z5"),
    pytest.param(3, CyclicGroup(3), 0, id="ag2-3-Z3-empty"),
]


@pytest.mark.parametrize("q, group, columns", GAUGE_CASES)
def test_gauge_codes_match_the_scalar_gauge(q, group, columns):
    base, codes = _gauge_case(q, group, columns, seed=q)
    graphs = [GainGraph(base, group, col) for col in codes.T]
    expected = _columns([spanning_tree_gauge(g)[0] for g in graphs], codes)
    gauged = spanning_tree_gauge_codes(base, group, codes)
    assert gauged.shape == codes.shape
    assert gauged.tolist() == expected.tolist()


@pytest.mark.parametrize("q, group, columns", GAUGE_CASES[1:4])
def test_gauge_codes_ignore_switching(q, group, columns):
    base, codes = _gauge_case(q, group, columns, seed=10 + q)
    els = group.elements()
    rng = random.Random(q)
    switched = _columns([switch(GainGraph(base, group, col),
                                {e: rng.choice(els) for e in range(base.n_elements)})
                         for col in codes.T], codes)
    assert switched.tolist() != codes.tolist()
    assert (spanning_tree_gauge_codes(base, group, switched).tolist()
            == spanning_tree_gauge_codes(base, group, codes).tolist())


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
