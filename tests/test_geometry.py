"""Core incidence geometry: graphs, chains, distances, and verifiers."""

import math
import random
import re
import tracemalloc

import numpy as np
import pytest

import gainquad.geometry as geometry
from gainquad import (GF, CyclicGroup, GainGraph, IncidenceStructure, affine_gains,
                      affine_plane, dual, expand, field_from_order, identity_gains,
                      is_generalized_ngon, is_linear_space, is_ovoid, payne_derivation,
                      steiner_parameters, structure_from_json, structure_to_json,
                      symplectic_quadrangle)
from helpers import (assert_quadrangle_witness, block_loop_quadrangle, count_shortest_chains,
                     distance, enumerate_chains, grid_quadrangle, is_chain,
                     naive_common_lines, naive_incidence, naive_linear_space,
                     naive_padded_lists, naive_shortest_count, quadrilateral,
                     random_structure, swapped_lines, tiny_base)


def test_construction_validation():
    with pytest.raises(ValueError):
        IncidenceStructure([], ["b"], [(0, 0)])
    with pytest.raises(ValueError):
        IncidenceStructure(["p"], ["b"], [])
    with pytest.raises(ValueError):
        IncidenceStructure(["p"], ["b"], [(0, 1)])


@pytest.mark.parametrize("pairs", [
    [(0.9, 0), ("1", 0)], [(0, 0), (1, 0.0)], [(0, None)], [(np.float64(1), 0)],
    [(0, 0), (True, 0)], [(0, 0), (1, False)], [[1, 0], [0.5, 0]], ["ab"], [0, (1, 0)],
    [(0, 0, 0), (1, 0)], [(0,)], np.array([[0.0, 0.0], [1.0, 0.0]]),
    np.array([[True, False]]), np.array([0, 1]), np.array([[0, 0, 0]])])
def test_construction_refuses_non_integer_entries(pairs):
    with pytest.raises(ValueError) as want:
        naive_incidence(2, 1, pairs)
    with pytest.raises(ValueError, match="integers") as err:
        IncidenceStructure(["a", "b"], ["L"], pairs)
    assert str(err.value) == str(want.value) and "\n" not in str(err.value)


def test_construction_accepts_numpy_integers():
    s = IncidenceStructure(["a", "b"], ["L"], [(np.int64(1), np.int32(0)), (np.uint8(0), 0)])
    assert s.incidence == ((0, 0), (1, 0))
    assert all(type(x) is int for pair in s.incidence for x in pair)


@pytest.mark.parametrize("seed", range(20))
def test_construction_matches_the_naive_reference(seed):
    rng = random.Random(seed)
    v, nb = rng.randint(1, 7), rng.randint(1, 7)
    pairs = [(rng.randrange(v), rng.randrange(nb)) for _ in range(rng.randint(1, 40))]
    want = naive_incidence(v, nb, pairs)
    for given in (pairs, [list(x) for x in pairs], iter(pairs),
                  [(np.int64(p), np.uint8(b)) for p, b in pairs],
                  np.array(pairs), np.array(pairs, dtype=np.uint16)):
        s = IncidenceStructure(range(v), range(nb), given)
        assert (s.incidence, s.lines_of_point, s.points_of_line) == want
        assert s.incidence_set == frozenset(want[0])
        assert s.pairs.dtype == np.int32 and s.pairs.tolist() == [list(x) for x in want[0]]
        assert s.degrees.tolist() == [len(x) for x in want[1]]
        assert s.sizes.tolist() == [len(x) for x in want[2]]


@pytest.mark.parametrize("pairs", [[(0, 0), (3, 0), (2, 5), (-1, 9), (1, 1)],
                                   [(1, 7), (1, 2), (0, 0), (1, 3)],
                                   [(0, 0), (0, -1), (1, 0)],
                                   [(0, 0), (2 ** 70, 0), (5, 0)],
                                   [(0, -2 ** 80)]])
def test_out_of_range_names_the_first_pair_in_point_line_order(pairs):
    with pytest.raises(ValueError) as want:
        naive_incidence(2, 3, pairs)
    given = [pairs]
    if max(abs(x) for pair in pairs for x in pair) < 2 ** 63:
        given.append(np.array(pairs))
    for incidence in given:
        with pytest.raises(ValueError, match="out of range") as got:
            IncidenceStructure("ab", "LMN", incidence)
        assert str(got.value) == str(want.value)


def test_affine_plane_graphs():
    s2 = affine_plane(GF(2)).structure
    assert s2.n_elements == 10 and len(s2.incidence) == 12
    s3 = affine_plane(GF(3)).structure
    assert s3.n_elements == 21 and len(s3.incidence) == 36


def test_distance_basics():
    s = quadrilateral()
    assert distance(s, 0, 0) == 0
    assert distance(s, 0, s.line_eid(0)) == 1
    assert distance(s, 0, 2) == 4  # opposite corners of the cycle
    with pytest.raises(ValueError):
        distance(s, 0, 99)


def test_distance_disconnected():
    s = IncidenceStructure(["p", "q"], ["a", "b"], [(0, 0), (1, 1)])
    assert distance(s, 0, 1) == math.inf


def test_distance_parity():
    rng = random.Random(5)
    for _ in range(20):
        s = random_structure(rng)
        for u in range(s.n_elements):
            for v in range(s.n_elements):
                d = distance(s, u, v)
                if d is not math.inf:
                    same_type = (u < s.n_points) == (v < s.n_points)
                    assert (d % 2 == 0) == same_type


def test_count_shortest_trivial():
    s = quadrilateral()
    assert count_shortest_chains(s, 2, 2) == 1  # the empty chain
    assert count_shortest_chains(s, 0, s.line_eid(0)) == 1
    assert count_shortest_chains(s, 0, 2) == 2  # both ways around the cycle


def test_count_shortest_disconnected_raises():
    s = IncidenceStructure(["p", "q"], ["a", "b"], [(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        count_shortest_chains(s, 0, 1)


def test_count_matches_enumerator_on_random_structures():
    rng = random.Random(11)
    for _ in range(15):
        s = random_structure(rng)
        dist, count = geometry.chain_census(s, s.n_elements)
        for u in range(s.n_elements):
            for v in range(s.n_elements):
                k, naive = naive_shortest_count(s, u, v)
                if k is None:
                    assert distance(s, u, v) == math.inf
                    assert dist[u, v] == -1
                else:
                    assert distance(s, u, v) == k == dist[u, v]
                    assert count_shortest_chains(s, u, v) == naive == count[u, v]


def test_census_exact_fallback(expansion2):
    # Walk counts pass 2^53 well before length 60, yet the counts of the
    # pairs first reached by length 4 stay exact.
    n = expansion2.n_elements
    a = np.zeros((n, n))
    for u, nbrs in enumerate(expansion2.adjacency):
        a[u, list(nbrs)] = 1
    assert np.linalg.matrix_power(a, 60).max() > 2.0 ** 53
    dist, count = geometry.chain_census(expansion2, 60)
    dist4, count4 = geometry.chain_census(expansion2, 4)
    assert (dist == dist4).all() and (count == count4).all()
    assert all(count[u, v] == count_shortest_chains(expansion2, u, v)
               for u in range(n) for v in range(n))


def test_chains_may_backtrack_at_longer_lengths():
    # The chain definition places no repetition constraint: going
    # out and back is a legal 2-chain, just never a shortest one.
    s = tiny_base()
    assert enumerate_chains(s, 0, 0, 2) == 1  # p -> b -> p


def test_is_chain():
    s = quadrilateral()
    assert is_chain(s, [0])
    assert is_chain(s, [0, s.line_eid(0), 1])
    assert not is_chain(s, [0, 1])
    assert not is_chain(s, [])


def test_linear_space_verdicts():
    assert is_linear_space(affine_plane(GF(3)).structure).ok
    # two lines through the same two points
    s = IncidenceStructure(["p", "q", "r"], ["a", "b", "c"],
                           [(0, 0), (1, 0), (0, 1), (1, 1), (2, 2), (0, 2)])
    verdict = is_linear_space(s)
    assert not verdict.ok
    assert verdict.witness[0] == "points-on-multiple-lines"
    assert verdict.witness[1:3] == (0, 1)
    # complete incidence: every point on every line
    s = IncidenceStructure(["p", "q"], ["a"], [(0, 0), (1, 0)])
    verdict = is_linear_space(s)
    assert not verdict.ok
    assert verdict.witness == ("no-non-incident-pair",)


def test_linear_space_matches_naive_oracle():
    # random structures fail in every way the verifier names; the witness,
    # not just the verdict, must be the pair loop's
    rng = random.Random(21)
    seen = set()
    for _ in range(600):
        s = random_structure(rng, max_points=rng.choice([3, 5, 7]),
                             max_lines=rng.choice([3, 5, 7]))
        verdict = is_linear_space(s)
        assert tuple(verdict) == naive_linear_space(s)
        seen.add(verdict.witness[0] if verdict.witness else "ok")
    for s in (affine_plane(f).structure for f in (GF(2), GF(3), GF(2, 2))):
        assert tuple(is_linear_space(s)) == naive_linear_space(s) == (True, None)
    assert {"short-line", "points-on-no-common-line",
            "points-on-multiple-lines"} <= seen


def test_common_line():
    s = affine_plane(GF(3)).structure
    table = s.edge_table()
    for p in range(s.n_points):
        for q in range(s.n_points):
            if p != q:
                b = s.common_line(p, q)
                assert p in s.points_of_line[b] and q in s.points_of_line[b]
                assert table[p, q] == s.edge_ids[b, q]
            else:
                assert table[p, q] == -1
    with pytest.raises(ValueError, match="lie on 0 common lines"):
        s.common_line(4, 4)
    # points 2 and 0 share no line; points 0 and 1 share two
    s = IncidenceStructure(["p", "q", "r"], ["a", "b", "c"],
                           [(0, 0), (1, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    with pytest.raises(ValueError, match="lie on 0 common lines"):
        s.common_line(2, 0)
    with pytest.raises(ValueError, match="lie on 2 common lines"):
        s.common_line(0, 1)
    assert s.common_line(2, 1) == 2
    with pytest.raises(ValueError, match="points 0,1 lie on 2 common lines"):
        s.edge_table()


def _common_line_subjects():
    planes = [affine_plane(field_from_order(q)).structure
              for q in (2, 3, 4, 5, 7, 8, 9, 11, 13)]
    # W(3) is no linear space: two non-collinear points share no line
    w3 = symplectic_quadrangle(3).structure
    # points 0 and 1 share lines 0 and 1; point 3 lies on line 2 alone
    two = IncidenceStructure(range(4), range(3),
                             [(0, 0), (1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (3, 2)])
    # a line of 3 points and three lines of 2 make a linear space on
    # points 0 .. 3; point 4 is on no line
    isolated = IncidenceStructure(range(5), range(4), [(0, 0), (1, 0), (2, 0), (0, 1),
                                                       (3, 1), (1, 2), (3, 2), (2, 3), (3, 3)])
    return planes + [w3, two, isolated]


@pytest.mark.parametrize("block_cells", [None, 1, 40])
def test_common_lines_match_the_loop_oracle(block_cells, monkeypatch):
    if block_cells is not None:
        monkeypatch.setattr(geometry, "_COMMON_BLOCK_CELLS", block_cells)
    rng = random.Random(31)
    subjects = _common_line_subjects()
    subjects += [random_structure(rng, max_points=7, max_lines=7) for _ in range(40)]
    for s in subjects:
        edge, bad = s._common_lines
        want_edge, want_bad = naive_common_lines(s)
        assert edge.dtype == np.int32 and edge.flags.c_contiguous
        assert np.array_equal(edge, want_edge) and bad == want_bad


# Pinned witnesses and messages of the three subjects that are no linear
# space: the error paths count common lines at the failing pair alone.
_NOT_ONE_LINE = {
    "w3": (("points-on-no-common-line", 0, 9), "points 0,9 lie on 0 common lines",
           {(0, 1): 0, (0, 4): 2, (2, 3): "points 2,3 lie on 0 common lines"}),
    "two": (("points-on-multiple-lines", 0, 1, (0, 1)), "points 0,1 lie on 2 common lines",
            {(1, 0): "points 1,0 lie on 2 common lines", (1, 2): 1,
             (0, 4): "points 0,4 lie on 0 common lines"}),
    "isolated": (("points-on-no-common-line", 0, 4), "points 0,4 lie on 0 common lines",
                 {(2, 3): 3, (4, 0): "points 4,0 lie on 0 common lines",
                  (0, 0): "points 0,0 lie on 0 common lines",
                  (-1, 0): "points -1,0 lie on 0 common lines"}),
}


@pytest.mark.parametrize("name", list(_NOT_ONE_LINE))
def test_witnesses_and_messages_of_points_not_on_one_line(name):
    s = dict(zip(_NOT_ONE_LINE, _common_line_subjects()[9:]))[name]
    witness, message, calls = _NOT_ONE_LINE[name]
    assert is_linear_space(s) == (False, witness)
    with pytest.raises(ValueError, match=f"^{message}$"):
        s.edge_table()
    for (p, q), want in calls.items():
        if isinstance(want, int):
            assert s.common_line(p, q) == want
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
                s.common_line(p, q)


@pytest.mark.parametrize("dtype", [np.int32, np.intp])
def test_padded_lists_match_the_row_loop(dtype):
    rng = np.random.default_rng(7)
    lengths = [[0], [3], [0, 0, 2], [2, 0, 0], [1, 4, 0, 3, 2], [5, 5, 5],
               rng.integers(0, 9, 50).tolist()]
    for length in lengths:
        length = np.array(length)
        member = rng.integers(0, 100, int(length.sum())).astype(dtype)
        for pad in (-1, 100):
            got = geometry.padded_lists(member, length, pad)
            want = naive_padded_lists(member, length, pad)
            assert got.dtype == dtype and got.shape == want.shape
            assert np.array_equal(got, want)
    # a column of an (m, 2) array: a view with a stride of two entries
    s = symplectic_quadrangle(3).structure
    member = s.pairs.astype(dtype)[:, 1]
    assert not member.flags.c_contiguous
    assert np.array_equal(geometry.padded_lists(member, s.degrees, s.n_lines),
                          naive_padded_lists(member, s.degrees, s.n_lines))


def test_linear_space_short_line():
    s = IncidenceStructure(["p", "q"], ["a", "b"], [(0, 0), (1, 0), (0, 1)])
    verdict = is_linear_space(s)
    assert not verdict.ok
    assert verdict.witness == ("short-line", 1)


def test_steiner_parameters():
    assert steiner_parameters(affine_plane(GF(2)).structure) == (4, 2)
    assert steiner_parameters(affine_plane(GF(2, 2)).structure) == (16, 4)
    # the near-pencil on four points: a linear space with line sizes 3 and 2
    near_pencil = IncidenceStructure(
        ["1", "2", "3", "4"], ["a", "b", "c", "d"],
        [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 3), (3, 3)])
    assert is_linear_space(near_pencil).ok
    assert steiner_parameters(near_pencil) is None


def test_quadrilateral_is_thin_quadrangle():
    s = quadrilateral()
    assert is_generalized_ngon(s, 4).ok


def test_ngon_tightness(expansion2):
    # a structure with a pair at distance 4 cannot be a generalized 3-gon
    for s in (quadrilateral(), expansion2):
        assert is_generalized_ngon(s, 4).ok
        verdict = is_generalized_ngon(s, 3)
        assert not verdict.ok
        assert verdict.witness[0] == "distance"


def test_ngon_rejects_disconnected():
    s = IncidenceStructure(["p", "q"], ["a", "b"], [(0, 0), (1, 1)])
    verdict = is_generalized_ngon(s, 4)
    assert not verdict.ok and verdict.witness[0] == "distance"


def test_ngon_rejects_duplicate_chains():
    # two points on two common lines: two 2-chains between the lines
    s = IncidenceStructure(["p", "q", "r"], ["a", "b"],
                           [(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)])
    verdict = is_generalized_ngon(s, 4)
    assert not verdict.ok
    assert verdict.witness[0] == "uniqueness"


def _perturbed(s, rng, move):
    """s with one random incidence removed or, when move, moved to
    another point of the same line."""
    pairs = list(s.incidence)
    p, b = pairs.pop(rng.randrange(len(pairs)))
    if move:
        p = rng.choice([x for x in range(s.n_points) if (x, b) not in s.incidence_set])
        pairs.append((p, b))
    return IncidenceStructure(s.point_labels, s.line_labels, pairs)


def _quadrangle_cases():
    rng = random.Random(44)
    cases = [IncidenceStructure(["p", "q"], ["a"], [(0, 0)]),  # isolated point
             IncidenceStructure(["p", "q"], ["a", "b"], [(0, 0), (1, 0)]),  # isolated line
             IncidenceStructure(["p"], ["a"], [(0, 0)]),  # a single flag
             IncidenceStructure(["p", "q"], ["a", "b"],  # two points on two lines
                                [(0, 0), (1, 0), (0, 1), (1, 1)]),
             grid_quadrangle(3), quadrilateral(),
             # skewed degrees: one point on every line, one line through
             # every point, a triangle with a pendant and an isolated point
             IncidenceStructure(range(6), range(5),
                                [(0, b) for b in range(5)] + [(b + 1, b) for b in range(5)]),
             IncidenceStructure(range(6), range(5),
                                [(p, 0) for p in range(6)] + [(p, p) for p in range(1, 5)]),
             IncidenceStructure(range(5), range(3),
                                [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2), (3, 1)])]
    expansions = []
    for q in (2, 3, 4, 5, 7):
        plane = affine_plane(field_from_order(q))
        expansions.append(expand(affine_gains(plane)))
        cases += [plane.structure, expansions[-1]]
    for q in (2, 3, 4, 5):
        w = symplectic_quadrangle(q)
        d = payne_derivation(w)
        cases += [w.structure, dual(w.structure), d, dual(d)]
    cases += [random_structure(rng) for _ in range(300)]
    for c in expansions[:3]:
        cases += [_perturbed(c, rng, move) for move in (False, True) for _ in range(8)]
    for q in (2, 3):
        base = affine_plane(GF(q)).structure
        for _ in range(20):
            gains = {(b, p): CyclicGroup(2).elements()[rng.randrange(2)]
                     for p, b in base.incidence}
            cases.append(expand(GainGraph(base, CyclicGroup(2), gains)))
    return cases


@pytest.fixture
def quadrangle_check(monkeypatch):
    """Checks is_generalized_ngon(s, 4) against the census and the BFS
    oracles and returns its witness kind; the census must not run."""
    census = geometry.census_ngon
    monkeypatch.setattr(geometry, "census_ngon",
                        lambda s, n: pytest.fail(f"census_ngon ran for n = {n}"))

    def check(s):
        verdict = is_generalized_ngon(s, 4)
        assert verdict.ok == census(s, 4).ok, s.incidence
        if verdict:
            return "pass"
        assert_quadrangle_witness(s, verdict.witness)
        return verdict.witness[0]

    return check


def test_quadrangle_check_matches_census_oracle(quadrangle_check, monkeypatch):
    cases = _quadrangle_cases()
    # 64 entries hold a few point rows at most, so most witnesses lie past
    # the first block; 1 puts every point row in a block of its own
    for block_cells in (geometry._GQ_BLOCK_CELLS, 64, 1):
        monkeypatch.setattr(geometry, "_GQ_BLOCK_CELLS", block_cells)
        kinds = {quadrangle_check(s) for s in cases}
        assert kinds == {"pass", "distance", "uniqueness"}


@pytest.mark.parametrize("block_cells", [None, 1])
def test_quadrangle_check_pins_its_witnesses(block_cells, monkeypatch):
    if block_cells:
        monkeypatch.setattr(geometry, "_GQ_BLOCK_CELLS", block_cells)
    plane = affine_plane(GF(11))
    assert is_generalized_ngon(plane.structure, 4).witness == ("uniqueness", 0, 122, 11)
    c = expand(identity_gains(plane.structure, CyclicGroup(11)))
    assert is_generalized_ngon(c, 4).witness == ("uniqueness", 121, 1694, 11)


def test_quadrangle_check_memory_stays_below_the_incidence_matrix(monkeypatch):
    """With small blocks the check allocates less than a dense float32
    incidence matrix would take."""
    s = expand(affine_gains(affine_plane(GF(7))))
    monkeypatch.setattr(geometry, "_GQ_BLOCK_CELLS", 1 << 12)
    tracemalloc.start()
    try:
        assert is_generalized_ngon(s, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * s.n_points * s.n_lines


def test_quadrangle_check_gathers_no_lines_for_points_on_many_common_lines(monkeypatch):
    """Every point on every line: each row would gather b lines for each
    of its b * (v - 1) pairs (M, x), but the repeated x settle it first."""
    v = b = 100
    s = IncidenceStructure(range(v), range(b), [(p, j) for p in range(v) for j in range(b)])
    monkeypatch.setattr(geometry, "_GQ_BLOCK_CELLS", 1)
    tracemalloc.start()
    try:
        assert is_generalized_ngon(s, 4).witness == ("uniqueness", 0, 1, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one row's gather would take 8 bytes for each of its b * b * (v - 1) lines
    assert peak < v * b * b


def _tiny_structures():
    """Every incidence relation on at most 3 points and 3 lines."""
    for v in (1, 2, 3):
        for b in (1, 2, 3):
            flags = [(p, j) for p in range(v) for j in range(b)]
            for mask in range(1, 1 << len(flags)):
                yield IncidenceStructure(range(v), range(b),
                                         [f for k, f in enumerate(flags) if mask >> k & 1])


def test_quadrangle_check_on_every_tiny_structure(quadrangle_check):
    kinds = {quadrangle_check(s) for s in _tiny_structures()}
    assert kinds == {"pass", "distance", "uniqueness"}


def test_failing_check_names_the_first_failing_row(monkeypatch):
    """A failure's witness is that of the first failing point row, as the
    block loop names it with every row a block of its own, whatever the
    window budget of the bitsets."""
    cases = _quadrangle_cases() + list(_tiny_structures())
    wants = [block_loop_quadrangle(s, 1) for s in cases]
    for block_cells in (geometry._GQ_BLOCK_CELLS, 64, 1):
        monkeypatch.setattr(geometry, "_GQ_BLOCK_CELLS", block_cells)
        for s, want in zip(cases, wants):
            got = is_generalized_ngon(s, 4)
            assert (got.ok, got.witness) == (want.ok, want.witness), s.incidence


def test_w3_with_two_lines_swapped_fails_at_point_0():
    """W(3) with the lines of pairs 7 and 41 swapped: the first failing
    point, 0, is joined to line 6 (eid 46) by no pair, and the census
    names the same pair."""
    s = swapped_lines(symplectic_quadrangle(3).structure, 7, 41)
    assert is_generalized_ngon(s, 4).witness == ("distance", 0, 46)
    assert geometry.census_ngon(s, 4).witness == ("distance", 0, 46)


def test_identity_and_bitsets_find_the_first_failing_row():
    """The first point failing (A) or (B) of is_generalized_quadrangle is
    the first point row that fails when every row is a block of its own.
    At some of those rows only (A) fails, and at others only (B), so
    neither half can go."""
    halves = set()
    for s in _quadrangle_cases() + list(_tiny_structures()):
        v = s.n_points
        a = np.flatnonzero(~geometry._identity_holds(s))
        fa, fb = int(a[0]) if len(a) else v, geometry._first_unmet(s, v)
        want = block_loop_quadrangle(s, 1)
        assert min(fa, fb) == (v if want else want.witness[1]), s.incidence
        if not want:
            halves.add(("A" if fa == want.witness[1] else "")
                       + ("B" if fb == want.witness[1] else ""))
    assert {"A", "B"} <= halves


def test_bitset_windows_of_64_points(monkeypatch):
    """With one block cell (B) runs in windows of one uint64 word: the
    expansions for q = 3, 4, 5 still pass, and copies with one incidence
    removed or moved name the witnesses of the block loop, as does one
    where only (B) fails and the first failing point lies past the first
    window."""
    monkeypatch.setattr(geometry, "_GQ_BLOCK_CELLS", 1)
    rng = random.Random(45)
    later = 0
    for q in (3, 4, 5):
        c = expand(affine_gains(affine_plane(field_from_order(q))))
        assert is_generalized_ngon(c, 4)
        copies = [_perturbed(c, rng, move) for move in (False, True) for _ in range(8)]
        if q == 5:
            copies.append(_swapped_far(c))
            assert geometry._identity_holds(copies[-1]).all()
        for s in copies:
            got, want = is_generalized_ngon(s, 4), block_loop_quadrangle(s, 1)
            assert (got.ok, got.witness) == (want.ok, want.witness), s.incidence
            later += not got and got.witness[1] >= 64
    assert later


def _swapped_far(c):
    """c with incidences (0, L) and (y, M) swapped for (0, M) and (y, L),
    y the first point not collinear with 0.  Every degree and line size
    stays, so (A) still holds at every point.  Only points collinear
    with 0 or y see the change, and they are labelled last."""
    pt, ln = c.pairs.T
    near = np.isin(pt, pt[np.isin(ln, ln[pt == 0])])
    y = int(np.flatnonzero(~np.isin(np.arange(c.n_points), pt[near]))[0])
    near |= np.isin(pt, pt[np.isin(ln, ln[pt == y])])
    last = np.zeros(c.n_points, dtype=bool)
    last[pt[near]] = True
    rank = np.argsort(np.argsort(last, kind="stable"))
    i, j = int(np.flatnonzero(pt == 0)[0]), int(np.flatnonzero(pt == y)[0])
    ln = ln.copy()
    ln[[i, j]] = ln[[j, i]]
    return IncidenceStructure(c.point_labels, c.line_labels, np.column_stack([rank[pt], ln]))


def test_passing_check_names_no_witness(monkeypatch):
    """A quadrangle passes on (A) and (B) alone: no witness is sought."""
    def witness(*args):
        raise AssertionError("a witness was sought")

    monkeypatch.setattr(geometry, "_row_witness", witness)
    for q in (2, 3, 4, 5, 7):
        w = symplectic_quadrangle(q)
        for s in (expand(affine_gains(affine_plane(field_from_order(q)))),
                  w.structure, payne_derivation(w)):
            assert is_generalized_ngon(s, 4) and is_generalized_ngon(dual(s), 4)


@pytest.mark.extended
@pytest.mark.parametrize("q", [8, 9, 11, 13, 16])
def test_quadrangle_check_matches_the_block_loop_at_large_q(q):
    rng = random.Random(q)
    w = symplectic_quadrangle(q)
    cases = [w.structure, expand(affine_gains(affine_plane(field_from_order(q)))),
             dual(payne_derivation(w))]
    cases += [_perturbed(c, rng, move) for c in cases for move in (False, True)]
    for s in cases:
        got = is_generalized_ngon(s, 4)
        want = block_loop_quadrangle(s, 1)
        assert (got.ok, got.witness) == (want.ok, want.witness)


def test_ovoid_trivia(expansion2):
    c = expansion2
    assert is_ovoid(c, c.x_points())
    assert not is_ovoid(c, range(c.n_points))  # all points: lines meet it often
    assert not is_ovoid(c, set())


def test_json_roundtrip(expansion2):
    doc = structure_to_json(expansion2, tags=expansion2.tags_json())
    s, tags = structure_from_json(doc)
    assert s.incidence == expansion2.incidence
    assert s.point_labels == expansion2.point_labels
    assert tags["points"][0] == ["x", 0, None]
