"""Core incidence geometry: graphs, chains, distances, and verifiers."""

import math
import random

import pytest

import gainquad.geometry as geometry
from gainquad import (GF, CyclicGroup, GainGraph, IncidenceStructure, affine_gains,
                      affine_plane, count_shortest_chains,
                      compose_isomorphisms, distance, dual, expand,
                      field_from_order, firmness,
                      invert_isomorphism, is_chain, is_generalized_ngon,
                      is_linear_space, is_ovoid,
                      Isomorphism, payne_derivation, steiner_parameters,
                      structure_from_json, structure_to_json,
                      symplectic_quadrangle, verify_isomorphism)
from helpers import (assert_quadrangle_witness, enumerate_chains, grid_quadrangle,
                     naive_linear_space, naive_shortest_count, quadrilateral,
                     random_structure, relabeled, tiny_base)


def test_construction_validation():
    with pytest.raises(ValueError):
        IncidenceStructure([], ["b"], [(0, 0)])
    with pytest.raises(ValueError):
        IncidenceStructure(["p"], ["b"], [])
    with pytest.raises(ValueError):
        IncidenceStructure(["p"], ["b"], [(0, 1)])


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
                    same_type = s.is_point_eid(u) == s.is_point_eid(v)
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
        for u in range(s.n_elements):
            for v in range(s.n_elements):
                k, naive = naive_shortest_count(s, u, v)
                if k is None:
                    assert distance(s, u, v) == math.inf
                else:
                    assert distance(s, u, v) == k
                    assert count_shortest_chains(s, u, v) == naive


def test_census_exact_fallback(monkeypatch, expansion2):
    import gainquad.geometry as geometry
    dist_fast, count_fast = geometry.chain_census(expansion2, 4)
    monkeypatch.setattr(geometry, "_EXACT_LIMIT", 1.0)
    dist_slow, count_slow = geometry.chain_census(expansion2, 4)
    assert (dist_fast == dist_slow).all()
    assert (count_fast == count_slow).all()


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
    table = s.line_table()
    for p in range(s.n_points):
        for q in range(s.n_points):
            if p != q:
                b = s.common_line(p, q)
                assert p in s.points_of_line[b] and q in s.points_of_line[b]
                assert table[p, q] == b
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
        s.line_table()


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
    assert firmness(s) == "firm"


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
             grid_quadrangle(3), quadrilateral()]
    expansions = []
    for q in (2, 3, 4, 5, 7):
        plane = affine_plane(field_from_order(q))
        expansions.append(expand(affine_gains(plane)))
        cases += [plane.structure, expansions[-1]]
    for q in (2, 3, 4):
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
    # 64 cells hold a few point rows, so most witnesses lie past the first block
    for block_cells in (geometry._GQ_BLOCK_CELLS, 64):
        monkeypatch.setattr(geometry, "_GQ_BLOCK_CELLS", block_cells)
        kinds = {quadrangle_check(s) for s in cases}
        assert kinds == {"pass", "distance", "uniqueness"}


def test_quadrangle_check_on_every_tiny_structure(quadrangle_check):
    """Every incidence relation on at most 3 points and 3 lines."""
    kinds = set()
    for v in (1, 2, 3):
        for b in (1, 2, 3):
            flags = [(p, j) for p in range(v) for j in range(b)]
            for mask in range(1, 1 << len(flags)):
                s = IncidenceStructure(range(v), range(b),
                                       [f for k, f in enumerate(flags) if mask >> k & 1])
                kinds.add(quadrangle_check(s))
    assert kinds == {"pass", "distance", "uniqueness"}


def test_firmness_not_firm():
    s = IncidenceStructure(["p"], ["b"], [(0, 0)])
    assert firmness(s) == "not-firm"


def test_firmness_of_expansions(expansion2, expansion3):
    # points of the smallest expansion lie on just two lines each
    assert firmness(expansion2) == "firm"
    assert firmness(expansion3) == "thick"


def test_ovoid_trivia(expansion2):
    c = expansion2
    assert is_ovoid(c, c.x_points())
    assert not is_ovoid(c, range(c.n_points))  # all points: lines meet it often
    assert not is_ovoid(c, set())


def test_isomorphism_compose_invert():
    rng = random.Random(3)
    s = quadrilateral()
    copy, pp, ll = relabeled(s, rng)
    # point i of the copy is point pp[i] of s, so pp maps copy -> s
    iso = Isomorphism(tuple(pp), tuple(ll))
    assert verify_isomorphism(copy, s, iso)
    inv = invert_isomorphism(iso)
    assert verify_isomorphism(s, copy, inv)
    round_trip = compose_isomorphisms(iso, inv)  # s -> copy -> s
    assert round_trip.point_map == tuple(range(s.n_points))
    assert round_trip.line_map == tuple(range(s.n_lines))
    assert verify_isomorphism(s, s, round_trip)


def test_json_roundtrip(expansion2):
    doc = structure_to_json(expansion2, tags=expansion2.tags_json())
    s, tags = structure_from_json(doc)
    assert s.incidence == expansion2.incidence
    assert s.point_labels == expansion2.point_labels
    assert tags["points"][0] == ["x", 0, None]
