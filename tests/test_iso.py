"""Canonical forms and isomorphism witnesses."""

import random
import sys
from dataclasses import replace

import numpy as np
import pytest

from gainquad import (IncidenceStructure, Isomorphism, affine_gains, affine_plane, are_isomorphic,
                      canonical_form, distinguishing_invariant, dual, expand,
                      field_from_order, payne_derivation, symplectic_quadrangle,
                      verify_isomorphism)
from gainquad import iso
from gainquad.iso import (SearchStats, _dense_rank, _orbit_labels, _Refiner,
                          _search, _stabiliser_elements)
from helpers import (brute_force_isomorphic, grid_quadrangle, is_automorphism, orbit_hits,
                     quadrilateral, random_structure, reference_invariant, reference_refine,
                     relabeled, stabiliser_orbit_hits, tiny_base)


def test_canonical_form_is_relabeling_invariant(expansion2):
    rng = random.Random(17)
    subjects = [quadrilateral(), grid_quadrangle(3), expansion2,
                tiny_base()]
    for s in subjects:
        reference = canonical_form(s)
        for _ in range(100):
            copy, _, _ = relabeled(s, rng)
            assert canonical_form(copy) == reference


def test_canonical_form_separates_non_isomorphic():
    rng = random.Random(18)
    seen = {}
    for _ in range(40):
        s = random_structure(rng, max_points=5, max_lines=4)
        cf = canonical_form(s)
        for other_cf, other in seen.items():
            same_cert = cf == other_cf
            assert same_cert == brute_force_isomorphic(s, other)
        # keep one representative per certificate to bound the loop
        seen.setdefault(cf, s)


def test_grid_realizes_the_smallest_expansion(expansion2):
    # the expansion over the 2-element field is the 4x4 grid quadrangle
    assert canonical_form(expansion2) == canonical_form(grid_quadrangle(4))
    assert are_isomorphic(expansion2, grid_quadrangle(4)) is not None


def test_expansion_matches_dual_derivation_canonically(expansion3):
    right = dual(payne_derivation(symplectic_quadrangle(3)))
    assert canonical_form(expansion3) == canonical_form(right)


def test_identity_witness(expansion2):
    iso = are_isomorphic(expansion2, expansion2)
    assert iso is not None
    assert verify_isomorphism(expansion2, expansion2, iso)


def test_witnesses_are_valid(expansion2):
    rng = random.Random(19)
    for _ in range(10):
        copy, _, _ = relabeled(expansion2, rng)
        iso = are_isomorphic(expansion2, copy)
        assert iso is not None
        assert verify_isomorphism(expansion2, copy, iso)


def test_verify_isomorphism_refuses_a_map_that_breaks_one_incidence(expansion2):
    """A bijection that carries every incidence but one onto the target is
    refused, as are maps that are not bijections or have the wrong length."""
    s = expansion2
    identity = Isomorphism(tuple(range(s.n_points)), tuple(range(s.n_lines)))
    assert verify_isomorphism(s, s, identity)
    pairs = list(s.incidence)
    p, b = pairs.pop(7)
    q = next(x for x in range(s.n_points) if (x, b) not in s.incidence_set)
    moved = IncidenceStructure(s.point_labels, s.line_labels, pairs + [(q, b)])
    assert len(moved.pairs) == len(s.pairs)
    assert not verify_isomorphism(s, moved, identity)
    assert not verify_isomorphism(moved, s, identity)
    # two points swapped: a bijection that moves each one's incidences
    swap = list(range(s.n_points))
    swap[p], swap[q] = q, p
    assert not verify_isomorphism(s, s, Isomorphism(tuple(swap), identity.line_map))
    repeated = (0,) + identity.point_map[1:-1] + (0,)
    assert not verify_isomorphism(s, s, Isomorphism(repeated, identity.line_map))
    assert not verify_isomorphism(s, s, Isomorphism(identity.point_map[:-1],
                                                    identity.line_map))


def test_different_counts_not_isomorphic(expansion2, expansion3):
    assert are_isomorphic(expansion2, expansion3) is None
    assert distinguishing_invariant(expansion2, expansion3) == "point-count"


def test_brute_force_agreement_small():
    rng = random.Random(20)
    pairs = 0
    while pairs < 60:
        s1 = random_structure(rng, max_points=5, max_lines=4)
        if rng.random() < 0.5:
            s2, _, _ = relabeled(s1, rng)
        else:
            s2 = random_structure(rng, max_points=5, max_lines=4)
        expected = brute_force_isomorphic(s1, s2)
        got = are_isomorphic(s1, s2)
        assert (got is not None) == expected
        if got is not None:
            assert verify_isomorphism(s1, s2, got)
        pairs += 1


def _uniform_structure(rng, v, nb, k):
    """nb random k-subsets of v points as lines; every line has size k."""
    lines = [rng.sample(range(v), k) for _ in range(nb)]
    return IncidenceStructure(range(v), range(nb),
                              [(p, b) for b, pts in enumerate(lines) for p in pts])


def test_targeted_search_witnesses_verify():
    rng = random.Random(23)
    pairs = []
    for q in (2, 3):
        left = expand(affine_gains(affine_plane(field_from_order(q))))
        right = dual(payne_derivation(symplectic_quadrangle(q)))
        pairs += [(left, right), (right, relabeled(left, rng)[0])]
    while len(pairs) < 520:
        v, nb = rng.randint(3, 6), rng.randint(2, 5)
        k = rng.randint(2, v - 1)
        s1 = _uniform_structure(rng, v, nb, k)
        s2 = (relabeled(s1, rng)[0] if rng.random() < 0.5
              else _uniform_structure(rng, v, nb, k))
        pairs.append((s1, s2))
    found = 0
    for s1, s2 in pairs:
        iso = are_isomorphic(s1, s2)
        if s1.n_points <= 6:
            assert (iso is not None) == brute_force_isomorphic(s1, s2)
        if iso is not None:
            assert verify_isomorphism(s1, s2, iso)
            found += 1
    assert 0 < found < len(pairs)


def test_distinguishing_invariants():
    a = quadrilateral()
    b = grid_quadrangle(3)
    assert distinguishing_invariant(a, b) == "point-count"
    # same counts, different degrees: split one line into two short ones
    s1 = IncidenceStructure(["p", "q", "r"], ["a", "b"],
                            [(0, 0), (1, 0), (2, 0), (0, 1)])
    s2 = IncidenceStructure(["p", "q", "r"], ["a", "b"],
                            [(0, 0), (1, 0), (2, 1), (0, 1)])
    assert distinguishing_invariant(s1, s2) == "line-degree-multiset"


@pytest.mark.parametrize("second, expected", [
    ([(0, 0), (1, 0), (2, 1)], "line-count"),
    ([(0, 0), (1, 0), (2, 1), (3, 2)], "incidence-count"),
    ([(0, 0), (1, 0), (2, 0), (0, 1), (3, 1), (0, 2), (4, 2)], "point-degree-multiset"),
    ([(0, 0), (1, 0), (2, 0), (0, 1), (3, 1), (1, 2), (4, 2)], "refinement-invariant"),
    ([(0, 0), (1, 0), (2, 0), (4, 1), (0, 1), (4, 2), (3, 2)], None),
])
def test_distinguishing_invariant_after_the_point_count(second, expected):
    # lines {0,1,2}, {0,3}, {3,4}; the refinement-invariant case has the
    # same degrees but lines {0,1,2}, {0,3}, {1,4}
    first = [(0, 0), (1, 0), (2, 0), (0, 1), (3, 1), (3, 2), (4, 2)]
    lines = 1 + max(b for _, b in second)
    s1 = IncidenceStructure(range(5), range(3), first)
    s2 = IncidenceStructure(range(5), range(lines), second)
    assert distinguishing_invariant(s1, s2) == expected


def test_non_isomorphic_same_parameters():
    # the grid and the dual-grid expansion disagree once parameters do
    g33 = grid_quadrangle(3)
    assert are_isomorphic(g33, dual(g33)) is None


def test_canonical_certificates_are_strings(expansion2):
    cf = canonical_form(expansion2)
    assert isinstance(cf.certificate, str) and len(cf.certificate) == 64
    assert cf.n_points == 16 and cf.n_lines == 8
    assert sorted(cf.point_order) == list(range(16))
    assert sorted(cf.line_order) == list(range(8))
    # equality and hash read the matrix and its shape, not how it was reached
    other = replace(cf, point_order=cf.point_order[::-1],
                    line_order=cf.line_order[::-1], certificate="")
    assert other == cf and hash(other) == hash(cf)
    assert cf != cf.matrix and cf != (cf.n_points, cf.n_lines, cf.matrix)


def test_timeout_raises(expansion3):
    import time
    with pytest.raises(TimeoutError):
        are_isomorphic(expansion3, expansion3,
                       deadline=time.monotonic() - 1)


# (base, columns): one key per column at 2**62, two or more packed keys
# at 2 with 70 columns and at 301 (7 columns a key) with 9 and 25.
RANK_SHAPES = [(2, 1), (2, 70), (3, 5), (301, 9), (301, 25),
               (70_001, 4), (2**31 + 11, 3), (2**62, 3)]


@pytest.mark.parametrize("base,cols", RANK_SHAPES)
def test_dense_rank_matches_row_unique(base, cols):
    rng = np.random.default_rng(cols * 1000 + base % 997)
    sentinel = base - 1
    cases = [np.full((1, cols), sentinel, dtype=np.int64),
             np.full((40, cols), min(1, sentinel), dtype=np.int64)]
    for rows in (1, 2, 57, 300):
        for high in (min(base, 3), base):
            sig = rng.integers(0, high, size=(rows, cols), dtype=np.int64)
            # Pad a random suffix of each row with the sentinel, as the
            # refiner pads vertices of small degree.
            filled = rng.integers(0, cols + 1, size=rows)
            sig[np.arange(cols) >= filled[:, None]] = sentinel
            cases.append(sig)
            cases.append(sig[rng.integers(0, rows, size=3 * rows)])  # repeats
    for sig in cases:
        _, expected = np.unique(sig, axis=0, return_inverse=True)
        got = _dense_rank(sig, base)
        assert got.dtype == np.int64
        assert np.array_equal(got, expected.reshape(-1))


def _refines_as_oracle(s, ref, colors, v=None):
    """Refine colors, or individualize v in them, against the oracle: the
    same colors, and one round fewer exactly when a partition that was
    not discrete ends discrete.  Returns the refined colors and whether
    a round was saved."""
    if v is not None:
        c = colors[v]
        colors = colors + (colors >= c)
        colors[v] = c
    expected, rounds = reference_refine(s, colors)
    before = ref.rounds
    got = ref.refine(colors)
    assert got.dtype == np.int64 and np.array_equal(got, expected)
    n = s.n_elements
    saved = int(len(np.unique(colors)) < n and int(got.max()) + 1 == n)
    assert ref.rounds - before == rounds - saved
    return got, saved


def _refine_to_a_leaf(s, ref, colors):
    """Individualize the first vertex of the target cell until the
    partition is discrete, each step against the oracle; also the other
    vertices of the root's target cell, up to three.  Returns the number
    of refinements that saved a round."""
    saved, cell = 0, ref.target_cell(colors)
    if cell is not None:
        for v in np.flatnonzero(colors == cell)[1:4].tolist():
            saved += _refines_as_oracle(s, ref, colors, v)[1]
    while cell is not None:
        v = int(np.flatnonzero(colors == cell)[0])
        colors, step = _refines_as_oracle(s, ref, colors, v)
        saved, cell = saved + step, ref.target_cell(colors)
    return saved


def _structure_with_repeated_lines(rng):
    """A random structure in which some lines repeat another's points."""
    v = rng.randint(1, 7)
    lines = [rng.sample(range(v), rng.randint(1, v)) for _ in range(rng.randint(1, 4))]
    lines += [rng.choice(lines) for _ in range(rng.randint(1, 3))]
    return IncidenceStructure(range(v), range(len(lines)),
                              [(p, b) for b, pts in enumerate(lines) for p in pts])


def test_refinement_matches_the_oracle_on_random_structures():
    rng = random.Random(25)
    # the smallest structure, n = 2: one point on one line
    subjects = [IncidenceStructure(["p"], ["b"], [(0, 0)])]
    while len(subjects) < 200:
        subjects.append(_structure_with_repeated_lines(rng) if rng.random() < 0.3
                        else random_structure(rng, max_points=8, max_lines=8))
    assert any(np.ptp(s.degrees) > 0 for s in subjects)
    discrete = saved = 0
    for s in subjects:
        ref = _Refiner(s)
        initial = ref.initial_colors()
        side = (np.arange(s.n_elements) >= s.n_points).astype(np.int64)
        _, expected = np.unique(np.stack([side, ref.degs], axis=1), axis=0,
                                return_inverse=True)
        assert np.array_equal(initial, expected.reshape(-1))
        root, step = _refines_as_oracle(s, ref, initial)
        discrete += int(root.max()) + 1 == s.n_elements
        saved += step + _refine_to_a_leaf(s, ref, root)
    assert 0 < discrete < len(subjects) and saved > 0


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_refinement_matches_the_oracle_on_payne_pairs(q):
    left = expand(affine_gains(affine_plane(field_from_order(q))))
    right = dual(payne_derivation(symplectic_quadrangle(q)))
    for s in (left, right):
        ref = _Refiner(s)
        root, saved = _refines_as_oracle(s, ref, ref.initial_colors())
        assert not saved and ref.target_cell(root) is not None
        assert _refine_to_a_leaf(s, ref, root) >= 1


@pytest.mark.extended
@pytest.mark.parametrize("q", [8, 9, 11])
def test_refinement_matches_the_oracle_on_larger_payne_pairs(q):
    test_refinement_matches_the_oracle_on_payne_pairs(q)


def _random_subjects():
    """The 200 structures of the random oracle test above."""
    rng = random.Random(25)
    subjects = [IncidenceStructure(["p"], ["b"], [(0, 0)])]
    while len(subjects) < 200:
        subjects.append(_structure_with_repeated_lines(rng) if rng.random() < 0.3
                        else random_structure(rng, max_points=8, max_lines=8))
    return subjects


def _individualizes_as_refine(ref, colors, v):
    """individualize(colors, v), whose first round ranks one side only,
    against refine of the same individualized colors with both sides
    ranked: the same colors in the same number of rounds.  Returns them."""
    c = colors[v]
    new = colors + (colors >= c)
    new[v] = c
    before = ref.rounds
    expected = ref.refine(new)
    rounds = ref.rounds - before
    got = ref.individualize(colors, v)
    assert np.array_equal(got, expected) and ref.rounds - before == 2 * rounds
    return got


def _individualize_to_a_leaf(ref, colors):
    """_individualizes_as_refine on up to four vertices of each target
    cell, following the first down to a discrete partition.  Returns the
    number of vertices checked."""
    checked = 0
    while (cell := ref.target_cell(colors)) is not None:
        first, *others = np.flatnonzero(colors == cell)[:4].tolist()
        for v in others:
            _individualizes_as_refine(ref, colors, v)
        colors = _individualizes_as_refine(ref, colors, first)
        checked += 1 + len(others)
    return checked


def _side_splits(s, colors):
    """Whether the point and the line color counts grew, per round of the
    oracle's refinement from colors."""
    trace, v = [], s.n_points
    reference_refine(s, colors, trace)
    counts = [(len(np.unique(c[:v])), len(np.unique(c[v:]))) for c in trace]
    return [(a[0] > b[0], a[1] > b[1]) for b, a in zip(counts, counts[1:])]


def test_a_side_splits_only_after_the_other_side_has():
    # The oracle ranks both sides every round; after the first round, a
    # side's count grows only in a round after the other side's grew.
    both_late = checked = 0
    for s in _random_subjects():
        ref = _Refiner(s)
        splits = _side_splits(s, ref.initial_colors())
        for before, now in zip(splits, splits[1:]):
            assert now[0] <= before[1] and now[1] <= before[0]
        # some structure splits both sides in one round after the first,
        # so refine's rounds over both sides at once are exercised
        both_late += any(all(now) for now in splits[1:])
        checked += _individualize_to_a_leaf(ref, ref.refine(ref.initial_colors()))
    assert both_late and checked > 200


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7])
def test_individualize_ranks_as_refine_on_payne_pairs(q):
    left = expand(affine_gains(affine_plane(field_from_order(q))))
    right = dual(payne_derivation(symplectic_quadrangle(q)))
    for s in (left, right):
        ref = _Refiner(s)
        assert _individualize_to_a_leaf(ref, ref.refine(ref.initial_colors())) >= 4


def test_invariant_matches_the_oracle():
    # Refined colorings from the root to a leaf, and random dense ones:
    # permutations, which are discrete, and colorings with few colors.
    rng = np.random.default_rng(29)
    subjects = _random_subjects()[::4] + [
        expand(affine_gains(affine_plane(field_from_order(q)))) for q in (2, 3, 4)]
    kinds = set()
    for s in subjects:
        ref, n = _Refiner(s), s.n_elements
        colors = ref.refine(ref.initial_colors())
        colorings = [colors, rng.permutation(n)]
        colorings.append(np.unique(rng.integers(0, 3, n), return_inverse=True)[1])
        while (cell := ref.target_cell(colors)) is not None:
            colors = ref.individualize(colors, int(np.flatnonzero(colors == cell)[0]))
            colorings.append(colors)
        for colors in colorings:
            colors = colors.reshape(-1).astype(np.int64)
            assert ref.invariant(colors) == reference_invariant(s, colors)
            kinds.add(int(colors.max()) + 1 == n)
    assert kinds == {False, True}


# Certificates at CERTIFICATE_VERSION 2; a change to any of these values
# changes what a checkpoint of that version means.
PINNED = {
    2: "c61e66ed2da6aab20051f122b34a53cb71fe630180b0bfff00ac36a062342065",
    3: "d321b73b2bb94eab4d6edcb5e69014525f2c941ebfb7c14f22b58200c7c38e2e",
    4: "7928ea038f1c29549c2559f2105a99826b15a0e9447089ee594a5838d1e806c1",
    5: "22505da51e15bf67f886bc2a5657bc3a327e251fcb1e23b403a0f12b7845beff",
}


@pytest.mark.parametrize("seed", range(10))
def test_refiner_tables_list_each_vertex_neighbours(seed):
    # The table built from pairs and degree offsets, against one loop
    # over the incidence pairs per vertex.
    s = random_structure(random.Random(seed))
    ref = _Refiner(s)
    v, n = s.n_points, s.n_elements
    rows = [[v + b for p, b in s.incidence if p == e] for e in range(v)]
    rows += [[p for p, b in s.incidence if b == e] for e in range(s.n_lines)]
    width = max(map(len, rows))
    assert ref.selfpad[:, 1:].tolist() == [row + [n] * (width - len(row)) for row in rows]
    # each side's rows, only as wide as that side's largest degree
    for (table, sig, neighbours, rank, ranks), side in zip(ref.sides,
                                                           (range(v), range(v, n))):
        side_width = max(len(rows[e]) for e in side)
        assert table.flags.c_contiguous and table.dtype == np.intp
        assert table.tolist() == [[e] + rows[e] + [n] * (side_width - len(rows[e]))
                                  for e in side]
        assert sig.shape == table.shape and rank.shape == (len(side) + 1,)
        assert neighbours.base is sig and neighbours.shape == (len(side), side_width)
        assert ranks.base is rank and ranks.shape == (len(side),)
    assert ref.degs.tolist() == [len(row) for row in rows]
    assert list(zip(ref.edge_u.tolist(), ref.edge_v.tolist())) == [
        (e, x) for e, row in enumerate(rows) for x in row]
    assert [(p, b - v) for p, b in zip(*(x.tolist() for x in ref.flags))] == list(s.incidence)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_certificates_are_pinned(q):
    plane = affine_plane(field_from_order(q))
    assert canonical_form(expand(affine_gains(plane))).certificate == PINNED[q]
    if q <= 4:
        right = dual(payne_derivation(symplectic_quadrangle(q)))
        assert canonical_form(right).certificate == PINNED[q]


def test_search_stats_count_each_search(expansion2, expansion3):
    stats = []
    copy, _, _ = relabeled(expansion3, random.Random(24))
    assert are_isomorphic(expansion3, copy, stats=stats) is not None
    assert len(stats) == 2
    for st in stats:
        # every node is entered through at least one refinement round
        assert st.refinement_rounds >= st.nodes >= st.leaves >= 1
        # each backjump leaves from a leaf; the root is not discrete, and
        # every level below it is entered through at least one node
        assert st.leaves >= st.backjumps and st.nodes > st.max_depth >= 1
    first = stats[0]
    # each automorphism comes from a leaf that ties the first best leaf
    assert first.automorphisms >= 1 and first.leaves > first.automorphisms
    # the automorphisms found map some explored vertex onto a sibling
    assert first.orbit_prunes >= 1 and first.backjumps >= 1
    stats = []
    assert are_isomorphic(expansion2, expansion3, stats=stats) is None
    assert stats == []


# SearchStats of are_isomorphic(expansion, dual derivation) at certificate
# version 2, first search then second: (nodes, leaves, automorphisms,
# refinement rounds, orbit prunes, backjumps, max depth, stabiliser
# elements).  These count work, not results: the witnesses are pinned
# apart (PINNED, test_acceptance.WITNESSES).
PAYNE_COUNTERS = {
    3: ((20, 7, 6, 97, 87, 6, 4, 2), (5, 1, 0, 20, 0, 0, 4, 0)),
    4: ((30, 10, 9, 165, 218, 9, 4, 11), (5, 1, 0, 21, 0, 0, 4, 0)),
    5: ((24, 9, 7, 150, 649, 7, 3, 29), (12, 6, 4, 74, 112, 4, 3, 3)),
}


@pytest.mark.parametrize("q", sorted(PAYNE_COUNTERS))
def test_payne_pair_search_counters_are_pinned(q):
    left = expand(affine_gains(affine_plane(field_from_order(q))))
    right = dual(payne_derivation(symplectic_quadrangle(q)))
    stats = []
    assert are_isomorphic(left, right, stats=stats) is not None
    assert tuple((st.nodes, st.leaves, st.automorphisms, st.refinement_rounds,
                  st.orbit_prunes, st.backjumps, st.max_depth, st.stabiliser_elements)
                 for st in stats) == PAYNE_COUNTERS[q]
    assert all(st.seconds > 0 for st in stats)
    assert all(st.stabiliser_seconds > 0 for st in stats if st.stabiliser_elements)


def _random_permutations(rng, n, k):
    """k permutations of range(n) as a (k, n) array, each a product of
    disjoint random cycles on a random subset; the rest stay fixed."""
    gens = np.tile(np.arange(n, dtype=np.int64), (k, 1))
    for g in gens:
        moved = rng.sample(range(n), rng.randint(0, n))
        while moved:
            size = rng.randint(1, len(moved))
            cycle, moved = moved[:size], moved[size:]
            g[cycle] = cycle[1:] + cycle[:1]
    return gens


def _assert_orbit_labels(gens, n, rng):
    labels = _orbit_labels(gens, n)
    assert labels.shape == (n,)
    for v in range(n):
        least = int(labels[v])
        # the label lies in v's orbit, and nothing in that orbit is smaller
        assert least == v or (least < v and orbit_hits(v, [least], gens))
        assert not orbit_hits(least, range(least), gens)
    for _ in range(20):
        v = rng.randrange(n)
        explored = rng.sample([w for w in range(n) if w != v], rng.randint(0, n - 1))
        assert orbit_hits(v, explored, gens) == (labels[v] in set(labels[explored].tolist()))


@pytest.mark.parametrize("seed", range(30))
def test_orbit_labels_match_orbit_walk(seed):
    rng = random.Random(seed)
    n = rng.choice([1, 2, 5, rng.randint(6, 80)])
    _assert_orbit_labels(_random_permutations(rng, n, rng.randint(1, 4)), n, rng)


@pytest.mark.parametrize("n", [1, 2, 7])
def test_orbit_labels_without_moves(n):
    rng = random.Random(n)
    no_generators = np.empty((0, n), dtype=np.int64)
    only_identity = np.arange(n, dtype=np.int64)[None, :]
    for gens in (no_generators, only_identity):
        assert np.array_equal(_orbit_labels(gens, n), np.arange(n))
        _assert_orbit_labels(gens, n, rng)


def test_root_invariant_mismatch_answers_at_once():
    # equal point, line and incidence counts; the line sizes differ, so
    # the root invariants differ, one pair order above, the other below
    s1 = IncidenceStructure(["p", "q", "r"], ["a", "b"],
                            [(0, 0), (1, 0), (2, 0), (0, 1)])
    s2 = IncidenceStructure(["p", "q", "r"], ["a", "b"],
                            [(0, 0), (1, 0), (2, 1), (0, 1)])
    for left, right in ((s1, s2), (s2, s1)):
        stats = []
        assert are_isomorphic(left, right, stats=stats) is None
        assert len(stats) == 2 and stats[1].nodes == 1


@pytest.mark.parametrize("q", [7, 8, 9])
def test_bare_plane_canonical_form_is_fast(q):
    import time
    plane = affine_plane(field_from_order(q)).structure
    form = canonical_form(plane, deadline=time.monotonic() + 10)
    copy, _, _ = relabeled(plane, random.Random(q))
    assert canonical_form(copy, deadline=time.monotonic() + 10) == form


def test_refiner_peak_allocation_at_q11():
    # Before the discrete digest fed its ones from one fixed block and
    # the neighbor table was filled in place, this peaked at 1,896,177
    # traced bytes (numpy 2.4): the refiner kept max(n, 2E) int64 ones,
    # and built a padded copy of the neighbor lists besides the table.
    import tracemalloc
    s = expand(affine_gains(affine_plane(field_from_order(11))))
    tracemalloc.start()
    try:
        _Refiner(s)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_896_177


def _group_elements(gens):
    """Every element of the group the rows of gens generate, as tuples; a
    closure under composition, for small degrees."""
    identity = tuple(range(gens.shape[1]))
    elements, frontier = {identity}, [identity]
    while frontier:
        frontier = [y for y in {tuple(g[list(x)]) for x in frontier for g in gens}
                    if y not in elements]
        elements.update(frontier)
    return elements


@pytest.mark.parametrize("seed", range(40))
def test_stabiliser_elements_lie_in_the_pointwise_stabiliser(seed, monkeypatch):
    # Every permutation of the points of one line is an automorphism of
    # that structure; the line's id, the last, stays put.
    rng = random.Random(seed)
    m = rng.randint(2, 6)
    s = IncidenceStructure(range(m), ["L"], [(p, 0) for p in range(m)])
    k = rng.randint(1, 5)
    gens = np.column_stack([_random_permutations(rng, m, k), np.full(k, m)])
    group = _group_elements(gens)
    for _ in range(5):
        fixed = tuple(rng.sample(range(m), rng.randint(1, m - 1)))
        v = rng.randrange(m)
        rows = _stabiliser_elements(gens, fixed, v, np.arange(m + 1))
        assert rows.shape[1] == m + 1 and len(rows) <= iso.STABILISER_CAP
        assert all(is_automorphism(s, row) for row in rows)
        for row in rows:
            assert tuple(row) in group and (row[list(fixed)] == fixed).all()
            assert row[v] != v
        # on the points off the base, which the stabiliser maps onto
        # themselves, the same elements come out restricted
        support = np.setdiff1d(np.arange(m), fixed)
        local = _stabiliser_elements(gens, fixed, v, support)
        assert np.array_equal(support[local], rows[:, support])
        with monkeypatch.context() as patch:
            patch.setattr(iso, "STABILISER_CAP", 1)
            assert len(_stabiliser_elements(gens, fixed, v, support)) == min(len(rows), 1)


def _payne_pair(q):
    return (expand(affine_gains(affine_plane(field_from_order(q)))),
            dual(payne_derivation(symplectic_quadrangle(q))))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_stabiliser_elements_of_payne_searches_are_automorphisms(q, monkeypatch):
    calls = []

    def recorded(perms, fixed, v, support):
        rows = build(perms, fixed, v, support)
        calls.append((perms, fixed, v, support, rows))
        return rows

    build = iso._stabiliser_elements
    monkeypatch.setattr(iso, "_stabiliser_elements", recorded)
    left, right = _payne_pair(q)
    best = _search(left)
    searches = [(left, calls[:])]
    del calls[:]
    assert _search(right, (best["path"], best["cert"])) is not None
    searches.append((right, calls[:]))
    built = 0
    for s, made in searches:
        for perms, fixed, v, support, rows in made:
            full = build(perms, fixed, v, np.arange(s.n_elements))
            assert (full[:, list(fixed)] == fixed).all()
            assert all(is_automorphism(s, row) for row in full)
            # the search's elements are these, on the target cell
            assert np.array_equal(support[rows], full[:, support])
            built += len(rows)
    assert built > 0 or q == 2


class _SkipRecorder(SearchStats):
    """SearchStats that records each sibling the search skips: the base,
    the sibling, the explored siblings and the automorphisms known then,
    read off the frame of the search node that counts the skip."""

    def __init__(self):
        self.skips = []
        super().__init__()

    @property
    def orbit_prunes(self):
        return self.__dict__.get("prunes", 0)

    @orbit_prunes.setter
    def orbit_prunes(self, value):
        if value:
            node = sys._getframe(1).f_locals
            self.skips.append((node["fixed"], node["v"],
                               node["members"][node["explored"]].tolist(),
                               np.array(list(node["autos"].values()))))
        self.__dict__["prunes"] = value


def _assert_skips_lie_in_explored_orbits(stats):
    """Every skipped sibling is the image of an explored one under an
    automorphism in the group the automorphisms known then generate that
    fixes the base; returns the skips the automorphisms fixing the base
    alone do not explain."""
    beyond = 0
    for st in stats:
        orbits = {}  # tuple orbits, per number of automorphisms known
        for fixed, v, explored, autos in st.skips:
            known = orbits.setdefault(len(autos), {})
            assert stabiliser_orbit_hits(v, explored, fixed, autos, known)
            fixing = autos[(autos[:, list(fixed)] == fixed).all(axis=1)]
            beyond += not orbit_hits(v, explored, fixing)
    return beyond


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_skipped_siblings_lie_in_explored_orbits_on_payne_pairs(q, monkeypatch):
    monkeypatch.setattr(iso, "SearchStats", _SkipRecorder)
    stats = []
    assert are_isomorphic(*_payne_pair(q), stats=stats) is not None
    beyond = _assert_skips_lie_in_explored_orbits(stats)
    assert sum(len(st.skips) for st in stats) == sum(st.orbit_prunes for st in stats) > 0
    # at q = 5 stabiliser elements skip siblings no fixing automorphism does
    assert beyond > 0 or q < 5


def test_skipped_siblings_lie_in_explored_orbits_on_random_structures(monkeypatch):
    monkeypatch.setattr(iso, "SearchStats", _SkipRecorder)
    rng = random.Random(30)
    skips = 0
    for _ in range(50):
        s = random_structure(rng, max_points=8, max_lines=8)
        stats = []
        assert are_isomorphic(s, relabeled(s, rng)[0], stats=stats) is not None
        _assert_skips_lie_in_explored_orbits(stats)
        skips += sum(len(st.skips) for st in stats)
    assert skips > 0
