"""The expansion construction, its isomorphisms, detour tables, and the
quadrangle criterion."""

import itertools
import random
import re
import tracemalloc

import numpy as np
import pytest

from gainquad import (GF, AdditiveGroup, CyclicGroup, GainGraph, IncidenceStructure,
                      affine_gains, affine_plane, bijective_pair_count, detour_gains,
                      expand, field_from_order, gq_criterion, gq_parameters,
                      identity_gains, is_generalized_ngon, run_search, switch,
                      switching_isomorphism, verify_isomorphism)
import gainquad.construction as construction
from gainquad.construction import DetourKernel
from helpers import (Rationals, count_shortest_chains, detour_formula, distance,
                     eid_index, is_chain, label_sweep, lift_chain, reference_expansion,
                     tiny_base, walk_gain)


def test_tiny_expansion_cardinalities():
    group = CyclicGroup(2)
    g = identity_gains(tiny_base(), group)
    c = expand(g)
    assert c.n_points == 2 + 1 * 2  # |X| + |lines| * |labels|
    assert c.n_lines == 2 * 2       # |points| * |labels|
    assert len(c.x_points()) == 2


def test_expansion_cardinalities(expansion2, expansion3):
    assert (expansion2.n_points, expansion2.n_lines) == (16, 8)
    assert len(expansion2.incidence) == 4 * 2 + 12 * 2
    assert (expansion3.n_points, expansion3.n_lines) == (45, 27)
    assert len(expansion3.incidence) == 9 * 3 + 36 * 3


def test_expansion_incidence_rules(plane3, expansion3):
    c = expansion3
    base = plane3.structure
    g = c.gains
    k = len(c.lambdas)
    # x_p lies exactly on the lines z[p, *]
    for p in range(base.n_points):
        assert set(c.lines_of_point[p]) == {c.z_line(p, t) for t in range(k)}
    # y[b, lam] lies on z[p, gain(bp).lam] for each p on b
    for (b, p), phi in g.gains.items():
        for t, lam in enumerate(c.lambdas):
            mu = c.group.act(phi, lam)
            t_mu = c.lambdas.index(mu)
            assert (c.y_point(b, t), c.z_line(p, t_mu)) in c.incidence_set


def _assert_matches_reference(gains):
    c = expand(gains)
    assert (c.point_labels, c.line_labels, c.incidence) == reference_expansion(gains)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_expansion_matches_per_edge_reference_on_shipped_gains(q):
    _assert_matches_reference(affine_gains(affine_plane(field_from_order(q))))


@pytest.mark.parametrize("q, group", [(3, CyclicGroup(3)), (4, CyclicGroup(4)),
                                      (4, AdditiveGroup(GF(2, 2)))])
def test_expansion_matches_per_edge_reference_on_random_gains(q, group):
    rng = random.Random(q)
    base = affine_plane(field_from_order(q)).structure
    elements = group.elements()
    for _ in range(3):
        gains = {(b, p): rng.choice(elements) for p, b in base.incidence}
        _assert_matches_reference(GainGraph(base, group, gains))


def test_expansion_acts_once_per_distinct_gain_and_label(plane2, monkeypatch):
    group = CyclicGroup(997)
    gains = identity_gains(plane2.structure, group)
    calls = []
    act = CyclicGroup.act
    monkeypatch.setattr(CyclicGroup, "act",
                        lambda self, g, lam: calls.append(g) or act(self, g, lam))
    c = expand(gains)
    assert len(calls) <= len(set(gains.gains.values())) * group.order == 997
    monkeypatch.undo()
    assert (c.point_labels, c.line_labels, c.incidence) == reference_expansion(gains)


def test_expansion_requires_finite_labels(plane2):
    with pytest.raises(ValueError):
        identity_gains(plane2.structure, AdditiveGroup(Rationals()))


def test_switching_isomorphism_identity(plane2):
    g = affine_gains(plane2)
    f = {e: g.group.identity() for e in range(plane2.structure.n_elements)}
    iso = switching_isomorphism(g, f)
    assert iso.point_map == tuple(range(16))
    assert iso.line_map == tuple(range(8))


def test_switching_isomorphism_random(plane2, plane3):
    rng = random.Random(9)
    for plane in (plane2, plane3):
        g = affine_gains(plane)
        els = g.group.elements()
        for _ in range(10):
            f = {e: rng.choice(els)
                 for e in range(plane.structure.n_elements)}
            iso = switching_isomorphism(g, f)  # verified internally
            assert verify_isomorphism(expand(g), expand(switch(g, f)), iso)


def test_switching_isomorphism_composes_to_identity(plane2):
    g = affine_gains(plane2)
    group = g.group
    rng = random.Random(10)
    els = group.elements()
    f = {e: rng.choice(els) for e in range(plane2.structure.n_elements)}
    f_inv = {e: group.inverse(v) for e, v in f.items()}
    iso = switching_isomorphism(g, f)
    back = switching_isomorphism(switch(g, f), f_inv)
    composed_points = tuple(back.point_map[i] for i in iso.point_map)
    composed_lines = tuple(back.line_map[j] for j in iso.line_map)
    assert composed_points == tuple(range(16))
    assert composed_lines == tuple(range(8))


def test_lift_single_edge(plane2):
    g = affine_gains(plane2)
    s = plane2.structure
    c = expand(g)
    p, b = s.incidence[3]
    lam = g.group.identity()
    lifted = lift_chain(g, [s.line_eid(b), p], lam)
    mu = g.group.act(g.gain(b, p), lam)
    assert lifted[0] == c.point_eid(c.y_point(b, c.lambdas.index(lam)))
    assert lifted[1] == c.line_eid(c.z_line(p, c.lambdas.index(mu)))


def _random_chain(rng, s, length):
    adj = s.adjacency
    chain = [rng.randrange(s.n_elements)]
    for _ in range(length):
        chain.append(rng.choice(adj[chain[-1]]))
    return chain


def test_lifted_chains_are_chains(plane3):
    g = affine_gains(plane3)
    s = plane3.structure
    c = expand(g)
    rng = random.Random(11)
    for _ in range(25):
        chain = _random_chain(rng, s, rng.randrange(1, 7))
        lam0 = rng.choice(c.lambdas)
        lifted = lift_chain(g, chain, lam0)
        assert is_chain(c, lifted)
        # projecting back (dropping labels) recovers the base chain
        projected = []
        for e in lifted:
            kind, i = eid_index(c, e)
            if kind == "point":
                tag = c.point_tags[i]
                projected.append(s.line_eid(tag[1]))
            else:
                tag = c.line_tags[i]
                projected.append(s.point_eid(tag[1]))
        assert projected == chain
        # the final label is the walk gain applied to the initial one
        kind, i = eid_index(c, lifted[-1])
        tag = c.point_tags[i] if kind == "point" else c.line_tags[i]
        assert c.lambdas[tag[2]] == g.group.act(walk_gain(g, chain), lam0)


def test_detour_table_identity_gains(plane2):
    g = identity_gains(plane2.structure, CyclicGroup(2))
    s = plane2.structure
    p, b = next((p, b) for p in range(s.n_points) for b in range(s.n_lines)
                if (p, b) not in s.incidence_set)
    table = detour_gains(g, b, p)
    assert set(table.values()) == {0}  # constant, hence never bijective


def test_detour_table_rejects_incident_pair(plane2):
    g = affine_gains(plane2)
    p, b = plane2.structure.incidence[0]
    with pytest.raises(ValueError):
        detour_gains(g, b, p)


def test_detour_tables_bijective_on_shipped_gains(plane2):
    g = affine_gains(plane2)
    s = plane2.structure
    for b in range(s.n_lines):
        on_line = set(s.points_of_line[b])
        for p in range(s.n_points):
            if p in on_line:
                continue
            table = detour_gains(g, b, p)
            assert sorted(table.values()) == sorted(g.group.elements())


def test_detour_matches_walk_gain(plane3):
    g = affine_gains(plane3)
    s = plane3.structure
    for b in range(s.n_lines):
        on_line = set(s.points_of_line[b])
        for p in range(s.n_points):
            if p in on_line:
                continue
            table = detour_gains(g, b, p)
            for q, value in table.items():
                b2 = s.common_line(p, q)
                walk = [s.line_eid(b), q, s.line_eid(b2), p]
                assert walk_gain(g, walk) == value


def test_detour_matches_closed_formula(plane3):
    F = plane3.field
    g = affine_gains(plane3)
    s = plane3.structure
    for b in range(s.n_lines):
        key = plane3.line_keys[b]
        on_line = set(s.points_of_line[b])
        for p in range(s.n_points):
            if p in on_line:
                continue
            table = detour_gains(g, b, p)
            for q, value in table.items():
                formula = detour_formula(F, key, plane3.point_coords[p],
                                         plane3.point_coords[q])
                assert formula == value


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_criterion_passes_for_shipped_gains(q):
    from gainquad import field_from_order
    plane = affine_plane(field_from_order(q))
    assert gq_criterion(affine_gains(plane)).ok


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13])
def test_criterion_passes_for_larger_fields(q):
    from gainquad import field_from_order
    plane = affine_plane(field_from_order(q))
    assert gq_criterion(affine_gains(plane)).ok


@pytest.mark.extended
def test_criterion_passes_at_the_ceiling():
    from gainquad import field_from_order
    plane = affine_plane(field_from_order(16))
    assert gq_criterion(affine_gains(plane)).ok


def test_criterion_fails_identity_gains(plane2):
    g = identity_gains(plane2.structure, CyclicGroup(2))
    verdict = gq_criterion(g)
    assert not verdict.ok
    b, p = verdict.witness
    assert (p, b) not in plane2.structure.incidence_set


def test_kernel_pair_tables_are_int32(monkeypatch):
    # the point-pair edge table, also built in blocks of one row each, and
    # the pair count; on the near-pencil only the lines of two points have
    # |Z2| points
    plane = affine_plane(field_from_order(4))
    near_pencil = IncidenceStructure(range(5), range(5), [(p, 0) for p in range(4)]
                                     + [(p, 1 + p) for p in range(4)]
                                     + [(4, b) for b in range(1, 5)])
    cases = [(plane.structure, AdditiveGroup(plane.field)), (near_pencil, CyclicGroup(2))]
    for block_entries in (construction.BLOCK_ENTRIES, 1):
        monkeypatch.setattr(construction, "BLOCK_ENTRIES", block_entries)
        for base, group in cases:
            kernel = DetourKernel(base, group)
            pairs = np.argwhere(base.edge_ids < 0)
            assert kernel.b2p.dtype == np.int32
            assert kernel.n_pairs == len(pairs)
    gains = dict(affine_gains(plane).gains)
    gains[(0, 0)] = plane.field.one
    verdict = gq_criterion(GainGraph(plane.structure, AdditiveGroup(plane.field), gains))
    assert not verdict and all(type(x) is int for x in verdict.witness)


def test_criterion_decodes_the_first_failing_pair(monkeypatch):
    # pairs are numbered, not stored: the witness is the first failing row
    # of np.argwhere(edge_ids < 0), whatever the blocks.  The pencil's
    # line of four points, whose pairs always fail over Z2, comes last,
    # after its lines of two points.
    rng = random.Random(26)
    good = affine_gains(affine_plane(field_from_order(5)))
    graphs = []
    for edge in rng.sample(sorted(good.gains), 6):
        bent = dict(good.gains)
        bent[edge] = good.group.compose(bent[edge], good.group.elements()[1])
        graphs.append(GainGraph(good.base, good.group, bent))
    pencil = IncidenceStructure(range(5), range(5), [(p, p) for p in range(4)]
                                + [(4, b) for b in range(4)] + [(p, 4) for p in range(4)])
    graphs += [GainGraph(pencil, CyclicGroup(2), {(b, p): rng.choice((0, 1))
                                                  for p, b in pencil.incidence})
               for _ in range(8)]
    expect = []
    for g in graphs:
        column = [ok for _, ok in _oracle_pairs(g)]
        expect.append(tuple(np.argwhere(g.base.edge_ids < 0)[column.index(False)].tolist()))
    assert len(set(expect)) >= 8
    for block_entries in (construction.BLOCK_ENTRIES, 4, 100):
        monkeypatch.setattr(construction, "BLOCK_ENTRIES", block_entries)
        for g, witness in zip(graphs, expect):
            verdict = gq_criterion(g)
            assert not verdict.ok and verdict.witness == witness
            assert all(type(x) is int for x in verdict.witness)


def test_criterion_collects_witnesses(plane2):
    g = identity_gains(plane2.structure, CyclicGroup(2))
    assert bijective_pair_count(g) == (0, 6 * 4 - 12)  # every non-incident pair fails


def test_criterion_rejects_non_linear_space():
    g = identity_gains(tiny_base(), CyclicGroup(2))
    with pytest.raises(ValueError):
        gq_criterion(g)


def test_criterion_matches_generic_verifier(plane2, plane3):
    rng = random.Random(12)
    for plane in (plane2, plane3):
        g0 = affine_gains(plane)
        els = g0.group.elements()
        for _ in range(15):
            gains = {k: rng.choice(els) for k in g0.gains}
            g = GainGraph(plane.structure, g0.group, gains)
            assert bool(gq_criterion(g)) == bool(is_generalized_ngon(expand(g), 4))


def test_regular_shortcut_agrees_with_sweep(plane2, plane3):
    rng = random.Random(13)
    for plane, group in ((plane2, CyclicGroup(2)), (plane3, CyclicGroup(3)),
                         (plane2, AdditiveGroup(GF(2)))):
        els = group.elements()
        base = plane.structure
        for _ in range(10):
            gains = {(b, p): rng.choice(els) for p, b in base.incidence}
            g = GainGraph(base, group, gains)
            failing = list(label_sweep(g))
            assert gq_criterion(g).ok == (not failing)
            # and pair by pair, not only in aggregate
            total = base.n_points * base.n_lines - len(base.incidence)
            assert bijective_pair_count(g) == (total - len(failing), total)


def _oracle_pairs(g):
    """((b, p), bijective) for every non-incident pair, line-major, from
    detour_gains and a set check."""
    base, group = g.base, g.group
    out = []
    for b in range(base.n_lines):
        for p in range(base.n_points):
            if (p, b) not in base.incidence_set:
                values = list(detour_gains(g, b, p).values())
                out.append(((b, p), len(set(values)) == len(values) == group.order))
    return out


def _near_pencil():
    return IncidenceStructure(
        ["1", "2", "3", "4"], ["a", "b", "c", "d"],
        [(1, 0), (2, 0), (3, 0), (0, 1), (1, 1), (0, 2), (2, 2), (0, 3), (3, 3)])


def _shipped_over(plane, group):
    """The shipped gains of a plane as a table over group, when group is
    the field's additive group or Z_p over a prime field; else None."""
    shipped = affine_gains(plane)
    if group == shipped.group:
        return shipped.gains
    if isinstance(group, CyclicGroup) and plane.field.n == 1 and group.n == plane.field.p:
        return {e: x[0] for e, x in shipped.gains.items()}
    return None


def _kernel_cases():
    """Gain graphs over every base/group combination: uniform random gains,
    plus shipped, switched and one-edge-perturbed gains where the shipped
    gains exist over the group."""
    rng = random.Random(2718)
    groups = [CyclicGroup(n) for n in (2, 3, 4, 5)] + [
        AdditiveGroup(GF(p, n)) for p, n in ((2, 1), (2, 2), (3, 1), (3, 2))]
    planes = [affine_plane(field_from_order(q)) for q in (2, 3, 4)]
    for base, plane in [(pl.structure, pl) for pl in planes] + [(_near_pencil(), None)]:
        for group in groups:
            els = group.elements()
            for _ in range(4):
                yield GainGraph(base, group,
                                {(b, p): rng.choice(els) for p, b in base.incidence})
            gains = _shipped_over(plane, group) if plane is not None else None
            if gains is not None:
                good = GainGraph(base, group, gains)
                bent = dict(gains)
                edge = rng.choice(sorted(bent))
                bent[edge] = group.compose(bent[edge], els[1])
                yield good
                yield switch(good, {e: rng.choice(els) for e in range(base.n_elements)})
                yield GainGraph(base, group, bent)


def test_kernel_matches_scalar_oracle():
    passing = failing = 0
    for _, cases in itertools.groupby(_kernel_cases(),
                                      key=lambda g: (id(g.base), id(g.group))):
        cases = list(cases)
        kernel = DetourKernel(cases[0].base, cases[0].group)
        pairs = list(map(tuple, np.argwhere(kernel.eid < 0).tolist()))
        # a batch has one column per assignment, and every column answers
        # as its own assignment does alone
        batch = kernel.bijective(np.stack([g.codes for g in cases], axis=-1))
        assert batch.shape == (len(pairs), len(cases))
        assert len({tuple(g.codes.tolist()) for g in cases}) == len(cases)
        for g, column in zip(cases, batch.T.tolist()):
            oracle = _oracle_pairs(g)
            assert list(zip(pairs, column)) == oracle
            assert kernel.bijective(g.codes).tolist() == column
            bad = [bp for bp, ok in oracle if not ok]
            verdict = gq_criterion(g)
            assert verdict.ok == (not bad)
            if bad:
                assert verdict.witness == bad[0]
                failing += 1
            else:
                passing += 1
            assert bijective_pair_count(g) == (len(oracle) - len(bad), len(oracle))
    assert passing >= 6 and failing >= 100


def _shipped_family(q, rng):
    """Shipped, switched and one-edge-perturbed shipped gains over GF(q)."""
    good = affine_gains(affine_plane(field_from_order(q)))
    els = good.group.elements()
    bent = dict(good.gains)
    edge = rng.choice(sorted(bent))
    bent[edge] = good.group.compose(bent[edge], els[1])
    return [good,
            switch(good, {e: rng.choice(els) for e in range(good.base.n_elements)}),
            GainGraph(good.base, good.group, bent)]


@pytest.mark.parametrize("q", [7, 8, 9, 11])
def test_kernel_matches_scalar_oracle_at_large_k(q):
    # lines of q points, against detour_gains pair by pair, one graph at a
    # time and as the columns of one batch
    cases = _shipped_family(q, random.Random(q))
    kernel = DetourKernel(cases[0].base, cases[0].group)
    pairs = list(map(tuple, np.argwhere(kernel.eid < 0).tolist()))
    batch = kernel.bijective(np.stack([g.codes for g in cases], axis=-1))
    for g, column, passes in zip(cases, batch.T.tolist(), (True, True, False)):
        oracle = _oracle_pairs(g)
        assert list(zip(pairs, column)) == oracle
        assert kernel.bijective(g.codes).tolist() == column
        bad = [bp for bp, ok in oracle if not ok]
        assert bool(bad) != passes
        assert gq_criterion(g) == ((True, None) if passes else (False, bad[0]))
        assert bijective_pair_count(g) == (len(oracle) - len(bad), len(oracle))


def test_line_blocks_agree_with_one_block(monkeypatch):
    # AG(2,5) has 30 lines of 100 entries: blocks of 1, 2 and 7 lines, the
    # last one partial; the near-pencil over Z2 has three lines of 4
    # entries and one short line
    rng = random.Random(5)
    pencil = _near_pencil()
    cases = [(_shipped_family(5, rng), (100, 250, 700)),
             ([GainGraph(pencil, CyclicGroup(2), {(b, p): rng.choice((0, 1))
                                                 for p, b in pencil.incidence})
               for _ in range(4)], (4, 8))]
    for graphs, sizes in cases:
        whole = DetourKernel(graphs[0].base, graphs[0].group)
        batch = np.stack([g.codes for g in graphs], axis=-1)
        expect = whole.bijective(batch)
        assert expect.any() and not expect.all()
        position = np.arange(len(whole.edges)) % 17
        for entries in sizes:
            with monkeypatch.context() as m:
                m.setattr(construction, "BLOCK_ENTRIES", entries)
                split = DetourKernel(graphs[0].base, graphs[0].group)
            assert split.block_lines < len(split.full) <= whole.block_lines
            for _ in range(2):  # the second time, the last block is kept
                assert np.array_equal(split.bijective(batch), expect)
                for g, column in zip(graphs, expect.T):
                    assert np.array_equal(split.bijective(g.codes), column)
            assert np.array_equal(split.depth(position), whole.depth(position))


def test_criterion_peak_memory_at_q16():
    # 35.5 MB with a (k, pairs) table per edge of a detour; about 7 MB
    # in line blocks
    g = affine_gains(affine_plane(field_from_order(16)))
    tracemalloc.start()
    try:
        assert gq_criterion(g).ok
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * 2 ** 20


def test_kernel_tables_hold_one_block_of_indices_at_a_time():
    # The kernel reads the base's point-pair edge table and builds no
    # v^2 table of its own: on a base whose tables are built it holds
    # under 1 MB at q = 23, and one block's intp indices are at most 2 MB.
    plane = affine_plane(field_from_order(23))
    base = plane.structure
    base.edge_ids, base.edge_table()
    tracemalloc.start()
    try:
        kernel = DetourKernel(base, AdditiveGroup(plane.field))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert kernel.b2p is base.edge_table()
    assert held <= 2 ** 20
    assert peak - held <= 3 * 2 ** 20


@pytest.mark.extended
def test_criterion_passes_for_every_prime_power_to_49():
    # about 20 s in all; q = 49 has 120,050 edges and 5.9 million pairs
    for q in (17, 19, 23, 25, 27, 29, 31, 32, 37, 41, 43, 47, 49):
        assert gq_criterion(affine_gains(affine_plane(field_from_order(q)))).ok, q
    bent = _shipped_family(17, random.Random(17))[2]
    b, p, _ = next(label_sweep(bent))
    assert gq_criterion(bent) == (False, (b, p))


def test_kernel_rejects_non_linear_space():
    with pytest.raises(ValueError):
        DetourKernel(IncidenceStructure([0, 1, 2], [0, 1], [(0, 0), (1, 0), (1, 1), (2, 1)]),
                     CyclicGroup(2))


def test_criterion_entry_points_refuse_a_short_line(plane2):
    # AG(2,2) plus a line through one point: the kernel refuses it for
    # every entry point, with the linear-space witness
    s = plane2.structure
    base = IncidenceStructure(s.point_labels, [*s.line_labels, "short"],
                              [*s.incidence, (0, s.n_lines)])
    g = identity_gains(base, CyclicGroup(2))
    message = re.escape("base is not a linear space: ('short-line', 6)")
    for call in (lambda: DetourKernel(base, g.group), lambda: gq_criterion(g),
                 lambda: bijective_pair_count(g), lambda: run_search(base, g.group)):
        with pytest.raises(ValueError, match=message):
            call()


class _TrivialAction(CyclicGroup):
    """Z_n fixing every label: a finite action that is not regular."""

    regular = False

    def act(self, g, lam):
        return lam


def test_kernel_rejects_non_regular_action(plane2):
    g = identity_gains(plane2.structure, _TrivialAction(2))
    for call in (lambda: DetourKernel(g.base, g.group),
                 lambda: gq_criterion(g), lambda: bijective_pair_count(g)):
        with pytest.raises(ValueError, match="regular"):
            call()
    # the label sweep still decides it: no detour table permutes the labels
    assert len(list(label_sweep(g))) == 6 * 4 - 12


def test_parameters(expansions_small):
    assert gq_parameters(expansions_small[2]) == (3, 1)
    assert gq_parameters(expansions_small[3]) == (4, 2)
    assert gq_parameters(expansions_small[4]) == (5, 3)


def test_point_line_distances_in_expansion(expansion2):
    """x_p is at distance 1 from its own lines z[p,*] and 3 from every
    other line, always through a unique shortest chain."""
    c = expansion2
    for p in c.x_points():
        for ln in range(c.n_lines):
            d = distance(c, c.point_eid(p), c.line_eid(ln))
            expected = 1 if c.line_tags[ln][1] == p else 3
            assert d == expected
            assert count_shortest_chains(c, c.point_eid(p), c.line_eid(ln)) == 1


def test_distances_hold_even_without_the_quadrangle_property(plane2):
    # the distance statements for x-points and incident y/z pairs do not
    # depend on the gain function being good
    g = identity_gains(plane2.structure, CyclicGroup(2))
    c = expand(g)
    for p in c.x_points():
        for ln in range(c.n_lines):
            d = distance(c, c.point_eid(p), c.line_eid(ln))
            assert d == (1 if c.line_tags[ln][1] == p else 3)
            assert count_shortest_chains(c, c.point_eid(p), c.line_eid(ln)) == 1


def test_incident_y_z_distances(expansion3):
    """y[b,lam] vs z[p,mu] with b I p: distance 1 when mu = gain.lam,
    else 3, each through a unique shortest chain."""
    c = expansion3
    g = c.gains
    for (b, p), phi in g.gains.items():
        for t, lam in enumerate(c.lambdas):
            mu_match = g.group.act(phi, lam)
            y = c.point_eid(c.y_point(b, t))
            for t2, mu in enumerate(c.lambdas):
                z = c.line_eid(c.z_line(p, t2))
                d = distance(c, y, z)
                assert d == (1 if mu == mu_match else 3)
                assert count_shortest_chains(c, y, z) == 1


def test_same_type_pairs_have_unique_midpoints(expansion2):
    """Distinct same-type elements at distance 2 share a unique chain."""
    c = expansion2
    for u in range(c.n_elements):
        for v in range(c.n_elements):
            if u == v or (u < c.n_points) != (v < c.n_points):
                continue
            if distance(c, u, v) == 2:
                assert count_shortest_chains(c, u, v) == 1
