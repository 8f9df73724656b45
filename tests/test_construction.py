"""The expansion construction, its isomorphisms, detour tables, and the
quadrangle criterion."""

import random

import numpy as np
import pytest

from gainquad import (GF, AdditiveGroup, CyclicGroup, GainGraph, IncidenceStructure,
                      affine_gains, affine_plane, bijective_pair_count,
                      count_shortest_chains, detour_formula, detour_gains, distance,
                      expand, field_from_order, gq_criterion, gq_parameters,
                      identity_gains, is_chain, is_generalized_ngon, label_sweep,
                      lift_chain, switch, switching_isomorphism, verify_isomorphism,
                      walk_gain)
from gainquad.construction import DetourKernel
from helpers import tiny_base


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


def test_expansion_requires_finite_labels(plane2):
    from gainquad import Rationals
    g = identity_gains(plane2.structure, AdditiveGroup(Rationals()))
    with pytest.raises(ValueError):
        expand(g)


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
    adj = s.adjacency()
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
            kind, i = c.eid_index(e)
            if kind == "point":
                tag = c.point_tags[i]
                projected.append(s.line_eid(tag[1]))
            else:
                tag = c.line_tags[i]
                projected.append(s.point_eid(tag[1]))
        assert projected == chain
        # the final label is the walk gain applied to the initial one
        kind, i = c.eid_index(lifted[-1])
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
    for g in _kernel_cases():
        oracle = _oracle_pairs(g)
        kernel = DetourKernel(g.base, g.group)
        codes = kernel.codes(g)
        mask = kernel.bijective(codes)
        assert list(zip(map(tuple, kernel.pairs.tolist()), mask.tolist())) == oracle
        # a batch of rows gives the same answer row by row
        batch = kernel.bijective(np.stack([codes, codes[::-1]]))
        assert batch[0].tolist() == mask.tolist()
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


def test_kernel_rejects_non_linear_space():
    with pytest.raises(ValueError):
        DetourKernel(IncidenceStructure([0, 1, 2], [0, 1], [(0, 0), (1, 0), (1, 1), (2, 1)]),
                     CyclicGroup(2))


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
            if u == v or c.is_point_eid(u) != c.is_point_eid(v):
                continue
            if distance(c, u, v) == 2:
                assert count_shortest_chains(c, u, v) == 1
