"""Acceptance suite: one test per criterion, printing a pass line each."""

import hashlib
import json
import math
import random
import time
from fractions import Fraction

import pytest

from gainquad import (GF, CyclicGroup, GainGraph, affine_gains, affine_plane,
                      are_isomorphic, chain_census, detour_gains, dual, expand,
                      field_from_order, gq_criterion, gq_parameters, identity_gains,
                      is_generalized_ngon, is_ovoid, payne_derivation, payne_isomorphism,
                      run_search, switch, switching_isomorphism, symplectic_quadrangle,
                      verify_isomorphism)
from helpers import (Rationals, brute_force_isomorphic, count_shortest_chains,
                     detour_formula, distance, grid_quadrangle, naive_shortest_count,
                     quadrilateral, random_structure, relabeled, tiny_base, walk_gain)

FAMILY_ORDERS = (2, 3, 4, 5, 7, 8, 9)


@pytest.fixture(scope="module")
def family():
    """Quadrangle expansions over GF(q) for every q in the family."""
    out = {}
    for q in FAMILY_ORDERS:
        plane = affine_plane(field_from_order(q))
        out[q] = expand(affine_gains(plane))
    return out


def test_criterion_1_family_reproduction(family):
    """Order-(q+1, q-1) quadrangles over GF(q), q in {2,3,4,5,7,8,9}."""
    start = time.time()
    for q in FAMILY_ORDERS:
        c = family[q]
        assert c.n_points == q * q * (q + 2)
        assert c.n_lines == q ** 3
        assert is_generalized_ngon(c, 4).ok
        assert gq_parameters(c) == (q + 1, q - 1)
    print(f"\nPASS 1: expansions over GF(q), q in {FAMILY_ORDERS}, are "
          f"quadrangles of order (q+1, q-1) [{time.time() - start:.1f}s]")


def _random_gain_graphs(plane, count, rng):
    """Perturbations of the shipped gains plus fully random assignments."""
    shipped = affine_gains(plane)
    els = shipped.group.elements()
    yield shipped
    for i in range(count - 1):
        if i % 2 == 0:
            gains = dict(shipped.gains)
            for key in rng.sample(sorted(gains), rng.randint(1, 3)):
                gains[key] = rng.choice(els)
        else:
            gains = {k: rng.choice(els) for k in shipped.gains}
        yield GainGraph(plane.structure, shipped.group, gains)


def test_criterion_2_criterion_iff_verifier(plane2, plane3):
    """Bijectivity criterion vs the generic 4-gon verifier, both ways."""
    rng = random.Random(2024)
    checked = 0
    for plane in (plane2, plane3):
        for g in _random_gain_graphs(plane, 120, rng):
            assert bool(gq_criterion(g)) == bool(is_generalized_ngon(expand(g), 4))
            checked += 1
    assert checked >= 200
    print(f"\nPASS 2: criterion agreed with the generic verifier on "
          f"{checked} perturbed gain functions")


def test_criterion_3_switching_isomorphisms(plane2, plane3):
    """Switching maps satisfy the isomorphism condition exactly."""
    rng = random.Random(31)
    per_base = 100
    for plane in (plane2, plane3):
        g = affine_gains(plane)
        els = g.group.elements()
        c1 = expand(g)
        for _ in range(per_base):
            f = {e: rng.choice(els) for e in range(plane.structure.n_elements)}
            iso = switching_isomorphism(g, f)
            assert verify_isomorphism(c1, expand(switch(g, f)), iso)
    print(f"\nPASS 3: {per_base} random switchings per base induced "
          f"verified isomorphisms")


def test_criterion_4_regular_shortcut(plane2, plane3):
    """Label sweep and group-bijectivity agree pair by pair."""
    rng = random.Random(41)
    instances = 0
    cases = [(plane2, None), (plane3, None),
             (plane2, CyclicGroup(2)), (plane3, CyclicGroup(3))]
    for plane, group in cases:
        shipped = affine_gains(plane)
        group = group or shipped.group
        els = group.elements()
        base = plane.structure
        graphs = [GainGraph(base, group,
                            {(b, p): rng.choice(els) for p, b in base.incidence})
                  for _ in range(30)]
        if group is shipped.group:
            graphs.append(shipped)
        for g in graphs:
            lambdas = tuple(group.lambdas())
            for b in range(base.n_lines):
                on_line = set(base.points_of_line[b])
                for p in range(base.n_points):
                    if p in on_line:
                        continue
                    values = list(detour_gains(g, b, p).values())
                    by_group = len(set(values)) == len(values) == group.order
                    by_sweep = all(
                        len({group.act(v, lam) for v in values})
                        == len(values) == len(lambdas)
                        for lam in lambdas)
                    assert by_group == by_sweep
            instances += 1
    print(f"\nPASS 4: regular-action shortcut matched the label sweep on "
          f"every pair of {instances} instances")


def test_criterion_5_distances_and_uniqueness(expansions_small):
    """Stated distances hold with unique shortest chains, q in {2,3,4}."""
    for q in (2, 3, 4):
        c = expansions_small[q]
        dist, count = chain_census(c, 4)
        k = len(c.lambdas)
        base = c.gains.base
        group = c.group
        # x_p against every line z[q', mu]
        for p in c.x_points():
            pe = c.point_eid(p)
            for ln in range(c.n_lines):
                le = c.line_eid(ln)
                expected = 1 if c.line_tags[ln][1] == p else 3
                assert dist[pe][le] == expected
                assert count[pe][le] == 1
        # y[b, lam] against z[p, mu] for incident b, p
        for (b, p), phi in c.gains.gains.items():
            for t, lam in enumerate(c.lambdas):
                ye = c.point_eid(c.y_point(b, t))
                mu_match = group.act(phi, lam)
                for t2, mu in enumerate(c.lambdas):
                    ze = c.line_eid(c.z_line(p, t2))
                    expected = 1 if mu == mu_match else 3
                    assert dist[ye][ze] == expected
                    assert count[ye][ze] == 1
        # distinct same-type pairs at distance two
        for u in range(c.n_elements):
            for v in range(c.n_elements):
                if u != v and dist[u][v] == 2:
                    assert count[u][v] == 1
    print("\nPASS 5: distance and uniqueness statements exhaustive for "
          "q in {2,3,4}")


def _rational_walk_value(line_key, p, q):
    """Walk gain of the detour over the rationals, straight from the edge
    gain definitions (independent of the closed formula)."""
    def edge_gain(key, pt):
        x, y = pt
        if key[0] == "v":
            return -key[1] * y
        return x * key[2]

    px, py = p
    qx, qy = q
    if px == qx:
        through = ("v", px)
    else:
        m = (py - qy) / (px - qx)
        through = ("s", m, qy - m * qx)
    return edge_gain(through, p) - edge_gain(through, q) + edge_gain(line_key, q)


def test_criterion_6_closed_form():
    """Closed detour formula equals walk gains, exhaustively and over Q."""
    for q in (2, 3, 4, 5):
        plane = affine_plane(field_from_order(q))
        F = plane.field
        g = affine_gains(plane)
        s = plane.structure
        for b in range(s.n_lines):
            key = plane.line_keys[b]
            on_line = set(s.points_of_line[b])
            for p in range(s.n_points):
                if p in on_line:
                    continue
                for qpt in s.points_of_line[b]:
                    b2 = s.common_line(p, qpt)
                    walk = [s.line_eid(b), qpt, s.line_eid(b2), p]
                    assert walk_gain(g, walk) == detour_formula(
                        F, key, plane.point_coords[p], plane.point_coords[qpt])

    Q = Rationals()
    rng = random.Random(61)
    done = 0
    while done < 1000:
        def rand():
            return Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        if rng.random() < 0.5:
            key = ("v", rand())
            p = (rand(), rand())
            if p[0] == key[1]:
                continue
            q_on = (key[1], rand())
        else:
            key = ("s", rand(), rand())
            p = (rand(), rand())
            if p[1] == key[1] * p[0] + key[2]:
                continue
            x1 = rand()
            q_on = (x1, key[1] * x1 + key[2])
            if q_on == p:
                continue
        if q_on == p:
            continue
        assert detour_formula(Q, key, p, q_on) == _rational_walk_value(key, p, q_on)
        done += 1
    print("\nPASS 6: closed formula equals walk gains exhaustively over "
          "GF(2..5) and on 1000 rational instances")


def _payne_cross_check(q, family, budget_seconds):
    """The canonical search's match: the oracle of payne-check's closed
    form."""
    plane = affine_plane(field_from_order(q))
    left = family[q] if q in family else expand(affine_gains(plane))
    right = dual(payne_derivation(symplectic_quadrangle(q)))
    deadline = time.monotonic() + budget_seconds
    iso = are_isomorphic(left, right, deadline=deadline)
    assert iso is not None
    assert verify_isomorphism(left, right, iso)
    return iso


def test_criterion_7_dual_derivation(family):
    """The expansion is the dual of the derived symplectic quadrangle, by
    the search and by the closed form, which verifies itself."""
    start = time.time()
    for q in (2, 3, 4, 5):
        _payne_cross_check(q, family, budget_seconds=600)
        w = symplectic_quadrangle(q)
        payne_isomorphism(affine_plane(field_from_order(q)), w, family[q],
                          dual(payne_derivation(w)))
    print(f"\nPASS 7: expansion matched dual derivation for q in "
          f"{{2,3,4,5}} with verified witnesses [{time.time() - start:.1f}s]")


# sha256 of json.dumps([point_map, line_map]) of the cross-check's witness
# at CERTIFICATE_VERSION 2: a change to refinement, the invariant or the
# search order that keeps certificates can still move the witness.
WITNESSES = {
    7: "b54eba8404205a43527c91c621a148fbc6f97b5e401fa16f4fa2e2b4880d4747",
    8: "f2946531730ddf02305a968ad84bf459159050fe283cc2713e99ed10c4895039",
    9: "762abba6494f1580bcdb1a51b82d10fcc65407370884bf1857fd1aafc82b9e46",
    11: "828506083dc1e2ce5d33ac65277048be3b86b331e280c9eceb12513144eafc96",
    16: "ae923f5a9f101c2cf33f150b462e38a085679051eb7568b2dd9f07a6d3193800",
}


@pytest.mark.parametrize("q", [7, 8, 9, 11, 16])
def test_criterion_7_pinned_witnesses(q, family):
    """The same cross-check at q in {7,8,9,11,16} within 60 s each; a
    TimeoutError fails it.  The witness is pinned."""
    start = time.time()
    iso = _payne_cross_check(q, family, budget_seconds=60)
    text = json.dumps([iso.point_map, iso.line_map])
    assert hashlib.sha256(text.encode()).hexdigest() == WITNESSES[q]
    print(f"\nPASS 7x: dual-derivation cross-check at q={q} "
          f"[{time.time() - start:.1f}s]")


def test_criterion_8_ovoids(family):
    """The x-points form an ovoid in every quadrangle of the family."""
    for q in FAMILY_ORDERS:
        c = family[q]
        assert is_ovoid(c, c.x_points())
    print(f"\nPASS 8: x-points are ovoids for q in {FAMILY_ORDERS}")


def test_criterion_9_search_soundness(plane2):
    """Unreduced and gauge-fixed scans agree class by class."""
    gauge = run_search(plane2.structure, CyclicGroup(2))
    full = run_search(plane2.structure, CyclicGroup(2), unreduced=True)
    assert gauge.scanned == 8
    assert full.scanned == 4096
    assert gauge.certificates == full.certificates
    assert gauge.gq_count >= 1
    print(f"\nPASS 9: 2^12 unreduced scan and 2^3 gauge scan found the same "
          f"{len(gauge.certificates)} class(es); survivors "
          f"{full.gq_count}/{gauge.gq_count}")


def test_criterion_10_oracle_equivalence(plane2, plane3, expansion2):
    """Breadth-first counting vs enumeration; canonical matching vs brute
    force."""
    w2 = symplectic_quadrangle(2)
    subjects = [
        quadrilateral(), tiny_base(), grid_quadrangle(3),
        plane2.structure, plane3.structure,
        affine_plane(GF(2, 2)).structure,
        expansion2, w2.structure, payne_derivation(w2),
        expand(identity_gains(plane2.structure, CyclicGroup(2))),
    ]
    for s in subjects:
        assert s.n_elements <= 50
        for u in range(s.n_elements):
            for v in range(s.n_elements):
                k, naive = naive_shortest_count(s, u, v)
                if k is None:
                    assert distance(s, u, v) == math.inf
                else:
                    assert distance(s, u, v) == k
                    assert count_shortest_chains(s, u, v) == naive

    rng = random.Random(101)
    pairs = 0
    while pairs < 40:
        s1 = random_structure(rng, max_points=6, max_lines=5)
        if s1.n_points > 8:
            continue
        s2 = relabeled(s1, rng)[0] if rng.random() < 0.5 else \
            random_structure(rng, max_points=6, max_lines=5)
        expected = brute_force_isomorphic(s1, s2)
        assert (are_isomorphic(s1, s2) is not None) == expected
        pairs += 1
    print("\nPASS 10: counters matched the enumerator on every catalog "
          "structure; matcher agreed with brute force on "
          f"{pairs} small pairs")
