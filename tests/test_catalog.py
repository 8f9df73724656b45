"""Affine planes, their shipped gains and closed forms, the symplectic
quadrangle, the Payne derivation, and duality."""

import hashlib
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from gainquad import (GF, Isomorphism, affine_gains, affine_plane, are_isomorphic, dual,
                      expand, field_from_order, gq_parameters, is_generalized_ngon,
                      is_linear_space, payne_derivation, quadrangle_order,
                      steiner_parameters, structure_to_json, symplectic_quadrangle,
                      verify_isomorphism)
import gainquad.catalog as catalog
from gainquad.catalog import _form
from helpers import (Rationals, detour_formula, joined_symplectic_labels, naive_payne,
                     naive_symplectic, walk_gain)


def test_plane_counts():
    s2 = affine_plane(GF(2)).structure
    assert (s2.n_points, s2.n_lines) == (4, 6)
    s3 = affine_plane(GF(3)).structure
    assert (s3.n_points, s3.n_lines) == (9, 12)
    assert all(len(x) == 4 for x in s3.lines_of_point)


def test_planes_are_linear_spaces():
    for q in (2, 3, 4, 5):
        s = affine_plane(field_from_order(q)).structure
        assert is_linear_space(s).ok
        assert steiner_parameters(s) == (q * q, q)


def test_plane_rejects_rationals():
    with pytest.raises(ValueError):
        affine_plane(Rationals())


def test_shipped_gain_values_gf2():
    F = GF(2)
    plane = affine_plane(F)
    g = affine_gains(plane)
    one = F.one
    # vertical line x = 1 at the point (1, 1) carries -1*1 = 1
    b = plane.line_keys.index(("v", one))
    p = plane.point_coords.index((one, one))
    assert g.gain(b, p) == one


def test_shipped_gain_values_zero_intercept(plane3):
    F = plane3.field
    g = affine_gains(plane3)
    for m in F.elements():
        li = plane3.line_keys.index(("s", m, F.zero))
        for p in plane3.structure.points_of_line[li]:
            assert g.gain(li, p) == F.zero


def test_shipped_gain_values_gf3(plane3):
    F = plane3.field
    g = affine_gains(plane3)
    one, two = F.element(1), F.element(2)
    b = plane3.line_keys.index(("s", one, two))
    p = plane3.point_coords.index((two, F.add(F.mul(one, two), two)))  # (2, 1)
    assert plane3.point_coords[p] == (two, one)
    assert g.gain(b, p) == F.mul(two, two)  # 2*2 = 1 mod 3
    assert g.gain(b, p) == one


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_formula_matches_walks_exhaustively(q):
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


def test_formula_over_rationals_linear_in_q():
    Q = Rationals()
    p = (Q.element(0), Q.element(1))
    line = ("s", Q.element(0), Q.element(0))  # y = 0
    for t in range(-5, 6):
        qpt = (Q.element(t), Q.element(0))
        assert detour_formula(Q, line, p, qpt) == Q.element(-t)


def test_formula_preconditions():
    Q = Rationals()
    with pytest.raises(ValueError):
        detour_formula(Q, ("v", Q.zero), (Q.zero, Q.one), (Q.one, Q.one))
    with pytest.raises(ValueError):
        detour_formula(Q, ("v", Q.zero), (Q.zero, Q.one), (Q.zero, Q.zero))


def test_vertical_preimage_hits_every_target():
    """y1 = (x-b)^-1 (z + y b) sends the vertical-line formula to z."""
    Q = Rationals()
    rng = random.Random(14)
    for _ in range(50):
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if x == b:
            continue
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        z = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        y1 = (z + y * b) / (x - b)
        assert detour_formula(Q, ("v", b), (x, y), (b, y1)) == z


def test_slanted_preimage_hits_every_target():
    """x1 = (mx+b-y)^-1 (z - x b) sends the slanted-line formula to z."""
    Q = Rationals()
    rng = random.Random(15)
    for _ in range(50):
        m = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        y = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if y == m * x + b:
            continue
        z = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        x1 = (z - x * b) / (m * x + b - y)
        assert detour_formula(Q, ("s", m, b), (x, y), (x1, m * x1 + b)) == z


def test_injectivity_identity():
    """y1 (x-b) != y2 (x-b) whenever x != b and y1 != y2."""
    rng = random.Random(16)
    for _ in range(200):
        x = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        b = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        y1 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        y2 = Fraction(rng.randint(-20, 20), rng.randint(1, 9))
        if x == b or y1 == y2:
            continue
        assert y1 * (x - b) != y2 * (x - b)
    for q in (2, 3, 4, 5):
        F = field_from_order(q)
        for x in F.elements():
            for b in F.elements():
                if x == b:
                    continue
                for y1 in F.elements():
                    for y2 in F.elements():
                        if y1 != y2:
                            assert F.mul(y1, F.sub(x, b)) != F.mul(y2, F.sub(x, b))


@pytest.mark.parametrize("q,points", [(2, 15), (3, 40)])
def test_symplectic_quadrangle(q, points):
    w = symplectic_quadrangle(q)
    s = w.structure
    assert s.n_points == points == (q + 1) * (q * q + 1)
    assert s.n_lines == points
    assert is_generalized_ngon(s, 4).ok
    assert quadrangle_order(s) == (q, q)
    # every point is collinear with q(q+1) others and itself
    form = _form(w.field.code_tables, w.codes[:, None, :], w.codes[None, :, :])
    assert ((form == 0).sum(axis=1) == 1 + q * (q + 1)).all()


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_symplectic_matches_polynomial_oracle(q):
    w = symplectic_quadrangle(q)
    vectors, line_sets = naive_symplectic(w.field)
    els = w.field.elements()
    assert [tuple(els[c] for c in row) for row in w.codes.tolist()] == vectors
    s = w.structure
    r = w.field.render
    assert s.point_labels == tuple(f"<{','.join(r(c) for c in v)}>" for v in vectors)
    assert s.line_labels == tuple("{" + ",".join(map(str, sorted(ls))) + "}"
                                  for ls in line_sets)
    assert s.incidence == tuple(sorted((p, j) for j, ls in enumerate(line_sets)
                                       for p in ls))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 16])
def test_point_index_ranks_every_scaling(q):
    w = symplectic_quadrangle(q)
    n = len(w.codes)
    assert w.field.elements()[0] == w.field.zero  # code 0 is zero
    assert (w.point_index(w.codes) == np.arange(n)).all()
    scale = np.random.default_rng(q).integers(1, q, size=n)
    scaled = w.field.code_tables[1][scale[:, None], w.codes]
    assert q == 2 or (scaled != w.codes).any()
    assert (w.point_index(scaled) == np.arange(n)).all()
    with pytest.raises(ValueError, match="zero vector"):
        w.point_index(np.zeros((1, 4), dtype=np.int64))


def test_symplectic_rejects_oversized():
    assert catalog.MAX_SYMPLECTIC_ORDER == 32
    with pytest.raises(ValueError, match="exceeds the 32 ceiling"):
        symplectic_quadrangle(37)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_payne_derivation(q):
    w = symplectic_quadrangle(q)
    d = payne_derivation(w)
    assert (d.n_points, d.n_lines) == (q ** 3, q * q * (q + 2))
    assert is_generalized_ngon(d, 4).ok
    assert quadrangle_order(d) == (q - 1, q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 11, 13, 16])
def test_symplectic_labels_match_the_joined_rows(q):
    w = symplectic_quadrangle(q)
    points, lines = joined_symplectic_labels(w)
    assert w.structure.point_labels == tuple(points)
    assert w.structure.line_labels == tuple(lines)


# sha256 of json.dumps(structure_to_json(payne_derivation(w, x))), the
# incidence array dumped as its tolist(), for x in (0, n//2, n-1): the
# line order, and with it the payne-check witness files, stay fixed.
PAYNE_DIGESTS = {
    2: ('3b915ad3ba46d50cd426b6484393078293f0f4cf9239cf121f880d8342290b52',
         'efb2e0a41c6107fdf4837a45532e526171e45d71ba2a2bfdce2a373bcbbaeb64',
         'edbf9ee729f34a0eae8121ccb8791e10f86e1d58c390b99a1eca949f9878bd07'),
    3: ('8f8fb6daf6624b9c1d7a163bf756cd41a49b4d25856e7b5157bfd6ee19f3326e',
         '06efca40a28764cb94dc31d8847121d6509b36e1a2059dabfc710190850ca8cf',
         'adc5fb907d91d89d6945ee3029aac4a24bb91c6f0e81264b459a918061735f24'),
    4: ('fa72651b671683ecec246f5cfb11b90e8363ff64e5b0094407d05359b5375f61',
         'f19a3494d0535d7aef52f029c3ffd16fd82a50b8b82024da92e1fbc50464135a',
         'b9a632bb06deb6e8d7209082fda4ffbe5373db7821590c619ba04735e68bc3a2'),
    5: ('b673b6b4bb928a110638654c55c6b6e050ecdd74af400480179a308ac8455651',
         '5ae1a8dfd3d60742e3a0fa6976fade03ea80829a7749baa05bcd5551cafa76a0',
         'd1b9283e764e8824fcfc3fb612909f63ddf09a2886035726e2c927c8733e88d8'),
    7: ('60ce71f7d40bfd0d6594a2b53a786e040c1d1749b2f4c88d068a2ce17ba1be7c',
         '61eeaa926126b23560d5f8b509f41fe8e0cb092b3a5ac18232fe733abd9ef1ed',
         'b6c39e0ddabf2d1ee3830585321dbb4aaf9cd9a03761c5e615517da14ab63697'),
    8: ('e5798d1063586ee7ce0da73eb0aca1854855a5a43f048c7962b8b94796f4d109',
         'b94e22e02c1ae65b4dc514034dcdf4b23c578bc9cf2e51209fd03f4e56a75cef',
         '1f38ab9b5b1106497cc103adaa6277260e021082063d19e2aaa254c1a341c39f'),
    9: ('6f4140274c9706c1d93c8e6ce8965c1d1063c81d7650f18159439e4d3408af52',
         '53ceeb47362a68df7f12308920927bf84a5fb7fb77f6605ddfd72200a776e139',
         '96d7018ca377907f0b8c9673a0e0e16f8a50cae2c7d0604309440d9567a9c383'),
}


@pytest.mark.parametrize("q", sorted(PAYNE_DIGESTS))
def test_payne_derivation_bytes_are_pinned(q):
    w = symplectic_quadrangle(q)
    n = w.structure.n_points
    got = tuple(hashlib.sha256(json.dumps(structure_to_json(
                    payne_derivation(w, x)), default=np.ndarray.tolist).encode()).hexdigest()
                for x in (0, n // 2, n - 1))
    assert got == PAYNE_DIGESTS[q]


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_payne_derivation_matches_naive(q):
    w = symplectic_quadrangle(q)
    n = w.structure.n_points
    for x in (0, n // 2, n - 1):
        d = payne_derivation(w, x)
        survivors, lines = naive_payne(w.field, x)
        assert d.point_labels == tuple(w.structure.point_labels[i] for i in survivors)
        assert d.n_lines == len(lines)
        assert {frozenset(pts) for pts in d.points_of_line} == lines


def test_payne_derivation_choice_independent():
    for q in (2, 3):
        w = symplectic_quadrangle(q)
        a = payne_derivation(w, 0)
        b = payne_derivation(w, w.structure.n_points // 2)
        assert are_isomorphic(a, b) is not None


def test_dual_involution(plane3):
    s = plane3.structure
    dd = dual(dual(s))
    assert dd.incidence == s.incidence
    assert dd.point_labels == s.point_labels


def test_dual_swaps_order():
    w = symplectic_quadrangle(2)
    d = payne_derivation(w)  # order (1, 3)
    assert quadrangle_order(d) == (1, 3)
    assert quadrangle_order(dual(d)) == (3, 1)
    assert is_generalized_ngon(dual(d), 4).ok


def test_dual_derivation_matches_expansion_order(expansions_small):
    for q in (2, 3):
        w = symplectic_quadrangle(q)
        d = dual(payne_derivation(w))
        assert quadrangle_order(d) == gq_parameters(expansions_small[q])


def _payne_pair(q):
    plane = affine_plane(field_from_order(q))
    w = symplectic_quadrangle(q)
    return plane, w, expand(affine_gains(plane)), dual(payne_derivation(w))


def _looped_payne_map(w, left, right, vector, base=0):
    """payne_isomorphism's map built one element at a time: line
    z[(x, y), t] goes to the survivor vector(t, x, y), ranked among the
    points off the perp of w.codes[base], and each point to the point of
    right on the images of its lines (-1 where there is none)."""
    q = w.q
    survivors = np.flatnonzero(_form(w.field.code_tables, w.codes[base], w.codes) != 0)
    rank = {p: i for i, p in enumerate(survivors.tolist())}
    line_map = [rank.get(int(w.point_index(np.array(vector(t, x, y)))), -1)
                for x in range(q) for y in range(q) for t in range(q)]
    points = {frozenset(lines): j for j, lines in enumerate(right.lines_of_point)}
    point_map = [points.get(frozenset(line_map[b] for b in lines), -1)
                 for lines in left.lines_of_point]
    return Isomorphism(tuple(point_map), tuple(line_map))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_payne_isomorphism_matches_the_looped_map(q):
    plane, w, left, right = _payne_pair(q)
    _, _, neg = w.field.code_tables
    one = w.field.elements().index(w.field.one)
    iso = catalog.payne_isomorphism(plane, w, left, right)
    assert iso == _looped_payne_map(w, left, right, lambda t, x, y: (neg[t], one, x, y))
    assert verify_isomorphism(left, right, iso)


@pytest.mark.parametrize("q", [3, 5, 7])
def test_mutated_payne_maps_fail_the_check(q):
    """At odd q the check refuses the closed form with its sign dropped,
    with t offset by x, and built against the base point w.codes[1].  A
    constant offset of t is no mutation: it composes the map with the
    label translation t -> t + 1, an automorphism of the expansion.  It
    and the swap of x and y without the sign verify, so the check does
    not refuse everything."""
    plane, w, left, right = _payne_pair(q)
    add, _, neg = w.field.code_tables
    one = w.field.elements().index(w.field.one)

    def check(vector, base=0):
        return verify_isomorphism(left, right, _looped_payne_map(w, left, right, vector, base))

    assert not check(lambda t, x, y: (t, one, x, y))
    assert not check(lambda t, x, y: (add[neg[t], neg[x]], one, x, y))
    assert not check(lambda t, x, y: (neg[t], one, x, y), base=1)
    assert check(lambda t, x, y: (add[neg[t], neg[one]], one, x, y))
    assert check(lambda t, x, y: (t, one, y, x))
