"""Affine planes, their shipped gains and closed forms, the symplectic
quadrangle, the Payne derivation, and duality."""

import random
from fractions import Fraction

import pytest

from gainquad import (GF, Rationals, affine_gains, affine_plane, are_isomorphic,
                      detour_formula, dual, field_from_order, gq_parameters,
                      is_generalized_ngon, is_linear_space, payne_derivation,
                      quadrangle_order, steiner_parameters,
                      symplectic_quadrangle, walk_gain)
from helpers import naive_symplectic


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
    b = plane.line_ids[("v", one)]
    p = plane.point_ids[(one, one)]
    assert g.gain(b, p) == one


def test_shipped_gain_values_zero_intercept(plane3):
    F = plane3.field
    g = affine_gains(plane3)
    for m in F.elements():
        li = plane3.line_ids[("s", m, F.zero)]
        for p in plane3.structure.points_of_line[li]:
            assert g.gain(li, p) == F.zero


def test_shipped_gain_values_gf3(plane3):
    F = plane3.field
    g = affine_gains(plane3)
    one, two = F.element(1), F.element(2)
    b = plane3.line_ids[("s", one, two)]
    p = plane3.point_ids[(two, F.add(F.mul(one, two), two))]  # (2, 1)
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
    # every point is collinear with 1 + q(q+1) others
    for i in range(s.n_points):
        others = sum(1 for j in range(s.n_points)
                     if j != i and w.collinear(i, j))
        assert others == q * (q + 1)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_symplectic_matches_polynomial_oracle(q):
    w = symplectic_quadrangle(q)
    vectors, line_sets = naive_symplectic(w.field)
    assert w.vectors == vectors
    assert w.line_sets == line_sets
    s = w.structure
    r = w.field.render
    assert s.point_labels == tuple(f"<{','.join(r(c) for c in v)}>" for v in vectors)
    assert s.line_labels == tuple("{" + ",".join(map(str, sorted(ls))) + "}"
                                  for ls in line_sets)
    assert s.incidence == tuple(sorted((p, j) for j, ls in enumerate(line_sets)
                                       for p in ls))


def test_symplectic_rejects_oversized():
    with pytest.raises(ValueError):
        symplectic_quadrangle(17)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_payne_derivation(q):
    w = symplectic_quadrangle(q)
    d = payne_derivation(w)
    assert (d.n_points, d.n_lines) == (q ** 3, q * q * (q + 2))
    assert is_generalized_ngon(d, 4).ok
    assert quadrangle_order(d) == (q - 1, q + 1)


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
