"""Generators for the concrete geometries: affine planes with their
quadrangle-yielding gains, the symplectic quadrangle W(q), the Payne
derivation, and plain duality."""

from itertools import combinations

import numpy as np

from .fields import field_from_order
from .geometry import IncidenceStructure, Isomorphism, verify_isomorphism
from .groups import AdditiveGroup
from .gains import GainGraph

MAX_SYMPLECTIC_ORDER = 32


class AffinePlane:
    """AG(2, F): points are coordinate pairs, lines are verticals x = b
    and slanted lines y = m x + b.

    Line keys are ("v", b) for verticals and ("s", m, b) otherwise.
    Only finite fields can be enumerated.
    """

    def __init__(self, field):
        if not field.finite:
            raise ValueError("plane enumeration needs a finite field")
        self.field = field
        els = field.elements()
        self.point_coords = [(x, y) for x in els for y in els]
        self.line_keys = [("v", b) for b in els]
        self.line_keys += [("s", m, b) for m in els for b in els]

        r = field.render
        point_labels = [f"({r(x)},{r(y)})" for x, y in self.point_coords]
        line_labels = []
        for key in self.line_keys:
            if key[0] == "v":
                line_labels.append(f"x={r(key[1])}")
            else:
                line_labels.append(f"y={r(key[1])}x+{r(key[2])}")

        # In codes (ranks in els), point (x, y) is x q + y, the vertical
        # x = b is line b, and y = m x + b is line q + m q + b.
        q = len(els)
        add, mul, _ = field.code_tables
        m, b, x = np.indices((q, q, q)).reshape(3, -1)
        pairs = np.concatenate([np.column_stack([np.arange(q * q), np.arange(q * q) // q]),
                                np.column_stack([x * q + add[mul[m, x], b], q + m * q + b])])
        self.structure = IncidenceStructure(point_labels, line_labels, pairs)


def affine_plane(field):
    return AffinePlane(field)


def affine_gains(plane):
    """The shipped gain function on an affine plane over its field.

    Over the additive group of the field: the edge from the vertical
    line x = b to the point (b, y) carries -b*y, and the edge from a
    slanted line to the point (x, y) on it carries x*b where b is the
    line's second coordinate (its y-intercept).
    """
    q = plane.field.order
    _, mul, neg = plane.field.code_tables
    s = plane.structure
    p, b = s.pairs[s.line_order].T
    # Codes as in AffinePlane: point (x, y) is x q + y, line b < q the
    # vertical x = b, line q + m q + c the slanted line of intercept c.
    x, y = np.divmod(p, q)
    codes = np.where(b < q, neg[mul[b % q, y]], mul[x, (b - q) % q])
    return GainGraph(s, AdditiveGroup(plane.field), codes)


# -- symplectic quadrangle and the Payne derivation ---------------------------


def _form(tables, u, v):
    """Alternating form u0 v1 - u1 v0 + u2 v3 - u3 v2 on code arrays whose
    last axis holds the four coordinates, broadcast over the others."""
    add, mul, neg = tables
    t1 = add[mul[u[..., 0], v[..., 1]], neg[mul[u[..., 1], v[..., 0]]]]
    t2 = add[mul[u[..., 2], v[..., 3]], neg[mul[u[..., 3], v[..., 2]]]]
    return add[t1, t2]


def _digits(q, width):
    """Every tail of `width` codes, base-q digits of 0 .. q^width - 1 in
    lexicographic order, as a (q^width, width) array."""
    ranks = np.arange(q ** width, dtype=np.int64)
    return ranks[:, None] // q ** np.arange(width - 1, -1, -1, dtype=np.int64) % q


class SymplecticQuadrangle:
    """W(q): points are the 1-spaces of F_q^4, lines the 2-spaces on
    which the alternating form vanishes.

    Coordinates are handled as codes, ranks in F.elements() (code 0 is
    zero), through the field's code tables: `codes` holds one normalized
    row per point, and `structure` the incidences.
    """

    def __init__(self, q):
        if q > MAX_SYMPLECTIC_ORDER:
            raise ValueError(f"order {q} exceeds the {MAX_SYMPLECTIC_ORDER} ceiling")
        F = field_from_order(q)
        self.q = q
        self.field = F
        tables = F.code_tables
        add, mul, _ = tables
        els = F.elements()
        one = els.index(F.one)
        # Points are normalized vectors, by leading position, then tail;
        # those with lead k start at offset[k] and number q^(3-k).
        self._offset = offset = np.array([0, q ** 3, q ** 3 + q ** 2, q ** 3 + q ** 2 + q])
        self._inverse = np.argmax(mul == one, axis=1)
        blocks = []
        for lead in range(4):
            block = np.zeros((q ** (3 - lead), 4), dtype=np.int64)
            block[:, lead] = one
            block[:, lead + 1:] = _digits(q, 3 - lead)
            blocks.append(block)
        self.codes = codes = np.concatenate(blocks)

        # Each 2-space has one reduced echelon basis (u, w), pivots c < d:
        # w is normalized with lead d, and every u + t w with lead c, as
        # w vanishes before d.  One form evaluation per pivot pair finds
        # every isotropic (w, u).
        lines = []
        for c, d in combinations(range(4), 2):
            free = [k for k in range(c + 1, 4) if k != d]
            us = np.zeros((q ** len(free), 4), dtype=np.int64)
            us[:, c] = one
            us[:, free] = _digits(q, len(free))
            ws = codes[offset[d]:offset[d] + q ** (3 - d)]
            wi, ui = np.nonzero(_form(tables, ws[:, None, :], us[None, :, :]) == 0)
            span = add[us[ui, None, :], mul[np.arange(q)[:, None], ws[wi, None, :]]]
            lines.append(np.column_stack([offset[d] + wi, self.point_index(span)]))
        # Every line has q + 1 points, so ordering the sorted rows
        # lexicographically orders the lines by their sorted point lists.
        rows = np.sort(np.concatenate(lines), axis=1)
        rows = rows[np.lexsort(rows.T[::-1])]

        names = [F.render(a) for a in els]
        point_labels = [f"<{names[a]},{names[b]},{names[c]},{names[d]}>"
                        for a, b, c, d in codes.tolist()]
        decimal = np.array([str(i) for i in range(len(codes))], dtype=object)
        line_labels = ["{" + ",".join(r) + "}" for r in decimal[rows].tolist()]
        pairs = np.column_stack([rows.ravel(), np.arange(rows.size) // (q + 1)])
        self.structure = IncidenceStructure(point_labels, line_labels, pairs)

    def point_index(self, vecs):
        """Point ids of nonzero code vectors, the last axis holding the four
        coordinates: each is scaled by the inverse of its first nonzero
        coordinate and ranked as offset[lead] + its base-q tail."""
        nonzero = vecs != 0
        if not nonzero.any(axis=-1).all():
            raise ValueError("zero vector")
        lead = np.argmax(nonzero, axis=-1)
        scale = self._inverse[np.take_along_axis(vecs, lead[..., None], axis=-1)]
        scaled = self.field.code_tables[1][scale, vecs]
        weights = self.q ** np.arange(3, -1, -1, dtype=np.int64)
        tail = np.where(np.arange(4) > lead[..., None], scaled * weights, 0).sum(axis=-1)
        return self._offset[lead] + tail


def symplectic_quadrangle(q):
    return SymplecticQuadrangle(q)


def payne_derivation(w, x_index=0):
    """Derive a quadrangle of order (q-1, q+1) from W(q) at a point x.

    Points: the points of W(q) not collinear with x.  Lines: the lines
    of W(q) missing x, restricted to surviving points, together with the
    point sets of the projective lines through x spanned by x and a
    surviving point, with x removed; each of those comes in the place of
    its least survivor.  Every point of W(q) works, and the output is
    re-certified by the generic verifier in the tests rather than
    trusted.
    """
    q = w.q
    tables = w.field.code_tables
    add, mul, _ = tables
    x = w.codes[x_index]
    surviving = np.flatnonzero(_form(tables, x, w.codes) != 0)
    if len(surviving) != q ** 3:
        raise ValueError("unexpected survivor count; base point not regular?")
    new_id = np.full(len(w.codes), -1)
    new_id[surviving] = np.arange(q ** 3)

    s = w.structure
    lines = s.pairs[s.line_order, 0].reshape(s.n_lines, q + 1)
    missing = new_id[lines[~(lines == x_index).any(axis=1)]]
    if not ((missing >= 0).sum(axis=1) == q).all():
        raise ValueError("a line missing the base point does not meet its perp once")
    missing = missing[missing >= 0].reshape(-1, q)
    # The line through x and y holds y + t x for every t; it is kept from
    # the row of its least survivor.
    spans = add[w.codes[surviving, None, :], mul[np.arange(q)[:, None], x]]
    through = np.sort(new_id[w.point_index(spans)], axis=1)
    if (through[:, 0] < 0).any() or (np.diff(through, axis=1) == 0).any():
        raise ValueError("a line through the base point lacks q distinct survivors")
    through = through[through[:, 0] == np.arange(q ** 3)]

    rows = np.concatenate([missing, through])
    if len(rows) != q * q * (q + 2):
        raise ValueError("unexpected line count in the derivation")
    point_labels = [s.point_labels[i] for i in surviving.tolist()]
    line_labels = [f"d{j}" for j in range(len(rows))]
    pairs = np.column_stack([rows.ravel(), np.arange(rows.size) // q])
    return IncidenceStructure(point_labels, line_labels, pairs)


def payne_isomorphism(plane, w, left, right):
    """The verified isomorphism from left = expand(affine_gains(plane)) to
    right = dual(payne_derivation(w)) over GF(q).  Line z[(x, y), t] goes to
    the W(q) point <-t, 1, x, y>, off the perp of the base point <1,0,0,0>,
    and each point to the point of right whose q lines are the images of
    its own: two points of a quadrangle share at most one line."""
    q, F, tables = w.q, plane.field, w.field.code_tables
    p, t = np.divmod(np.arange(left.n_lines), q)
    one = np.full_like(t, F.elements().index(F.one))
    image = w.point_index(np.column_stack([F.code_tables[2][t], one, *np.divmod(p, q)]))
    line_map = np.searchsorted(np.flatnonzero(_form(tables, w.codes[0], w.codes) != 0), image)
    rows = np.sort(line_map[left.pairs[:, 1]].reshape(-1, q), axis=1)
    point_map = np.empty(left.n_points, dtype=np.int64)
    point_map[np.lexsort(rows.T[::-1])] = np.lexsort(right.pairs[:, 1].reshape(-1, q).T[::-1])
    iso = Isomorphism(tuple(point_map.tolist()), tuple(line_map.tolist()))
    if not verify_isomorphism(left, right, iso):
        raise RuntimeError("Payne map failed the isomorphism check")
    return iso


def dual(s):
    """Exchange the roles of points and lines."""
    return IncidenceStructure(s.line_labels, s.point_labels, s.pairs[:, ::-1])
