"""Generators for the concrete geometries: affine planes with their
quadrangle-yielding gains, the symplectic quadrangle W(q), the Payne
derivation, and plain duality."""

from itertools import combinations, product

from .fields import field_from_order
from .geometry import IncidenceStructure
from .groups import AdditiveGroup
from .gains import GainGraph

MAX_SYMPLECTIC_ORDER = 16


class AffinePlane:
    """AG(2, F): points are coordinate pairs, lines are verticals x = b
    and slanted lines y = m x + b.

    Line keys are ("v", b) for verticals and ("s", m, b) otherwise.
    Only finite fields can be enumerated; the rationals are served by
    the closed-form helpers instead.
    """

    def __init__(self, field):
        if not field.finite:
            raise ValueError("plane enumeration needs a finite field; "
                             "use detour_formula for the rationals")
        self.field = field
        els = field.elements()
        self.point_coords = [(x, y) for x in els for y in els]
        self.point_ids = {c: i for i, c in enumerate(self.point_coords)}
        self.line_keys = [("v", b) for b in els]
        self.line_keys += [("s", m, b) for m in els for b in els]
        self.line_ids = {k: i for i, k in enumerate(self.line_keys)}

        r = field.render
        point_labels = [f"({r(x)},{r(y)})" for x, y in self.point_coords]
        line_labels = []
        for key in self.line_keys:
            if key[0] == "v":
                line_labels.append(f"x={r(key[1])}")
            else:
                line_labels.append(f"y={r(key[1])}x+{r(key[2])}")

        pairs = []
        for b in els:
            li = self.line_ids[("v", b)]
            for y in els:
                pairs.append((self.point_ids[(b, y)], li))
        for m in els:
            for b in els:
                li = self.line_ids[("s", m, b)]
                for x in els:
                    y = field.add(field.mul(m, x), b)
                    pairs.append((self.point_ids[(x, y)], li))
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
    F = plane.field
    group = AdditiveGroup(F)
    gains = {}
    for p, b in plane.structure.incidence:
        key = plane.line_keys[b]
        x, y = plane.point_coords[p]
        if key[0] == "v":
            gains[(b, p)] = F.neg(F.mul(key[1], y))
        else:
            gains[(b, p)] = F.mul(x, key[2])
    return GainGraph(plane.structure, group, gains)


def detour_formula(field, line_key, p, q):
    """Closed form of the detour gain from a line to an off-line point p,
    detouring through the on-line point q, under the shipped gains.

    Vertical line x = b with p = (x, y) and q = (b, y1):
        x*y1 - y*b - b*y1
    Slanted line y = m x + b with p = (x, y) and q = (x1, y1):
        x*y1 - x1*y + x1*b

    Works over any field, including the rationals.
    """
    x, y = p
    if line_key[0] == "v":
        b = line_key[1]
        if q[0] != b:
            raise ValueError("q is not on the vertical line")
        if x == b:
            raise ValueError("p is on the line")
        y1 = q[1]
        return field.sub(field.sub(field.mul(x, y1), field.mul(y, b)),
                         field.mul(b, y1))
    _, m, b = line_key
    x1, y1 = q
    if y1 != field.add(field.mul(m, x1), b):
        raise ValueError("q is not on the slanted line")
    if y == field.add(field.mul(m, x), b):
        raise ValueError("p is on the line")
    return field.add(field.sub(field.mul(x, y1), field.mul(x1, y)),
                     field.mul(x1, b))


# -- symplectic quadrangle and the Payne derivation ---------------------------


def _normalize(field, vec):
    for c in vec:
        if c != field.zero:
            inv = field.inv(c)
            return tuple(field.mul(inv, x) for x in vec)
    raise ValueError("zero vector")


def _form(field, u, v):
    """Alternating form u0 v1 - u1 v0 + u2 v3 - u3 v2."""
    t1 = field.sub(field.mul(u[0], v[1]), field.mul(u[1], v[0]))
    t2 = field.sub(field.mul(u[2], v[3]), field.mul(u[3], v[2]))
    return field.add(t1, t2)


class SymplecticQuadrangle:
    """W(q): points are the 1-spaces of F_q^4, lines the 2-spaces on
    which the alternating form vanishes."""

    def __init__(self, q):
        if q > MAX_SYMPLECTIC_ORDER:
            raise ValueError(f"order {q} exceeds the {MAX_SYMPLECTIC_ORDER} ceiling")
        F = field_from_order(q)
        self.q = q
        self.field = F
        els = F.elements()
        vectors = []
        for lead in range(4):
            free = 3 - lead
            for tail in product(els, repeat=free):
                vec = (F.zero,) * lead + (F.one,) + tail
                vectors.append(vec)
        self.vectors = vectors
        self.point_ids = {v: i for i, v in enumerate(vectors)}

        # Each 2-space has one reduced echelon basis (u, w), pivots c < d:
        # w is normalized with lead d, and every u + t w with lead c.
        lines = []
        for c, d in combinations(range(4), 2):
            free = [k for k in range(c + 1, 4) if k != d]
            for w in vectors:
                if w.index(F.one) != d:
                    continue
                for tail in product(els, repeat=len(free)):
                    u = [F.zero] * 4
                    u[c] = F.one
                    for k, a in zip(free, tail):
                        u[k] = a
                    if _form(F, u, w) == F.zero:
                        lines.append(frozenset(
                            [self.point_ids[w]]
                            + [self.point_ids[tuple(F.add(a, F.mul(t, b))
                                                    for a, b in zip(u, w))]
                               for t in els]))
        self.line_sets = sorted(lines, key=sorted)

        r = F.render
        point_labels = [f"<{','.join(r(c) for c in v)}>" for v in vectors]
        line_labels = ["{" + ",".join(str(i) for i in sorted(ls)) + "}"
                       for ls in self.line_sets]
        pairs = [(p, li) for li, ls in enumerate(self.line_sets)
                 for p in sorted(ls)]
        self.structure = IncidenceStructure(point_labels, line_labels, pairs)

    def collinear(self, i, j):
        """Points of W(q) are collinear exactly when the form vanishes."""
        return _form(self.field, self.vectors[i], self.vectors[j]) == self.field.zero


def symplectic_quadrangle(q):
    return SymplecticQuadrangle(q)


def payne_derivation(w, x_index=0):
    """Derive a quadrangle of order (q-1, q+1) from W(q) at a point x.

    Points: the points of W(q) not collinear with x.  Lines: the lines
    of W(q) missing x, restricted to surviving points, together with the
    point sets of the projective lines through x spanned by x and a
    surviving point, with x removed.  Every point of W(q) works, and the
    output is re-certified by the generic verifier in the tests rather
    than trusted.
    """
    F = w.field
    q = w.q
    x = w.vectors[x_index]
    surviving = [i for i in range(len(w.vectors)) if not w.collinear(x_index, i)]
    new_id = {old: new for new, old in enumerate(surviving)}
    if len(surviving) != q ** 3:
        raise ValueError("unexpected survivor count; base point not regular?")

    line_sets = []
    for ls in w.line_sets:
        if x_index not in ls:
            pts = frozenset(new_id[i] for i in ls if i in new_id)
            assert len(pts) == q
            line_sets.append(pts)
    covered = set()
    for old in surviving:
        if new_id[old] in covered:
            continue  # its line through x is already in line_sets
        yvec = w.vectors[old]
        pts = set()
        for t in F.elements():
            shifted = tuple(F.add(yvec[k], F.mul(t, x[k])) for k in range(4))
            pts.add(new_id[w.point_ids[_normalize(F, shifted)]])
        pts = frozenset(pts)
        assert len(pts) == q
        covered |= pts
        line_sets.append(pts)

    if len(line_sets) != q * q * (q + 2):
        raise ValueError("unexpected line count in the derivation")
    point_labels = [w.structure.point_labels[i] for i in surviving]
    line_labels = [f"d{j}" for j in range(len(line_sets))]
    pairs = [(p, j) for j, ls in enumerate(line_sets) for p in sorted(ls)]
    return IncidenceStructure(point_labels, line_labels, pairs)


def dual(s):
    """Exchange the roles of points and lines."""
    return IncidenceStructure(
        s.line_labels, s.point_labels,
        [(b, p) for p, b in s.incidence])
