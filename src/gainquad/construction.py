"""Expansion of a gain graph into a candidate generalized quadrangle.

Given a gain graph on a base structure and a left action on a finite
label set L, the expansion has

  * points  x_p        for each base point p,
  * points  y[b,lam]   for each base line b and label lam,
  * lines   z[p,lam]   for each base point p and label lam,

with x_p on z[p,lam] for every lam, and y[b,lam] on z[p,mu] exactly when
b I p and mu = gain(bp) . lam.

When the base is a linear space, the expansion is a generalized
quadrangle if and only if every detour-gain table (see detour_gains) is
a bijection; that criterion is implemented by gq_criterion, which
evaluates every table at once through DetourKernel.  detour_gains is its
scalar reference, and the generic n-gon verifier an independent oracle.
"""

import numpy as np

from .geometry import (IncidenceStructure, Isomorphism, Verdict,
                       is_linear_space, quadrangle_order, steiner_parameters,
                       verify_isomorphism)
from .gains import switch
from .groups import code_dtype


class Expansion(IncidenceStructure):
    """The expanded structure, with tags tying every element to its origin.

    Point tags are ("x", p, None) or ("y", b, t); line tags are
    ("z", p, t), where t, ``lambda_index[lam]``, indexes into ``lambdas``.
    """

    def __init__(self, gains):
        base = gains.base
        group = gains.group
        if not group.finite:
            raise ValueError("expansion needs a finite label set")
        lambdas = tuple(group.lambdas())
        k = len(lambdas)
        lambda_index = {lam: t for t, lam in enumerate(lambdas)}
        v, nb = base.n_points, base.n_lines

        names = [group.render(lam) for lam in lambdas]
        point_labels = [f"x:{label}" for label in base.point_labels]
        point_labels += [f"y:{label};{name}" for label in base.line_labels for name in names]
        line_labels = [f"z:{label};{name}" for label in base.point_labels for name in names]
        point_tags = [("x", p, None) for p in range(v)]
        point_tags += [("y", b, t) for b in range(nb) for t in range(k)]
        line_tags = [("z", p, t) for p in range(v) for t in range(k)]

        # x_p lies on every z[p, t], and y[b, t] on z[p, row[t]], where
        # row[t] is the position of gain(bp) . lambdas[t]: one action row
        # per distinct gain.
        rows = {phi: [lambda_index[group.act(phi, lam)] for lam in lambdas]
                for phi in set(gains.gains.values())}
        b, p = np.array(list(gains.gains)).T
        row = np.array([rows[phi] for phi in gains.gains.values()])
        z = np.arange(v * k)
        pairs = np.concatenate([
            np.column_stack([z // k, z]),
            np.column_stack([(v + b[:, None] * k + np.arange(k)).ravel(),
                             (p[:, None] * k + row).ravel()])])

        super().__init__(point_labels, line_labels, pairs)
        self.gains = gains
        self.group = group
        self.lambdas = lambdas
        self.lambda_index = lambda_index
        self.point_tags = tuple(point_tags)
        self.line_tags = tuple(line_tags)

    def x_points(self):
        """Indices of the points of type x (one per base point)."""
        return tuple(range(self.gains.base.n_points))

    def y_point(self, b, t):
        return self.gains.base.n_points + b * len(self.lambdas) + t

    def z_line(self, p, t):
        return p * len(self.lambdas) + t

    def tags_json(self):
        group = self.group
        return {
            "group": group.spec(),
            "lambdas": [group.encode(lam) for lam in self.lambdas],
            "points": [list(t) for t in self.point_tags],
            "lines": [list(t) for t in self.line_tags],
        }


def expand(gains):
    """Run the expansion construction on a gain graph."""
    return Expansion(gains)


def switching_isomorphism(gains, f):
    """The isomorphism expand(g) -> expand(switch(g, f)) induced by f.

    x_p maps to itself, y[b,lam] to y[b, f(b).lam], and z[p,lam] to
    z[p, f(p).lam].  The returned maps are verified against both
    expansions before being handed back.
    """
    base, group = gains.base, gains.group
    c1 = expand(gains)
    c2 = expand(switch(gains, f))
    lam_pos = c1.lambda_index

    point_map = list(c1.x_points())
    for b in range(base.n_lines):
        fb = f[base.line_eid(b)]
        point_map.extend(c1.y_point(b, lam_pos[group.act(fb, lam)]) for lam in c1.lambdas)
    line_map = []
    for p in range(base.n_points):
        fp = f[base.point_eid(p)]
        line_map.extend(c1.z_line(p, lam_pos[group.act(fp, lam)]) for lam in c1.lambdas)

    iso = Isomorphism(tuple(point_map), tuple(line_map))
    if not verify_isomorphism(c1, c2, iso):
        raise RuntimeError("switching map failed the isomorphism check")
    return iso


def detour_gains(gains, b, p):
    """Gain table of the three-step detours from line b to a point p off b.

    For each point q on b, the walk goes b -> q -> b' -> p where b' is
    the unique line through q and p; its gain is
    gain(b'p) gain(b'q)^-1 gain(bq).  This is the scalar reference for
    DetourKernel.
    """
    base, group = gains.base, gains.group
    if (p, b) in base.incidence_set:
        raise ValueError(f"point {p} is incident with line {b}")
    table = {}
    for q in base.points_of_line[b]:
        b2 = base.common_line(p, q)
        table[q] = group.compose(
            gains.gain(b2, p),
            group.compose(group.inverse(gains.gain(b2, q)), gains.gain(b, q)))
    return table


class DetourKernel:
    """Every detour table of a linear space at once, for arrays of gains.

    Edges are numbered in sorted (line, point) order, and a batch of B
    assignments is an edge-major (edges, B) array of group codes (see
    GroupAction.code), one column per assignment, so that every gather
    copies whole contiguous rows of B codes instead of single bytes.
    Non-incident pairs (b, p) are numbered line-major, then by point.
    ``sized`` lists the pairs whose line has |group| points; bq, b2q and
    b2p have one column per sized pair and one row per point q on its
    line b, and hold the edge ids of (b, q), (b', q) and (b', p), with b'
    the line through p and q.  A pair on a line of any other size is
    never bijective.  The base must be a linear space, and the group
    must act regularly, so that a table permutes the labels exactly when
    it is a bijection onto the group; ValueError otherwise.
    """

    def __init__(self, base, group):
        ls = is_linear_space(base)
        if not ls:
            raise ValueError(f"base is not a linear space: {ls.witness}")
        if not (group.finite and group.regular):
            raise ValueError(f"detour tables need a finite group acting regularly, "
                             f"not {group!r}")
        eid = base.edge_ids
        line = base.line_table()
        incident = eid >= 0
        k = group.order
        self.group = group
        self.dtype = code_dtype(k)
        self.edges = np.argwhere(incident)
        self.pairs = np.argwhere(~incident)
        sizes = incident.sum(axis=1)
        self.sized = np.flatnonzero(sizes[self.pairs[:, 0]] == k)
        full = np.flatnonzero(sizes == k)
        points = np.nonzero(incident[full])[1].reshape(len(full), k)
        row = np.zeros(base.n_lines, dtype=np.intp)
        row[full] = np.arange(len(full))
        # Flat takes: two-dimensional fancy indexing is several times slower.
        v = base.n_points
        b = self.pairs[self.sized, 0]
        p = self.pairs[self.sized, 1]
        q = points[row[b]].T
        b2 = np.take(line, p * v + q)
        self.bq = np.take(eid, b * v + q)
        self.b2q = np.take(eid, b2 * v + q)
        self.b2p = np.take(eid, b2 * v + p)

    def codes(self, gains):
        """The codes of one gain graph on this kernel's base, one per edge."""
        code = self.group.code
        return np.array([code(gains.gains[e]) for e in map(tuple, self.edges.tolist())],
                        dtype=self.dtype)

    def bijective(self, codes):
        """Whether each pair's detour table is a bijection onto the group.

        codes has shape (edges, ...); the result is a bool array of shape
        (pairs, ...).
        """
        group = self.group
        inverse = group.inverse_codes(codes)
        # (k, sized pairs, ...): entry i of every table is one contiguous row.
        values = group.compose_codes(
            np.take(codes, self.b2p, axis=0),
            group.compose_codes(np.take(inverse, self.b2q, axis=0),
                                np.take(codes, self.bq, axis=0)))
        # k values in a group of order k are a bijection iff they differ
        # pairwise: each entry against every later one.
        distinct = np.ones(values.shape[1:], dtype=bool)
        for i in range(len(values) - 1):
            distinct &= (values[i + 1:] != values[i]).all(axis=0)
        ok = np.zeros((len(self.pairs),) + codes.shape[1:], dtype=bool)
        ok[self.sized] = distinct
        return ok


def gq_criterion(gains):
    """Decide whether the expansion is a generalized quadrangle.

    True exactly when the detour table of every non-incident (line,
    point) pair is a bijection onto the group.  The witness on failure
    is the first failing pair (b, p), line-major.
    """
    base = gains.base
    kernel = DetourKernel(base, gains.group)
    ok = kernel.bijective(kernel.codes(gains))
    if not ok.all():
        return Verdict(False, tuple(kernel.pairs[~ok][0].tolist()))
    # A passing criterion forces equal line sizes on the base; this is a
    # consequence, not an input assumption, so fail loudly if violated.
    if steiner_parameters(base) is None:
        raise RuntimeError("criterion passed on a base with unequal line sizes")
    return Verdict(True)


def bijective_pair_count(gains):
    """(number of non-incident pairs with bijective detour table, total pairs).

    The full sweep (no early stop) that backs near-miss diagnostics.
    """
    kernel = DetourKernel(gains.base, gains.group)
    ok = kernel.bijective(kernel.codes(gains))
    return int(ok.sum()), len(ok)


def gq_parameters(c):
    """Order (s, t) of a verified quadrangle expansion: its
    quadrangle_order, cross-validated against s = (v-1)/(k-1) and
    t = k-1 from the base Steiner parameters.
    """
    sp = steiner_parameters(c.gains.base)
    if sp is None:
        raise ValueError("base line sizes are not constant")
    v, k = sp
    s, t = quadrangle_order(c)
    if t != k - 1 or s * t != v - 1:
        raise ValueError("degree counts disagree with the parameter formulas")
    return s, t
