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
evaluates every table at once through DetourKernel.  The scalar
label_sweep and the generic n-gon verifier stay as independent oracles.
"""

import numpy as np

from .geometry import (IncidenceStructure, Isomorphism, Verdict,
                       is_linear_space, steiner_parameters,
                       verify_isomorphism)
from .gains import switch
from .groups import code_dtype


class Expansion(IncidenceStructure):
    """The expanded structure, with tags tying every element to its origin.

    Point tags are ("x", p, None) or ("y", b, t); line tags are
    ("z", p, t), where t indexes into ``lambdas``.
    """

    def __init__(self, gains):
        base = gains.base
        group = gains.group
        if not group.finite:
            raise ValueError("expansion needs a finite label set")
        lambdas = tuple(group.lambdas())
        k = len(lambdas)
        lam_pos = {lam: t for t, lam in enumerate(lambdas)}
        v, nb = base.n_points, base.n_lines

        point_labels = [f"x:{base.point_labels[p]}" for p in range(v)]
        point_tags = [("x", p, None) for p in range(v)]
        for b in range(nb):
            for t in range(k):
                point_labels.append(
                    f"y:{base.line_labels[b]};{group.render(lambdas[t])}")
                point_tags.append(("y", b, t))
        line_labels = []
        line_tags = []
        for p in range(v):
            for t in range(k):
                line_labels.append(
                    f"z:{base.point_labels[p]};{group.render(lambdas[t])}")
                line_tags.append(("z", p, t))

        pairs = []
        for p in range(v):
            for t in range(k):
                pairs.append((p, p * k + t))
        for (b, p), phi in gains.gains.items():
            y_base = v + b * k
            for t in range(k):
                mu = group.act(phi, lambdas[t])
                pairs.append((y_base + t, p * k + lam_pos[mu]))

        super().__init__(point_labels, line_labels, pairs)
        self.gains = gains
        self.group = group
        self.lambdas = lambdas
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
    lam_pos = {lam: t for t, lam in enumerate(c1.lambdas)}
    k = len(c1.lambdas)
    v = base.n_points

    point_map = list(range(v))
    for b in range(base.n_lines):
        fb = f[base.line_eid(b)]
        for t in range(k):
            mu = group.act(fb, c1.lambdas[t])
            point_map.append(v + b * k + lam_pos[mu])
    line_map = []
    for p in range(v):
        fp = f[base.point_eid(p)]
        for t in range(k):
            mu = group.act(fp, c1.lambdas[t])
            line_map.append(p * k + lam_pos[mu])

    iso = Isomorphism(tuple(point_map), tuple(line_map))
    if not verify_isomorphism(c1, c2, iso):
        raise RuntimeError("switching map failed the isomorphism check")
    return iso


def lift_chain(gains, chain, lam0):
    """Lift a base chain to the expansion, starting at label lam0.

    A base element u with running label lam becomes y[u,lam] when u is a
    line and z[u,lam] when u is a point; the label is transported by the
    step gains.  Returns the lifted chain as expansion eids.
    """
    base, group = gains.base, gains.group
    if len(chain) == 0:
        raise ValueError("empty chain")
    c = expand(gains)
    lam_pos = {lam: t for t, lam in enumerate(c.lambdas)}
    if lam0 not in lam_pos:
        raise ValueError("unknown label")

    def lifted_eid(u, lam):
        kind, i = base.eid_index(u)
        if kind == "line":
            return c.point_eid(c.y_point(i, lam_pos[lam]))
        return c.line_eid(c.z_line(i, lam_pos[lam]))

    lam = lam0
    out = [lifted_eid(chain[0], lam)]
    for i in range(1, len(chain)):
        lam = group.act(gains.step_gain(chain[i - 1], chain[i]), lam)
        out.append(lifted_eid(chain[i], lam))
    return out


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

    Edges are numbered in sorted (line, point) order, so one gain
    assignment is a row of group codes (see GroupAction.code) with one
    column per edge, and a batch of assignments is a (B, edges) array.
    Non-incident pairs (b, p) are numbered line-major, then by point.
    ``sized`` lists the pairs whose line has |group| points; bq, b2q and
    b2p have one column per sized pair and one row per point q on its
    line b, and hold the edge ids of (b, q), (b', q) and (b', p), with b'
    the line through p and q.  A pair on a line of any other size is
    never bijective.  The group must act regularly, so that a table
    permutes the labels exactly when it is a bijection onto the group.
    """

    def __init__(self, base, group):
        if not (group.finite and group.regular):
            raise ValueError(f"detour tables need a finite group acting regularly, "
                             f"not {group!r}")
        eid = base.edge_ids()
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
        # Tables are laid out (k, pairs), so that comparing two entries of
        # every table is one elementwise operation over contiguous rows.
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
        """The code row of one gain graph on this kernel's base."""
        code = self.group.code
        return np.array([code(gains.gains[e]) for e in map(tuple, self.edges.tolist())],
                        dtype=self.dtype)

    def bijective(self, codes):
        """Whether each pair's detour table is a bijection onto the group.

        codes has shape (..., edges); the result is a bool array of shape
        (..., pairs).
        """
        group = self.group
        inverse = group.inverse_codes(codes)
        values = group.compose_codes(
            np.take(codes, self.b2p, axis=-1),
            group.compose_codes(np.take(inverse, self.b2q, axis=-1),
                                np.take(codes, self.bq, axis=-1)))
        # k values in a group of order k are a bijection iff they differ
        # pairwise: each entry against every later one.
        distinct = np.ones(values.shape[:-2] + values.shape[-1:], dtype=bool)
        for i in range(values.shape[-2] - 1):
            distinct &= (values[..., i + 1:, :] != values[..., i:i + 1, :]).all(axis=-2)
        ok = np.zeros(codes.shape[:-1] + (len(self.pairs),), dtype=bool)
        ok[..., self.sized] = distinct
        return ok


def label_sweep(gains):
    """The scalar criterion by labels: the reference gq_criterion and
    bijective_pair_count are tested against.

    Yields (b, p, lam) for each non-incident pair, line-major, whose
    detour table fails to permute the labels, lam being the first label
    it fails on.
    """
    base, group = gains.base, gains.group
    lambdas = tuple(group.lambdas())
    for b in range(base.n_lines):
        for p in range(base.n_points):
            if (p, b) in base.incidence_set:
                continue
            values = list(detour_gains(gains, b, p).values())
            for lam in lambdas:
                images = {group.act(v, lam) for v in values}
                if not (len(images) == len(values) == len(lambdas)):
                    yield b, p, lam
                    break


def gq_criterion(gains):
    """Decide whether the expansion is a generalized quadrangle.

    True exactly when the detour table of every non-incident (line,
    point) pair is a bijection onto the group.  The witness on failure
    is the first failing pair (b, p), line-major.
    """
    base = gains.base
    ls = is_linear_space(base)
    if not ls:
        raise ValueError(f"base is not a linear space: {ls.witness}")
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
    """Order (s, t) of a verified quadrangle expansion.

    s = (v-1)/(k-1) and t = k-1 from the base Steiner parameters,
    cross-validated against the actual degree counts of the expansion.
    """
    base = c.gains.base
    sp = steiner_parameters(base)
    if sp is None:
        raise ValueError("base line sizes are not constant")
    v, k = sp
    if k < 2 or (v - 1) % (k - 1):
        raise ValueError(f"parameters (v={v}, k={k}) do not divide evenly")
    s = (v - 1) // (k - 1)
    t = k - 1
    line_sizes = {len(x) for x in c.points_of_line}
    point_degs = {len(x) for x in c.lines_of_point}
    if line_sizes != {s + 1} or point_degs != {t + 1}:
        raise ValueError("degree counts disagree with the parameter formulas")
    return s, t
