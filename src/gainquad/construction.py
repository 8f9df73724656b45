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
evaluates every table through DetourKernel: one table of point-pair
factors, then one gather and one composition per detour entry, in
blocks of lines, with the non-incident pairs numbered rather than
stored.  detour_gains is its scalar reference, and the generic n-gon
verifier an independent oracle.
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
        # per gain code in use, in a table indexed by code.
        els = group.elements()
        row = np.zeros((len(els), k), dtype=np.int64)
        for c in set(gains.codes.tolist()):
            row[c] = [lambda_index[group.act(els[c], lam)] for lam in lambdas]
        row = row[gains.codes]
        p, b = base.pairs[base.line_order].T
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


# A block of lines holds at most this many detour entries (k per pair), so
# its tables and numpy's intp index temporaries stay near 2 MB each.
BLOCK_ENTRIES = 1 << 18


class DetourKernel:
    """Every detour table of a linear space at once, for arrays of gains.

    Edges are numbered in sorted (line, point) order, and a batch of B
    assignments is an edge-major (edges, B) array of group codes, one
    column per assignment as GainGraph.codes, so that every gather
    copies whole contiguous rows of B codes instead of single bytes.
    Non-incident pairs (b, p) are numbered line-major, as
    np.argwhere(edge_ids < 0) lists them, from each line's ``first``;
    only those on a line of |group| points, ``full``, can be bijective.
    The factor gain(b'p) gain(b'q)^-1 of a detour depends only on the
    point pair (p, q), b' being the line through p and q.  So each call
    composes one table D of them, flat at q*v + p so that a block's
    gathers run along p, from the edges b2p[q, p] = (b', p) and
    b2p[p, q] = (b', q); the detour of (b, p) through the i-th point q_i
    of b is then D[p, q_i] gain(b q_i).  Lines go in blocks of at most
    BLOCK_ENTRIES detour entries, with pair numbers and int32 index
    tables built per block, so memory stays bounded as the base grows.
    The base must be a linear space, and the group must act regularly,
    so that a table permutes the labels exactly when it is a bijection
    onto the group; ValueError otherwise.
    """

    def __init__(self, base, group):
        ls = is_linear_space(base)
        if not ls:
            raise ValueError(f"base is not a linear space: {ls.witness}")
        if not (group.finite and group.regular):
            raise ValueError(f"detour tables need a finite group acting regularly, "
                             f"not {group!r}")
        self.eid = eid = base.edge_ids
        k, v = group.order, base.n_points
        self.group = group
        self.dtype = code_dtype(k)
        self.edges = np.argwhere(eid >= 0)
        self.n_pairs = eid.size - len(self.edges)
        self.first = np.cumsum(v - base.sizes) - (v - base.sizes)
        self.full = np.flatnonzero(base.sizes == k)
        self.block_lines = max(1, BLOCK_ENTRIES // max(1, k * (v - k)))
        self._kept = (None,)
        # b2p[q, p] = eid[b', p], b' the line through p and q: the base's
        # own edge table, not a copy.  Its diagonal is -1, which take
        # accepts, and no detour reads D[p, p].
        self.b2p = base.edge_table()

    def _pair_table(self, x, y, combine):
        """D = combine(x[b2p], y[b2p.T]), flat, b2p.T being the edges
        (b', q) as b' is the same line for (p, q) and (q, p).  Rows go in
        blocks of at most BLOCK_ENTRIES entries, or of one row, as take
        makes an intp copy of an int32 index table; a table that fits in
        one block is built in one step."""
        b2p, v = self.b2p, self.eid.shape[1]
        step = max(1, BLOCK_ENTRIES // v)
        if v <= step:
            d = combine(np.take(x, b2p, axis=0), np.take(y, b2p.T, axis=0))
        else:
            d = None
            for start in range(0, v, step):
                part = combine(np.take(x, b2p[start:start + step], axis=0),
                               np.take(y, b2p[:, start:start + step].T, axis=0))
                if d is None:
                    d = np.empty((v,) + part.shape[1:], dtype=part.dtype)
                d[start:start + step] = part
        return d.reshape((v * v,) + d.shape[2:])

    def _entries(self, x, y, combine):
        """Per block of lines, its pair numbers and the (k, lines, v - k,
        ...) entries combine(D[p, q_i], x[b q_i]) of their tables, with
        D = combine(x[b2p], y[b2p.T]).  The last block's index tables are
        kept, so a kernel whose lines fit in one block builds them once."""
        k, v = self.group.order, self.eid.shape[1]
        d = self._pair_table(x, y, combine)
        for start in range(0, len(self.full), self.block_lines):
            if self._kept[0] != start:
                lines = self.full[start:start + self.block_lines]
                rows = self.eid[lines]
                on = np.nonzero(rows >= 0)[1].astype(np.int32).reshape(-1, k)
                off = np.nonzero(rows < 0)[1].astype(np.int32).reshape(-1, v - k)
                self._kept = (start, (self.first[lines, None] + np.arange(v - k)).ravel(),
                              on.T[:, :, None] * v + off, rows[rows >= 0].reshape(-1, k).T)
            _, pairs, at, edges = self._kept
            yield pairs, combine(np.take(d, at, axis=0), np.take(x, edges, axis=0)[:, :, None])

    def bijective(self, codes):
        """Whether each pair's detour table is a bijection onto the group.

        codes has shape (edges, ...); the result is a bool array of shape
        (pairs, ...).
        """
        group = self.group
        ok = np.zeros((self.n_pairs,) + codes.shape[1:], dtype=bool)
        for pairs, values in self._entries(codes, group.inverse_codes(codes),
                                           group.compose_codes):
            # k values in a group of order k are a bijection iff they
            # differ pairwise: each entry against every later one.
            distinct = np.ones(values.shape[1:], dtype=bool)
            for i in range(len(values) - 1):
                distinct &= (values[i + 1:] != values[i]).all(axis=0)
            ok[pairs] = distinct.reshape((-1,) + codes.shape[1:])
        return ok

    def depth(self, position):
        """Each pair's largest position among the 3k edges its detour
        table reads, given one position per edge; 0 for a pair on a line
        of another size."""
        out = np.zeros(self.n_pairs, dtype=position.dtype)
        for pairs, reads in self._entries(position, position, np.maximum):
            out[pairs] = reads.max(axis=0).ravel()
        return out


def gq_criterion(gains):
    """Decide whether the expansion is a generalized quadrangle.

    True exactly when the detour table of every non-incident (line,
    point) pair is a bijection onto the group.  The witness on failure
    is the first failing pair (b, p), line-major.
    """
    base = gains.base
    kernel = DetourKernel(base, gains.group)
    ok = kernel.bijective(gains.codes)
    if not ok.all():
        # pair n is point n - first[b] off b, the last line with first[b] <= n
        n = int(np.argmin(ok))
        b = int(np.searchsorted(kernel.first, n, side="right")) - 1
        p = int(np.flatnonzero(kernel.eid[b] < 0)[n - kernel.first[b]])
        return Verdict(False, (b, p))
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
    ok = kernel.bijective(gains.codes)
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
