"""Incidence structures, the chain census, and the structural verifiers.

A structure owns two disjoint index spaces: points 0..v-1 and lines
0..b-1.  For graph-flavored operations every element also has a vertex
id ("eid"): point i is eid i, line j is eid v + j.  Structures are
immutable after construction, so derived tables are cached freely and
everything here is safe to share across threads.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from operator import index

import numpy as np


class Verdict(tuple):
    """A boolean check result carrying a witness when it fails."""

    def __new__(cls, ok, witness=None):
        return super().__new__(cls, (bool(ok), witness))

    @property
    def ok(self):
        return self[0]

    @property
    def witness(self):
        return self[1]

    def __bool__(self):
        return self[0]

    def __repr__(self):
        if self[0]:
            return "Verdict(ok=True)"
        return f"Verdict(ok=False, witness={self[1]!r})"


class IncidenceStructure:
    """Points, lines, and a symmetric incidence relation between them,
    held as `pairs`: an (m, 2) int32 array of distinct (point, line) rows
    in sorted order.  Every other table is derived from it, the tuple
    views and lookup tables on first use."""

    def __init__(self, point_labels, line_labels, incidence):
        point_labels = tuple(point_labels)
        line_labels = tuple(line_labels)
        if not point_labels or not line_labels:
            raise ValueError("point and line sets must be nonempty")
        v, nb = len(point_labels), len(line_labels)
        pairs = _pair_array(incidence)
        if not len(pairs):
            raise ValueError("incidence relation must be nonempty")
        p, b = pairs.T
        out = (p < 0) | (p >= v) | (b < 0) | (b >= nb)
        if out.any():
            bad = pairs[out]
            p, b = bad[np.lexsort(bad.T[::-1])[0]].tolist()
            raise ValueError(f"incidence pair ({p},{b}) out of range")
        # A stable sort: np.unique and the default quicksort touch up to
        # 1 MB more of numpy's code, which small runs pay in peak RSS.
        key = np.sort(p.astype(np.int64, copy=False) * nb + b, kind="stable")
        key = key[np.concatenate(([True], key[1:] != key[:-1]))]
        self.point_labels = point_labels
        self.line_labels = line_labels
        self.pairs = np.empty((len(key), 2), dtype=np.int32)
        self.pairs[:, 0], self.pairs[:, 1] = np.divmod(key, nb)
        self.pairs.flags.writeable = False
        self.degrees = np.bincount(self.pairs[:, 0], minlength=v)  # lines per point
        self.sizes = np.bincount(self.pairs[:, 1], minlength=nb)  # points per line
        self.n_points = v
        self.n_lines = nb
        self.n_elements = v + nb

    @cached_property
    def incidence(self):
        return tuple(map(tuple, self.pairs.tolist()))

    @cached_property
    def incidence_set(self):
        return frozenset(self.incidence)

    @cached_property
    def lines_of_point(self):
        return _cut(self.pairs[:, 1], self.degrees)

    @cached_property
    def points_of_line(self):
        return _cut(self.pairs[self.line_order, 0], self.sizes)

    @cached_property
    def line_order(self):
        """The permutation of pairs that sorts them by (line, point)."""
        return np.argsort(self.pairs[:, 1], kind="stable")

    def neighbours(self):
        """Neighbour eids, ascending per eid, of eids 0, 1, ... in one flat
        array: each point's lines offset by n_points, then each line's points."""
        return np.concatenate([self.pairs[:, 1] + self.n_points,
                               self.pairs[self.line_order, 0]])

    # -- element ids -----------------------------------------------------

    def point_eid(self, i):
        return i

    def line_eid(self, j):
        return self.n_points + j

    @cached_property
    def adjacency(self):
        """adjacency[eid]: the tuple of neighbours(), ascending."""
        return _cut(self.neighbours(), np.concatenate([self.degrees, self.sizes]))

    @cached_property
    def _common_lines(self):
        """(edge, bad).  edge is the (points, points) int32 table of the
        edge (b, q) at [p, q], b the one line through p and q, edges
        numbered line-major, as pairs[line_order] lists them; -1 on the
        diagonal and where p and q share no line or several.  bad is the
        first pair p < q with cell -1, or None.

        Row p lists, for each line through p, that line's points.  Rows
        go in blocks of at most _COMMON_BLOCK_CELLS such entries and
        table cells, or of one row, with int32 cell indices relative to
        the block, which fills a contiguous stretch of the table with
        each line's edges, listed as ``on`` lists its points.  A bincount
        clears the diagonal and the cells not hit once.  Lines of unequal
        sizes are padded with point v, an extra column that is cut off at
        the end.  The first row with a cleared cell off the diagonal has
        every such cell right of it, as the table is symmetric, so the
        first block that clears one names bad.
        """
        v = self.n_points
        w = v + int(self.sizes.min() != self.sizes.max())
        edge = np.empty(v * w, dtype=np.int32)
        on = padded_lists(self.pairs[self.line_order, 0], self.sizes, v)
        at = padded_lists(np.arange(len(self.pairs), dtype=np.int32), self.sizes, -1)
        p, b = self.pairs.T
        first = np.concatenate(([0], np.cumsum(self.degrees)))  # each row's first pair
        reach = first[1:] * on.shape[1]  # entries in the rows up to each row
        p0, bad = 0, None
        while p0 < v:
            p1 = int(np.searchsorted(reach, first[p0] * on.shape[1] + _COMMON_BLOCK_CELLS,
                                     "right"))
            p1 = min(max(p0 + 1, p1), p0 + max(1, _COMMON_BLOCK_CELLS // w))
            rows = slice(first[p0], first[p1])
            cells = ((p[rows] - p0) * w)[:, None] + on[b[rows]]
            block = edge[p0 * w:p1 * w]
            block[cells] = at[b[rows]]
            miss = np.bincount(cells.ravel(), minlength=(p1 - p0) * w) != 1
            diagonal = np.arange(p1 - p0) * (w + 1) + p0
            miss[diagonal] = False
            block[miss] = -1
            block[diagonal] = -1
            miss = miss.reshape(-1, w)[:, :v]
            if bad is None and np.count_nonzero(miss):
                row, q = np.unravel_index(np.argmax(miss), miss.shape)
                bad = (p0 + int(row), int(q))
            p0 = p1
        return np.ascontiguousarray(edge.reshape(v, w)[:, :v]), bad

    def _lines_through(self, p, q):
        """The lines through both points p and q, ascending."""
        return tuple(sorted(set(self.lines_of_point[p]) & set(self.lines_of_point[q])))

    def edge_table(self):
        """(points, points) int32 table of the edge (b, q) at [p, q], b
        the common line of two distinct points, edges numbered line-major,
        as pairs[line_order] lists them; -1 on the diagonal (cached).

        Raises ValueError unless every two distinct points lie on exactly
        one common line.
        """
        edge, bad = self._common_lines
        if bad is not None:
            self.common_line(*bad)  # raises, naming the pair
        return edge

    def common_line(self, p, q):
        """The unique line through two distinct points; error otherwise."""
        v = self.n_points
        two = p != q and 0 <= p < v and 0 <= q < v
        e = int(self._common_lines[0][p, q]) if two else -1
        if e < 0:
            n = len(self._lines_through(p, q)) if two else 0
            raise ValueError(f"points {p},{q} lie on {n} common lines")
        return int(self.pairs[self.line_order[e], 1])

    def __repr__(self):
        return (f"IncidenceStructure({self.n_points} points, "
                f"{self.n_lines} lines, {len(self.pairs)} incidences)")


def _pair_array(incidence):
    """The pairs as an (m, 2) integer array, range unchecked.  Unless
    they are an integer array or pairs of ints already, a loop finds the
    first entry that is not a pair of integers."""
    if (isinstance(incidence, np.ndarray) and incidence.dtype.kind in "iu"
            and incidence.shape[1:] == (2,)):
        return incidence
    entries = list(incidence)
    if not (set(map(type, entries)) <= {list, tuple} and set(map(len, entries)) <= {2}
            and set(map(type, chain.from_iterable(entries))) <= {int}):
        for i, pair in enumerate(entries):
            try:
                p, b = pair
                # operator.index takes bools as 0 and 1; refuse them
                if type(p) is bool or type(b) is bool:
                    raise TypeError
                entries[i] = index(p), index(b)
            except (TypeError, ValueError):
                raise ValueError(f"an incidence is a (point, line) pair of "
                                 f"integers, not {pair!r}") from None
    try:
        flat = np.fromiter(chain.from_iterable(entries), np.int64, 2 * len(entries))
        return flat.reshape(-1, 2)
    except OverflowError:  # past int64, so out of range: keep it to name it
        return np.array(entries, dtype=object).reshape(-1, 2)


def _cut(values, lengths):
    """values cut into a tuple of consecutive tuples of the given lengths."""
    values = values.tolist()
    ends = np.cumsum(lengths).tolist()
    return tuple(tuple(values[a:b]) for a, b in zip([0] + ends[:-1], ends))


def chain_census(s, max_length):
    """All-pairs distances and shortest-chain counts up to max_length.

    Returns (dist, count) as integer matrices indexed by eid; dist is -1
    where no chain of length <= max_length exists.  Counts are computed
    as powers of the adjacency matrix: a walk of minimal length cannot
    repeat an element, so the walk count at the first nonzero power is
    exactly the shortest-chain count.  Walk counts saturate at
    cap = 2^53 // (maximum degree), so no float64 sum passes 2^53 and
    every product is exact: by induction each entry is min(true count,
    cap).  A count equal to cap stands for one at least that large.
    """
    n = s.n_elements
    p, b = s.pairs.T
    a = np.zeros((n, n))
    a[p, s.n_points + b] = a[s.n_points + b, p] = 1.0
    cap = float((1 << 53) // int(a.sum(axis=1).max()))
    dist = np.full((n, n), -1, dtype=np.int32)
    np.fill_diagonal(dist, 0)
    count = np.eye(n, dtype=np.int64)
    walks = np.eye(n)
    for k in range(1, max_length + 1):
        walks = walks @ a
        np.minimum(walks, cap, out=walks)
        newly = (dist < 0) & (walks > 0)
        dist[newly] = k
        count[newly] = walks[newly]
    return dist, count


def is_generalized_ngon(s, n):
    """Check of the two generalized n-gon axioms.

    Every pair must be at distance <= n, and every pair at distance
    k < n must have a unique shortest chain.  n = 4 runs the point-line
    check is_generalized_quadrangle, any other n the chain census.
    """
    return is_generalized_quadrangle(s) if n == 4 else census_ngon(s, n)


def census_ngon(s, n):
    """is_generalized_ngon from the dense chain census alone: the
    reference the point-line quadrangle check is tested against.  A
    failure names the first offending ordered eid pair."""
    if n < 3:
        raise ValueError("n must be at least 3")
    dist, count = chain_census(s, n)
    far = np.argwhere(dist < 0)
    if len(far):
        u, v = (int(x) for x in far[0])
        return Verdict(False, ("distance", u, v))
    dup = np.argwhere((dist < n) & (count != 1))
    if len(dup):
        u, v = (int(x) for x in dup[0])
        return Verdict(False, ("uniqueness", u, v, int(count[u, v])))
    return Verdict(True)


# Entries, one per point of a line through a point, and table cells of one
# block of rows of IncidenceStructure._common_lines: the block's int32
# entries and int64 counts stay near 1 and 2 MB.
_COMMON_BLOCK_CELLS = 1 << 18

# uint64 words of one window of point bitsets in is_generalized_quadrangle,
# about 2 MB: windows that stay in cache are also the fastest.
_GQ_BLOCK_CELLS = 1 << 18


def padded_lists(member, length, pad):
    """Row i of the table, of member's dtype, lists the next length[i]
    entries of member, padded with pad to the longest list."""
    width = int(length.max())
    table = np.full((len(length), width), pad, dtype=member.dtype)
    table[np.arange(width) < length[:, None]] = member
    return table


def is_generalized_quadrangle(s):
    """Whether the quadrangle axioms hold on the incidence (Payne & Thas,
    Finite Generalized Quadrangles, 1.1): two points share at most one
    line, and for p off a line L exactly one pair (M, x) has
    p I M I x I L, x != p.  (An isolated element would make that count
    0.)  They hold exactly when the census finds the structure connected
    with girth >= 8 and diameter <= 4.

    Let h_p(L) count the pairs (M, x) with p I M I x I L, x != p.  Row p
    passes when h_p(L) = 1 for each line L off p and h_p(M) = |M| - 1 for
    each M through p; a point x on two lines M, M' through p adds (M', x)
    to h_p(M), so the axioms hold exactly when every row passes.  Row p
    passes if and only if
    (A) sum over M through p of (S(M) - deg p) = b - deg p + sum (|M| - 1),
        S(M) the sum of the degrees of M's points: the sums of h_p and of
        its targets over all lines (_identity_holds), and
    (B) every line meets N[p], p and its collinear points (_first_unmet).
    For h_p(M) >= |M| - 1 always, and h_p(L) >= 1 for L off p meeting
    N[p]: under (B) no count is below its target, and (A) puts each on it.

    A failure names the first failing point p (_row_witness) in
    census_ngon's format, in eids: ("uniqueness", p, q, count) for the
    first point q on count > 1 common lines with p, else, for the first
    line L off p joined to p by count pairs, ("distance", p, v + L) if
    count is 0 and ("uniqueness", p, v + L, count) otherwise.
    """
    v = s.n_points
    bad = np.flatnonzero(~_identity_holds(s))
    first = _first_unmet(s, int(bad[0]) if len(bad) else v)
    if first == v:
        return Verdict(True)
    return Verdict(False, _row_witness(s, first))


def _identity_holds(s):
    """(A) of is_generalized_quadrangle at every point: a bool array."""
    pt, ln = s.pairs.T
    d = s.degrees
    # S(M) - |M| per line, exact in float64 below 2^53, and its sums
    # over each point's lines: the pairs come sorted by point, so each
    # point's lines are one run
    excess = np.bincount(ln, weights=(d - 1.0)[pt], minlength=s.n_lines).astype(np.int64)
    total = np.zeros(s.n_points, dtype=np.int64)
    on = d > 0
    total[on] = np.add.reduceat(excess[ln], (np.cumsum(d) - d)[on])
    return total == s.n_lines + d * (d - 2)


def _first_unmet(s, stop):
    """(B) of is_generalized_quadrangle: the first point p < stop with a
    line missing N[p], else stop.  Points go in windows of 64 k.  uint64
    bitsets over a window give P[M], the window's points on line M, then
    C[x], the OR of P over x's lines, then U[L], the OR of C over L's
    points; p's bit is missing from some U[L] iff (B) fails at p.  The
    words of X (one bit per window point, then C), Y (P, then U) and one
    gathered copy stay within _GQ_BLOCK_CELLS; X[v] and Y[b] stay 0.
    """
    v, b = s.n_points, s.n_lines
    # one contiguous int32 row per column: take converts it fastest
    lines = np.ascontiguousarray(padded_lists(s.pairs[:, 1], s.degrees, b).T)
    points = np.ascontiguousarray(padded_lists(s.pairs[s.line_order, 0], s.sizes, v).T)
    k = max(1, min(_GQ_BLOCK_CELLS // (v + b + max(v, b) + 2), -(-stop // 64)))
    X = np.zeros((v + 1, k), dtype=np.uint64)
    Y = np.zeros((b + 1, k), dtype=np.uint64)
    buf = np.empty((max(v, b), k), dtype=np.uint64)
    bit = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))

    def gather_or(out, src, table):
        # out[i] = OR of the rows of src that column i of table lists
        np.take(src, table[0], axis=0, out=out, mode="wrap")
        tmp = buf[:len(out)]
        for col in table[1:]:
            np.take(src, col, axis=0, out=tmp, mode="wrap")
            out |= tmp

    for w0 in range(0, stop, 64 * k):
        n = min(v - w0, 64 * k)
        X[:] = 0
        i = np.arange(n)
        X[w0 + i, i >> 6] = bit[i & 63]
        gather_or(Y[:b], X, points)
        gather_or(X[:v], Y, lines)
        gather_or(Y[:b], X, points)
        met = np.bitwise_and.reduce(Y[:b], axis=0).tolist()
        for j, word in enumerate(met):
            unmet = ~word & ((1 << min(64, max(0, n - 64 * j))) - 1)
            if unmet:
                return min(stop, w0 + 64 * j + (unmet & -unmet).bit_length() - 1)
    return stop


def _row_witness(s, p):
    """is_generalized_quadrangle's witness at a point p where it fails."""
    v, b = s.n_points, s.n_lines
    pt, ln = s.pairs.T
    mine = np.zeros(b, dtype=bool)
    mine[ln[pt == p]] = True
    common = np.bincount(pt[mine[ln]], minlength=v)  # x: p's collinear points
    common[p] = 0
    if common.max() > 1:
        q = int(np.argmax(common > 1))
        return ("uniqueness", p, q, int(common[q]))
    # Each x is on one line M through p, so the pairs (M, x) joining p
    # to L are the x on L.  A line through p meets its target |M| - 1.
    joins = np.bincount(ln[common[pt] > 0], minlength=b)
    joins[mine] = 1
    line = int(np.argmax(joins != 1))
    count = int(joins[line])
    return (("uniqueness", p, v + line, count) if count
            else ("distance", p, v + line))


# -- structural classifiers -------------------------------------------------


def is_linear_space(s):
    """Two distinct points on exactly one common line, lines of size >= 2,
    and at least one non-incident point/line pair."""
    short = np.flatnonzero(s.sizes < 2)
    if len(short):
        return Verdict(False, ("short-line", int(short[0])))
    bad = s._common_lines[1]
    if bad is not None:
        p, q = bad
        lines = s._lines_through(p, q)
        if not lines:
            return Verdict(False, ("points-on-no-common-line", p, q))
        return Verdict(False, ("points-on-multiple-lines", p, q, lines))
    if len(s.pairs) == s.n_points * s.n_lines:
        return Verdict(False, ("no-non-incident-pair",))
    return Verdict(True)


def steiner_parameters(s):
    """(v, k) when every line of a linear space has the same size, else None."""
    if s.sizes.min() != s.sizes.max():
        return None
    return s.n_points, int(s.sizes[0])


def is_ovoid(s, point_set):
    """True when every line meets the given point set exactly once."""
    pts = list(set(point_set))
    on = np.isin(s.pairs[:, 0], pts)
    return bool(pts) and bool((np.bincount(s.pairs[on, 1], minlength=s.n_lines) == 1).all())


def quadrangle_order(s):
    """(s, t) from degree counts: lines of size s+1, points on t+1 lines.

    Raises when degrees are not constant.
    """
    if s.sizes.min() != s.sizes.max() or s.degrees.min() != s.degrees.max():
        raise ValueError("degrees are not constant")
    return int(s.sizes[0]) - 1, int(s.degrees[0]) - 1


# -- isomorphisms ------------------------------------------------------------


@dataclass(frozen=True)
class Isomorphism:
    """A pair of index bijections: point_map[i] and line_map[j] are images."""

    point_map: tuple
    line_map: tuple


def verify_isomorphism(s1, s2, iso):
    """Exact check of the defining property: p I b iff images incident."""
    if (s1.n_points != s2.n_points or s1.n_lines != s2.n_lines
            or len(iso.point_map) != s1.n_points
            or len(iso.line_map) != s1.n_lines):
        return False
    if (sorted(iso.point_map) != list(range(s2.n_points))
            or sorted(iso.line_map) != list(range(s2.n_lines))):
        return False
    # Keys point * b + line: the images of s1's distinct pairs, sorted,
    # equal s2's, which its sorted pairs list in order.
    nb = s2.n_lines
    point_map = np.array(iso.point_map, dtype=np.int64)
    line_map = np.array(iso.line_map, dtype=np.int64)
    mapped = np.sort(point_map[s1.pairs[:, 0]] * nb + line_map[s1.pairs[:, 1]])
    return np.array_equal(mapped, s2.pairs[:, 0].astype(np.int64) * nb + s2.pairs[:, 1])


# -- JSON interchange --------------------------------------------------------


def structure_to_json(s, tags=None):
    """The structure file's document, its 'incidence' the read-only pairs
    array: write it with storage.json_text, not a bare json.dumps."""
    doc = {
        "points": list(s.point_labels),
        "lines": list(s.line_labels),
        "incidence": s.pairs,
    }
    if tags is not None:
        doc["tags"] = tags
    return doc


def structure_from_json(doc):
    """Returns (structure, tags-or-None); ValueError on a malformed doc."""
    if not isinstance(doc, dict) or not all(
            isinstance(doc.get(k), (list, np.ndarray) if k == "incidence" else list)
            for k in ("points", "lines", "incidence")):
        raise ValueError("a structure is an object with 'points' and 'lines' "
                         "lists and an 'incidence' list or array")
    s = IncidenceStructure(doc["points"], doc["lines"], doc["incidence"])
    tags = doc.get("tags")
    if tags is not None and not (isinstance(tags, dict) and all(
            isinstance(tags.get(k), list) and len(tags[k]) == n
            and set(map(type, tags[k])) == {list} and all(tags[k])
            for k, n in (("points", s.n_points), ("lines", s.n_lines)))):
        raise ValueError("tags need one nonempty list per point and per line")
    return s, tags
