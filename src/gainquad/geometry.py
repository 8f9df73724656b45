"""Incidence structures, chains, distances, and the structural verifiers.

A structure owns two disjoint index spaces: points 0..v-1 and lines
0..b-1.  For graph-flavored operations every element also has a vertex
id ("eid"): point i is eid i, line j is eid v + j.  Structures are
immutable after construction, so derived tables are cached freely and
everything here is safe to share across threads.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .storage import is_int


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
    """Points, lines, and a symmetric incidence relation between them."""

    def __init__(self, point_labels, line_labels, incidence):
        point_labels = tuple(point_labels)
        line_labels = tuple(line_labels)
        if not point_labels or not line_labels:
            raise ValueError("point and line sets must be nonempty")
        pairs = sorted(set((int(p), int(b)) for p, b in incidence))
        if not pairs:
            raise ValueError("incidence relation must be nonempty")
        v, nb = len(point_labels), len(line_labels)
        for p, b in pairs:
            if not (0 <= p < v and 0 <= b < nb):
                raise ValueError(f"incidence pair ({p},{b}) out of range")
        self.point_labels = point_labels
        self.line_labels = line_labels
        self.incidence = tuple(pairs)
        self.incidence_set = frozenset(pairs)
        self.n_points = v
        self.n_lines = nb
        self.n_elements = v + nb
        lines_of = [[] for _ in range(v)]
        points_of = [[] for _ in range(nb)]
        for p, b in pairs:
            lines_of[p].append(b)
            points_of[b].append(p)
        self.lines_of_point = tuple(tuple(x) for x in lines_of)
        self.points_of_line = tuple(tuple(x) for x in points_of)
        self._adjacency = None
        self._edge_ids = None
        self._common = None

    # -- element ids -----------------------------------------------------

    def point_eid(self, i):
        return i

    def line_eid(self, j):
        return self.n_points + j

    def is_point_eid(self, e):
        return 0 <= e < self.n_points

    def eid_index(self, e):
        """(kind, index) for an eid, kind in {"point", "line"}."""
        if not 0 <= e < self.n_elements:
            raise ValueError(f"unknown element id {e}")
        if e < self.n_points:
            return "point", e
        return "line", e - self.n_points

    def neighbors(self, e):
        kind, i = self.eid_index(e)
        if kind == "point":
            return tuple(self.line_eid(b) for b in self.lines_of_point[i])
        return tuple(self.points_of_line[i])

    def adjacency(self):
        """adjacency[eid] -> tuple of neighbor eids, ascending."""
        if self._adjacency is None:
            self._adjacency = tuple(self.neighbors(e)
                                    for e in range(self.n_elements))
        return self._adjacency

    def edge_ids(self):
        """(lines, points) int32 table: the index of edge (b, p) among all
        edges in sorted (line, point) order, -1 where p is off b (cached)."""
        if self._edge_ids is None:
            inc = np.zeros((self.n_lines, self.n_points), dtype=bool)
            p, b = np.array(self.incidence).T
            inc[b, p] = True
            table = np.full(inc.shape, -1, dtype=np.int32)
            table[inc] = np.arange(len(self.incidence), dtype=np.int32)
            self._edge_ids = table
        return self._edge_ids

    def _common_lines(self):
        """(line, count, bad), cached.  line and count are (points, points)
        int32 tables of the line through two distinct points (-1 on the
        diagonal; meaningful where count is 1) and of their number of
        common lines (0 on the diagonal).  bad is the first pair p < q
        whose count is not 1, or None."""
        if self._common is None:
            v = self.n_points
            line = np.full((v, v), -1, dtype=np.int32)
            count = np.zeros((v, v), dtype=np.int32)
            for b, pts in enumerate(self.points_of_line):
                cell = np.ix_(pts, pts)
                line[cell] = b
                count[cell] += 1
            np.fill_diagonal(line, -1)
            np.fill_diagonal(count, 0)
            bad = np.argwhere(np.triu(count != 1, 1))
            self._common = (line, count,
                           tuple(int(x) for x in bad[0]) if len(bad) else None)
        return self._common

    def line_table(self):
        """(points, points) int32 table of the common line of two distinct
        points, -1 on the diagonal (cached).

        Raises ValueError unless every two distinct points lie on exactly
        one common line.
        """
        line, count, bad = self._common_lines()
        if bad is not None:
            p, q = bad
            raise ValueError(f"points {p},{q} lie on {count[p, q]} common lines")
        return line

    def common_line(self, p, q):
        """The unique line through two distinct points; error otherwise."""
        line, count, _ = self._common_lines()
        v = self.n_points
        n = int(count[p, q]) if 0 <= p < v and 0 <= q < v else 0
        if n != 1:
            raise ValueError(f"points {p},{q} lie on {n} common lines")
        return int(line[p, q])

    def __repr__(self):
        return (f"IncidenceStructure({self.n_points} points, "
                f"{self.n_lines} lines, {len(self.incidence)} incidences)")


# -- chains and distances --------------------------------------------------


def is_chain(s, seq):
    """True when consecutive entries are incident (so types alternate)."""
    if len(seq) == 0:
        return False
    for e in seq:
        s.eid_index(e)
    adj = s.adjacency()
    return all(seq[i] in adj[seq[i - 1]] for i in range(1, len(seq)))


def distance(s, u, v):
    """Length of a shortest chain from u to v; math.inf when disconnected."""
    s.eid_index(u)
    s.eid_index(v)
    if u == v:
        return 0
    adj = s.adjacency()
    dist = {u: 0}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                if y == v:
                    return dist[y]
                queue.append(y)
    return math.inf


def count_shortest_chains(s, u, v):
    """Number of chains of length d(u,v) from u to v.

    Shortest chains never repeat an element, so counting paths over the
    breadth-first layering is exact.
    """
    s.eid_index(u)
    s.eid_index(v)
    if u == v:
        return 1
    adj = s.adjacency()
    dist = {u: 0}
    ways = {u: 1}
    queue = deque([u])
    while queue:
        x = queue.popleft()
        if x == v:
            return ways[v]
        for y in adj[x]:
            if y not in dist:
                dist[y] = dist[x] + 1
                ways[y] = ways[x]
                queue.append(y)
            elif dist[y] == dist[x] + 1:
                ways[y] += ways[x]
    raise ValueError(f"elements {u} and {v} are disconnected")


_EXACT_LIMIT = float(1 << 53)


def chain_census(s, max_length):
    """All-pairs distances and shortest-chain counts up to max_length.

    Returns (dist, count) as integer matrices indexed by eid; dist is -1
    where no chain of length <= max_length exists.  Counts are computed
    as powers of the adjacency matrix: a walk of minimal length cannot
    repeat an element, so the walk count at the first nonzero power is
    exactly the shortest-chain count.  float64 matmul stays exact here;
    if entries could approach 2^53 the census falls back to python ints.
    """
    n = s.n_elements
    p, b = np.array(s.incidence).T
    a = np.zeros((n, n))
    a[p, s.n_points + b] = a[s.n_points + b, p] = 1.0
    dist = np.full((n, n), -1, dtype=np.int32)
    count = np.zeros((n, n), dtype=np.int64)
    np.fill_diagonal(dist, 0)
    np.fill_diagonal(count, 1)
    walks = np.eye(n)
    exact = None
    max_deg = max(int(x) for x in a.sum(axis=1))
    for k in range(1, max_length + 1):
        if exact is None and float(walks.max()) * max_deg >= _EXACT_LIMIT:
            exact = np.vectorize(int, otypes=[object])(walks)
            a_exact = np.vectorize(int, otypes=[object])(a)
        if exact is None:
            walks = walks @ a
            newly = (dist < 0) & (walks > 0)
            count[newly] = walks[newly].astype(np.int64)
        else:
            exact = exact @ a_exact
            newly = (dist < 0) & (exact > 0)
            # Counts this large only ever matter as "not equal to 1".
            cap = 1 << 62
            count[newly] = [min(x, cap) for x in exact[newly]]
        dist[newly] = k
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


# Matrix cells held by one block of point rows in is_generalized_quadrangle.
_GQ_BLOCK_CELLS = 1 << 22


def is_generalized_quadrangle(s):
    """Whether the quadrangle axioms hold on the incidence (Payne & Thas,
    Finite Generalized Quadrangles, 1.1): two points share at most one
    line, and for p off a line L exactly one pair (M, x) has
    p I M I x I L, x != p.  (An isolated element would make that count
    0.)  They hold exactly when the census finds the structure connected
    with girth >= 8 and diameter <= 4.  With N the incidence matrix,
    N N^T counts common lines and, diagonal zeroed, times N counts the
    pairs (M, x), in blocks of point rows: O(block * (v + b)) memory
    beyond N.  A failure names its witness as census_ngon would, in eids:
    ("uniqueness", p, q, count) for points on count > 1 common lines, and
    for p off L joined by count pairs, ("distance", p, v + L) if count is
    0, else ("uniqueness", p, v + L, count).
    """
    v, b = s.n_points, s.n_lines
    # Every count is at most max(v, b): exact in float32 below 2^24.
    n = np.zeros((v, b), dtype=np.float32 if max(v, b) < 1 << 24 else np.float64)
    n[tuple(np.array(s.incidence).T)] = 1
    step = max(1, _GQ_BLOCK_CELLS // (v + b))
    for lo in range(0, v, step):
        rows = n[lo:lo + step]
        common = rows @ n.T
        common[np.arange(len(rows)), np.arange(lo, lo + len(rows))] = 0
        if common.max() > 1:
            i, q = np.argwhere(common > 1)[0]
            return Verdict(False, ("uniqueness", lo + int(i), int(q), int(common[i, q])))
        joins = common @ n
        if (joins[rows == 0] != 1).any():
            i, line = np.argwhere((joins != 1) & (rows == 0))[0]
            p, count = lo + int(i), int(joins[i, line])
            return Verdict(False, ("uniqueness", p, v + int(line), count) if count
                           else ("distance", p, v + int(line)))
    return Verdict(True)


# -- structural classifiers -------------------------------------------------


def is_linear_space(s):
    """Two distinct points on exactly one common line, lines of size >= 2,
    and at least one non-incident point/line pair."""
    for b, pts in enumerate(s.points_of_line):
        if len(pts) < 2:
            return Verdict(False, ("short-line", b))
    _, count, bad = s._common_lines()
    if bad is not None:
        p, q = bad
        if count[p, q] == 0:
            return Verdict(False, ("points-on-no-common-line", p, q))
        lines = tuple(sorted(set(s.lines_of_point[p]) & set(s.lines_of_point[q])))
        return Verdict(False, ("points-on-multiple-lines", p, q, lines))
    if len(s.incidence) == s.n_points * s.n_lines:
        return Verdict(False, ("no-non-incident-pair",))
    return Verdict(True)


def steiner_parameters(s):
    """(v, k) when every line of a linear space has the same size, else None."""
    sizes = {len(pts) for pts in s.points_of_line}
    if len(sizes) != 1:
        return None
    return s.n_points, sizes.pop()


def firmness(s):
    """Classify by minimum incidence degree: not-firm / firm / thick."""
    m = min(min(len(x) for x in s.lines_of_point),
            min(len(x) for x in s.points_of_line))
    if m >= 3:
        return "thick"
    if m >= 2:
        return "firm"
    return "not-firm"


def is_ovoid(s, point_set):
    """True when every line meets the given point set exactly once."""
    pts = set(point_set)
    if not pts:
        return False
    return all(sum(1 for p in line_pts if p in pts) == 1
               for line_pts in s.points_of_line)


def quadrangle_order(s):
    """(s, t) from degree counts: lines of size s+1, points on t+1 lines.

    Raises when degrees are not constant.
    """
    line_sizes = {len(x) for x in s.points_of_line}
    point_degs = {len(x) for x in s.lines_of_point}
    if len(line_sizes) != 1 or len(point_degs) != 1:
        raise ValueError("degrees are not constant")
    return line_sizes.pop() - 1, point_degs.pop() - 1


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
    mapped = {(iso.point_map[p], iso.line_map[b]) for p, b in s1.incidence}
    return mapped == s2.incidence_set


def compose_isomorphisms(second, first):
    """Apply first, then second."""
    return Isomorphism(
        tuple(second.point_map[i] for i in first.point_map),
        tuple(second.line_map[j] for j in first.line_map))


def invert_isomorphism(iso):
    pm = [0] * len(iso.point_map)
    lm = [0] * len(iso.line_map)
    for i, j in enumerate(iso.point_map):
        pm[j] = i
    for i, j in enumerate(iso.line_map):
        lm[j] = i
    return Isomorphism(tuple(pm), tuple(lm))


# -- JSON interchange --------------------------------------------------------


def structure_to_json(s, tags=None):
    doc = {
        "points": list(s.point_labels),
        "lines": list(s.line_labels),
        "incidence": [list(pair) for pair in s.incidence],
    }
    if tags is not None:
        doc["tags"] = tags
    return doc


def structure_from_json(doc):
    """Returns (structure, tags-or-None); ValueError on a malformed doc."""
    if not isinstance(doc, dict) or not all(
            isinstance(doc.get(k), list) for k in ("points", "lines", "incidence")):
        raise ValueError("a structure is an object with 'points', 'lines' "
                         "and 'incidence' lists")
    for pair in doc["incidence"]:
        if not (isinstance(pair, list) and len(pair) == 2
                and all(is_int(x) for x in pair)):
            raise ValueError(f"an incidence is a [point, line] pair of "
                             f"integers, not {pair!r}")
    s = IncidenceStructure(doc["points"], doc["lines"], doc["incidence"])
    tags = doc.get("tags")
    if tags is not None and not (isinstance(tags, dict) and all(
            isinstance(tags.get(k), list) and len(tags[k]) == n
            and all(isinstance(t, list) and t for t in tags[k])
            for k, n in (("points", s.n_points), ("lines", s.n_lines)))):
        raise ValueError("tags need one nonempty list per point and per line")
    return s, tags
