"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: chain
counting enumerates sequences directly or walks one breadth-first layer
at a time, isomorphism testing tries point permutations, color
refinement ranks its rows with one np.unique per round, the node
invariant counts edge codes with one np.unique, orbits are
walked one vertex at a time and stabiliser orbits one vertex tuple at a
time, field arithmetic is redone with schoolbook
polynomial division, detour gains are walked one step at a time, the
quadrangle criterion is swept label by label, and the quadrangle check
runs every block of point rows in turn, counting common lines and joins
separately.  Exact rationals carry the
closed-form detour values over an infinite field.
"""

import hashlib
import math
import operator
from fractions import Fraction
from itertools import combinations, permutations, product

import numpy as np

from gainquad.construction import detour_gains, expand
from gainquad.gains import _tree_walk, switch
from gainquad.geometry import (IncidenceStructure, Isomorphism, Verdict, padded_lists,
                               verify_isomorphism)


def quadrilateral():
    """The thin quadrangle: four points and four lines in a cycle."""
    pairs = [(i, i) for i in range(4)] + [((i + 1) % 4, i) for i in range(4)]
    return IncidenceStructure(list("PQRS"), list("abcd"), pairs)


def grid_quadrangle(n):
    """The n x n grid: points are cells, lines are rows and columns."""
    points = [f"({i},{j})" for i in range(n) for j in range(n)]
    lines = [f"row{i}" for i in range(n)] + [f"col{j}" for j in range(n)]
    pairs = []
    for i in range(n):
        for j in range(n):
            pairs.append((i * n + j, i))
            pairs.append((i * n + j, n + j))
    return IncidenceStructure(points, lines, pairs)


def swapped_lines(s, i, j):
    """s with the lines of its pairs i and j swapped."""
    pairs = s.pairs.copy()
    pairs[[i, j], 1] = pairs[[j, i], 1]
    return IncidenceStructure(s.point_labels, s.line_labels, pairs)


def tiny_base():
    """One line carrying two points: the smallest valid structure."""
    return IncidenceStructure(["p", "p'"], ["b"], [(0, 0), (1, 0)])


def relabeled(s, rng):
    """A randomly relabeled copy of s, plus the permutations used."""
    pp = list(range(s.n_points))
    ll = list(range(s.n_lines))
    rng.shuffle(pp)
    rng.shuffle(ll)
    inv_p = [0] * len(pp)
    for i, j in enumerate(pp):
        inv_p[j] = i
    inv_l = [0] * len(ll)
    for i, j in enumerate(ll):
        inv_l[j] = i
    copy = IncidenceStructure(
        [s.point_labels[j] for j in pp],
        [s.line_labels[j] for j in ll],
        [(inv_p[p], inv_l[b]) for p, b in s.incidence])
    return copy, pp, ll


def random_structure(rng, max_points=6, max_lines=6):
    """A small random structure with at least one incidence."""
    while True:
        v = rng.randint(1, max_points)
        nb = rng.randint(1, max_lines)
        pairs = [(p, b) for p in range(v) for b in range(nb)
                 if rng.random() < 0.4]
        if pairs:
            return IncidenceStructure(list(range(v)), list(range(nb)), pairs)


# -- constructor oracle ------------------------------------------------------


def naive_incidence(n_points, n_lines, incidence):
    """sorted(set(pairs)) with the per-entry checks IncidenceStructure
    makes, one pair at a time: (incidence, lines_of_point,
    points_of_line), or the ValueError it raises."""
    pairs = set()
    for pair in incidence:
        try:
            p, b = pair
            if type(p) is bool or type(b) is bool:
                raise TypeError
            pairs.add((operator.index(p), operator.index(b)))
        except (TypeError, ValueError):
            raise ValueError(f"an incidence is a (point, line) pair of "
                             f"integers, not {pair!r}") from None
    pairs = sorted(pairs)
    if not pairs:
        raise ValueError("incidence relation must be nonempty")
    for p, b in pairs:
        if not (0 <= p < n_points and 0 <= b < n_lines):
            raise ValueError(f"incidence pair ({p},{b}) out of range")
    lines_of = tuple(tuple(b for q, b in pairs if q == p) for p in range(n_points))
    points_of = tuple(tuple(p for p, c in pairs if c == b) for b in range(n_lines))
    return tuple(pairs), lines_of, points_of


# -- linear-space oracle -----------------------------------------------------


def naive_linear_space(s):
    """(ok, witness) of the linear-space axioms by a loop over point pairs,
    in the order and with the witnesses that is_linear_space reports."""
    for b, pts in enumerate(s.points_of_line):
        if len(pts) < 2:
            return False, ("short-line", b)
    for p in range(s.n_points):
        for q in range(p + 1, s.n_points):
            lines = tuple(b for b, pts in enumerate(s.points_of_line)
                          if p in pts and q in pts)
            if not lines:
                return False, ("points-on-no-common-line", p, q)
            if len(lines) > 1:
                return False, ("points-on-multiple-lines", p, q, lines)
    if all((p, b) in s.incidence_set
           for p in range(s.n_points) for b in range(s.n_lines)):
        return False, ("no-non-incident-pair",)
    return True, None


def edge_id_table(s):
    """(lines, points) int32 table, by a loop over the lines: the index of
    edge (b, p) among all edges in sorted (line, point) order, -1 where p
    is off b."""
    table = np.full((s.n_lines, s.n_points), -1, dtype=np.int32)
    e = 0
    for b, pts in enumerate(s.points_of_line):
        for p in pts:
            table[b, p] = e
            e += 1
    return table


def naive_common_lines(s):
    """IncidenceStructure._common_lines by one table assignment per line:
    cell [p, q] holds edge_id_table(s)[b, q] for the last line b through
    p and q, then -1 wherever p and q share other than one line, and on
    the diagonal."""
    v = s.n_points
    edge = np.full((v, v), -1, dtype=np.int32)
    count = np.zeros((v, v), dtype=np.int32)
    ids = edge_id_table(s)
    for b, pts in enumerate(s.points_of_line):
        edge[np.ix_(pts, pts)] = ids[b, list(pts)]
        count[np.ix_(pts, pts)] += 1
    np.fill_diagonal(count, 0)
    edge[count != 1] = -1
    bad = np.argwhere(np.triu(count != 1, 1))
    return edge, tuple(int(x) for x in bad[0]) if len(bad) else None


def naive_padded_lists(member, length, pad):
    """geometry.padded_lists by one row at a time."""
    width = max(length, default=0)
    rows, start = [], 0
    for n in length:
        rows.append(list(member[start:start + n]) + [pad] * (width - n))
        start += n
    return np.array(rows, dtype=member.dtype).reshape(len(length), width)


# -- expansion oracle ------------------------------------------------------------


def reference_expansion(gains):
    """(point labels, line labels, sorted incidence) of the expansion by
    one action per edge and label, as the construction once ran."""
    base, group = gains.base, gains.group
    lambdas = tuple(group.lambdas())
    k = len(lambdas)
    lam_pos = {lam: t for t, lam in enumerate(lambdas)}
    v = base.n_points
    points = [f"x:{base.point_labels[p]}" for p in range(v)]
    points += [f"y:{base.line_labels[b]};{group.render(lam)}"
               for b in range(base.n_lines) for lam in lambdas]
    lines = [f"z:{base.point_labels[p]};{group.render(lam)}"
             for p in range(v) for lam in lambdas]
    pairs = [(p, p * k + t) for p in range(v) for t in range(k)]
    for (b, p), phi in gains.gains.items():
        for t in range(k):
            mu = group.act(phi, lambdas[t])
            pairs.append((v + b * k + t, p * k + lam_pos[mu]))
    return tuple(points), tuple(lines), tuple(sorted(pairs))


# -- chain oracle -------------------------------------------------------------


def eid_index(s, e):
    """(kind, index) for an eid of s, kind in {"point", "line"}."""
    if not 0 <= e < s.n_elements:
        raise ValueError(f"unknown element id {e}")
    if e < s.n_points:
        return "point", e
    return "line", e - s.n_points


def is_chain(s, seq):
    """True when consecutive entries are incident (so types alternate)."""
    if len(seq) == 0:
        return False
    for e in seq:
        eid_index(s, e)
    adj = s.adjacency
    return all(seq[i] in adj[seq[i - 1]] for i in range(1, len(seq)))


def _layered_walk(s, u, v):
    """(d(u, v), number of chains of that length), or (math.inf, 0) when
    u and v are disconnected.

    A breadth-first walk one layer at a time that sums into each newly
    reached element the ways of its neighbours in the layer before.
    Shortest chains never repeat an element, so the sum is exact.
    """
    eid_index(s, u)
    eid_index(s, v)
    adj = s.adjacency
    seen = {u}
    layer = {u: 1}
    d = 0
    while layer:
        if v in layer:
            return d, layer[v]
        nxt = {}
        for x, ways in layer.items():
            for y in adj[x]:
                if y not in seen:
                    nxt[y] = nxt.get(y, 0) + ways
        seen.update(nxt)
        layer = nxt
        d += 1
    return math.inf, 0


def distance(s, u, v):
    """Length of a shortest chain from u to v; math.inf when disconnected."""
    return _layered_walk(s, u, v)[0]


def count_shortest_chains(s, u, v):
    """Number of chains of length d(u,v) from u to v; ValueError when
    u and v are disconnected."""
    ways = _layered_walk(s, u, v)[1]
    if not ways:
        raise ValueError(f"elements {u} and {v} are disconnected")
    return ways


def assert_quadrangle_witness(s, witness):
    """Confirm a failing quadrangle witness with the breadth-first
    distance and chain count: a "distance" pair is more than 4 apart, and
    a "uniqueness" pair is under 4 apart with count shortest chains,
    count != 1."""
    kind, u, w, *count = witness
    if kind == "distance":
        assert distance(s, u, w) > 4, witness
    else:
        assert kind == "uniqueness" and distance(s, u, w) < 4, witness
        assert count_shortest_chains(s, u, w) == count[0] != 1, witness


def two_count_quadrangle_block(lines, points, sizes, lo, hi):
    """A witness of the quadrangle axioms failing at a point row in
    [lo, hi), or None, by two bincounts over the block: the first (p, x)
    on several common lines, else the first (p, L) that other than one
    pair (M, x) joins."""
    v, b = len(lines), len(points)
    n = hi - lo
    mine = lines[lo:hi]
    own, col = np.nonzero(mine < b)
    via = mine[own, col]
    x = np.take(points, via, axis=0)
    keep = (x < v) & (x != lo + own[:, None])
    row, x = np.repeat(own, np.count_nonzero(keep, axis=1)), x[keep]
    common = np.bincount(row * v + x, minlength=n * v).reshape(n, v)
    if common.max() > 1:
        i, q = (int(y) for y in np.argwhere(common > 1)[0])
        return ("uniqueness", lo + i, q, int(common[i, q]))
    keys = (row * (b + 1))[:, None] + np.take(lines, x, axis=0)
    joins = np.bincount(keys.ravel(), minlength=n * (b + 1)).reshape(n, b + 1)[:, :b]
    joins[own, via] = 1
    if (joins != 1).any():
        i, line = (int(y) for y in np.argwhere(joins != 1)[0])
        count = int(joins[i, line])
        return (("uniqueness", lo + i, v + line, count) if count
                else ("distance", lo + i, v + line))
    return None


def block_loop_quadrangle(s, block_cells):
    """geometry.is_generalized_quadrangle by every block of point rows in
    turn, with blocks of at most block_cells entries: the verdict, with
    the witness of the first block that fails.  At block_cells = 1 every
    row is a block of its own, and the check must return the same."""
    v, b = s.n_points, s.n_lines
    pt, ln = s.pairs.T
    lines = padded_lists(ln.astype(np.intp), s.degrees, b)
    points = padded_lists(pt[s.line_order].astype(np.intp), s.sizes, v)
    pairs = np.bincount(pt, weights=s.sizes[ln], minlength=v).astype(np.int64) - s.degrees
    ends = np.cumsum(s.degrees * points.shape[1] + pairs * lines.shape[1] + v + b + 1)
    lo = 0
    while lo < v:
        cap = (ends[lo - 1] if lo else 0) + block_cells
        hi = max(lo + 1, int(np.searchsorted(ends, cap, side="right")))
        witness = two_count_quadrangle_block(lines, points, s.sizes, lo, hi)
        if witness:
            return Verdict(False, witness)
        lo = hi
    return Verdict(True)


def enumerate_chains(s, u, v, k):
    """Count sequences (u, ..., v) of length k with consecutive incidences.

    Walks may backtrack; at the shortest length they never do, which is
    why this agrees with the breadth-first counter.
    """
    if k == 0:
        return 1 if u == v else 0
    adj = s.adjacency
    total = 0
    stack = [(u, 0)]
    while stack:
        x, steps = stack.pop()
        if steps == k:
            continue
        for y in adj[x]:
            if steps + 1 == k:
                if y == v:
                    total += 1
            else:
                stack.append((y, steps + 1))
    return total


def naive_shortest_count(s, u, v, max_k=12):
    """(distance, count) by direct enumeration; (None, 0) if none found."""
    for k in range(max_k + 1):
        c = enumerate_chains(s, u, v, k)
        if c:
            return k, c
    return None, 0


# -- gain oracles ----------------------------------------------------------------


def step_gain(g, u, v):
    """Gain of traversing the edge from eid u to eid v of a gain graph:
    the stored gain from line to point, its inverse from point to line."""
    ku, iu = eid_index(g.base, u)
    kv, iv = eid_index(g.base, v)
    if ku == "line" and kv == "point":
        key = (iu, iv)
        if key not in g.gains:
            raise ValueError(f"no edge between eids {u} and {v}")
        return g.gains[key]
    if ku == "point" and kv == "line":
        key = (iv, iu)
        if key not in g.gains:
            raise ValueError(f"no edge between eids {u} and {v}")
        return g.group.inverse(g.gains[key])
    raise ValueError(f"eids {u} and {v} are not adjacent element types")


def walk_gain(g, walk):
    """Gain of a walk given as a sequence of eids.

    The result is gain(e_k)^(d_k) ... gain(e_1)^(d_1), with d = +1 on
    line -> point steps and -1 otherwise, so that walk gains compose
    with a left action.  A single-vertex walk has the identity gain.
    """
    if len(walk) == 0:
        raise ValueError("malformed walk: empty sequence")
    eid_index(g.base, walk[0])
    total = g.group.identity()
    for i in range(1, len(walk)):
        total = g.group.compose(step_gain(g, walk[i - 1], walk[i]), total)
    return total


def spanning_tree_gauge(g):
    """Switch so that every spanning-tree edge carries the identity gain,
    one tree edge at a time: the scalar reference for
    spanning_tree_gauge_codes.

    Returns (switched gain graph, switching function used).  The output
    is switching-equivalent to the input by construction.
    """
    base, group = g.base, g.group
    f = {base.line_eid(0): group.identity()}
    for u, v, b, p in _tree_walk(base):
        # new gain f(p) phi f(b)^-1 = id  =>  f(p) = f(b) phi^-1, f(b) = f(p) phi
        phi = g.gain(b, p)
        f[v] = group.compose(f[u], group.inverse(phi) if v == p else phi)
    return switch(g, f), f


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
    if lam0 not in c.lambda_index:
        raise ValueError("unknown label")

    def lifted_eid(u, lam):
        kind, i = eid_index(base, u)
        if kind == "line":
            return c.point_eid(c.y_point(i, c.lambda_index[lam]))
        return c.line_eid(c.z_line(i, c.lambda_index[lam]))

    lam = lam0
    out = [lifted_eid(chain[0], lam)]
    for i in range(1, len(chain)):
        lam = group.act(step_gain(gains, chain[i - 1], chain[i]), lam)
        out.append(lifted_eid(chain[i], lam))
    return out


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


def pair_depths(base, order, free_edges):
    """Each non-incident pair's depth, line-major, from its definition:
    the largest position (counted from 1) in free_edges among the 3k
    edges (b, q), (b', q) and (b', p) its detour table reads, b' the line
    through p and q, where an edge that is not free counts 0; and 0 for a
    pair on a line of other than order points."""
    position = {tuple(e): i + 1 for i, e in enumerate(free_edges)}
    out = []
    for b in range(base.n_lines):
        line = base.points_of_line[b]
        for p in range(base.n_points):
            if (p, b) in base.incidence_set:
                continue
            reads = [0]
            if len(line) == order:
                for q in line:
                    b2 = base.common_line(p, q)
                    reads += [position.get(e, 0) for e in ((b, q), (b2, q), (b2, p))]
            out.append(max(reads))
    return out


# -- closed forms over any field -------------------------------------------------


class Rationals:
    """Exact rational arithmetic, the one infinite field the tests use;
    elements are ``fractions.Fraction`` instances, always in lowest terms
    with positive denominator."""

    finite = False
    order = None

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def element(self, x, den=None):
        if den is not None:
            return Fraction(x, den)
        return Fraction(x)

    def elements(self):
        raise ValueError("the rationals cannot be enumerated")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a


def detour_formula(field, line_key, p, q):
    """Closed form of the detour gain from a line to an off-line point p,
    detouring through the on-line point q, under the shipped affine-plane
    gains.

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


# -- isomorphism oracle --------------------------------------------------------


def brute_force_isomorphic(s1, s2):
    """Permutation search over point bijections; lines matched by point sets.

    Only sensible for structures with at most ~8 points.
    """
    if s1.n_points != s2.n_points or s1.n_lines != s2.n_lines:
        return False
    if len(s1.incidence) != len(s2.incidence):
        return False
    sets2 = sorted(tuple(sorted(pts)) for pts in s2.points_of_line)
    for perm in permutations(range(s2.n_points)):
        mapped = sorted(tuple(sorted(perm[p] for p in pts))
                        for pts in s1.points_of_line)
        if mapped == sets2:
            return True
    return False


def is_automorphism(s, perm):
    """Whether perm, a permutation of s's element ids (points first, so
    entry e is the image of element e), is an automorphism of s, by the
    library's exact isomorphism check."""
    v = s.n_points
    return verify_isomorphism(s, s, Isomorphism(tuple(perm[:v].tolist()),
                                                tuple((perm[v:] - v).tolist())))


def reference_refine(s, colors, trace=None):
    """Color refinement of s's incidence graph from colors, one int per
    element id (points first), the slow way: each round ranks the rows
    (own color, sorted neighbor colors padded with the color count) with
    one np.unique(axis=0), until a round leaves the color count as it
    was, with no early exit at a discrete partition.  Returns the colors
    and the number of rounds run; trace, when given, is a list that
    receives the colors entering each round."""
    v, n = s.n_points, s.n_elements
    rows = [[] for _ in range(n)]
    for p, b in s.incidence:
        rows[p].append(v + b)
        rows[v + b].append(p)
    width = max(map(len, rows))
    colors, rounds = np.asarray(colors, dtype=np.int64), 0
    while True:
        rounds += 1
        if trace is not None:
            trace.append(colors)
        count, c = int(colors.max()) + 1, colors.tolist()
        sig = [[c[e]] + sorted(c[x] for x in row) + [count] * (width - len(row))
               for e, row in enumerate(rows)]
        _, new = np.unique(np.array(sig), axis=0, return_inverse=True)
        new = new.reshape(-1)
        if int(new.max()) + 1 == count:
            return new, rounds
        colors = new


def reference_invariant(s, colors):
    """The search's node invariant the slow way: a sha256 of the color
    count, the cell sizes, and the distinct (color, neighbor color) codes
    of the incidence graph's directed edges with their counts, from one
    np.unique over edges listed pair by pair."""
    colors = np.asarray(colors, dtype=np.int64)
    ncolors, v = int(colors.max()) + 1, s.n_points
    ends = np.array([(p, v + b) for p, b in s.incidence], dtype=np.int64)
    tails, heads = np.concatenate([ends, ends[:, ::-1]]).T
    codes = colors[tails] * (ncolors + 1) + colors[heads]
    uniq, counts = np.unique(codes, return_counts=True)
    h = hashlib.sha256(ncolors.to_bytes(8, "big"))
    for part in (np.bincount(colors, minlength=ncolors), uniq, counts):
        h.update(part.astype(np.int64).tobytes())
    return h.digest()


def orbit_hits(v, explored, gens):
    """True when v lies in the orbit of an explored vertex under the group
    the permutations gens generate, found by walking generator images out
    from v one vertex at a time."""
    if not len(gens):
        return False
    orbit = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = int(g[x])
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return any(w in orbit for w in explored)


def tuple_orbit(gens, start):
    """The orbit of the vertex tuple start under the group the
    permutations gens generate, as a set of tuples, found breadth first:
    every tuple reached is mapped by every generator until nothing new
    turns up."""
    gens = np.asarray(gens)
    seen = {tuple(start)}
    frontier = np.array([start], dtype=np.int64)
    while len(frontier) and len(gens):
        images = gens[:, frontier].reshape(-1, frontier.shape[1])
        new = {t for t in map(tuple, images.tolist()) if t not in seen}
        seen |= new
        frontier = np.array(sorted(new), dtype=np.int64).reshape(-1, frontier.shape[1])
    return seen


def stabiliser_orbit_hits(v, explored, fixed, gens, orbits=None):
    """True when some element of the group the permutations gens generate
    fixes every vertex of the tuple fixed and maps an explored vertex onto
    v: when fixed + (v,) lies in the orbit of fixed + (w,), w explored.
    orbits, when given, is a dict that keeps the tuple orbits found, for
    further calls with the same gens."""
    orbits = {} if orbits is None else orbits
    target = tuple(fixed) + (v,)
    for w in explored:
        start = tuple(fixed) + (w,)
        if start not in orbits:
            orbits[start] = tuple_orbit(gens, start)
        if target in orbits[start]:
            return True
    return False


# -- field oracle --------------------------------------------------------------


def oracle_mul(p, modulus, a, b):
    """Schoolbook product of coefficient tuples, reduced mod the modulus."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] = (prod[i + j] + x * y) % p
    deg = len(modulus) - 1
    while len(prod) > deg:
        lead = prod.pop()
        if lead:
            for i in range(deg):
                prod[-deg + i] = (prod[-deg + i] - lead * modulus[i]) % p
    prod += [0] * (deg - len(prod))
    return tuple(c % p for c in prod)


def oracle_add(p, a, b):
    return tuple((x + y) % p for x, y in zip(a, b))


def all_elements(p, n):
    return [tuple(t) for t in product(range(p), repeat=n)]


def brute_force_inverse(F, a):
    """The b with a * b = 1 under the polynomial product, by trial."""
    return next(b for b in F.elements() if oracle_mul(F.p, F.modulus, a, b) == F.one)


# -- symplectic quadrangle oracle ------------------------------------------------


def _naive_perp(F):
    """(vectors, perp) of W(q) from the polynomial product alone.

    Points are the normalized nonzero vectors of F^4 ordered by leading
    position, then coordinates; perp[i, j] says the alternating form
    vanishes on points i and j (so perp[i, i] holds).
    """
    els = F.elements()
    code = {a: k for k, a in enumerate(els)}
    table = np.array([[code[oracle_mul(F.p, F.modulus, a, b)] for b in els] for a in els])
    sub = np.array([[code[F.sub(a, b)] for b in els] for a in els])
    add = np.array([[code[F.add(a, b)] for b in els] for a in els])

    def lead(vec):
        return next(k for k, c in enumerate(vec) if c != F.zero)

    vectors = sorted((vec for vec in product(els, repeat=4)
                      if any(c != F.zero for c in vec) and vec[lead(vec)] == F.one),
                     key=lambda vec: (lead(vec), vec))
    u = np.array([[code[c] for c in vec] for vec in vectors])
    x, y = u[:, None, :], u[None, :, :]
    form = add[sub[table[x[..., 0], y[..., 1]], table[x[..., 1], y[..., 0]]],
               sub[table[x[..., 2], y[..., 3]], table[x[..., 3], y[..., 2]]]]
    return vectors, form == code[F.zero]


def naive_symplectic(F):
    """(vectors, line_sets) of W(q) from the polynomial product alone.

    The line through two orthogonal points i, j is the set of points
    orthogonal to both: the span U of a totally isotropic 2-space is its
    own perp, so {i, j}^perp = U.
    """
    vectors, perp = _naive_perp(F)
    lines = {frozenset(np.flatnonzero(perp[i] & perp[j]).tolist())
             for i, j in combinations(range(len(vectors)), 2) if perp[i, j]}
    return vectors, sorted(lines, key=sorted)


def joined_symplectic_labels(w):
    """(point labels, line labels) of W(q) by the expressions the catalog
    used before it built them from tables: a join per point over the
    coordinate names, and per line over its points' decimal ids."""
    names = [w.field.render(a) for a in w.field.elements()]
    points = [f"<{','.join(names[c] for c in row)}>" for row in w.codes.tolist()]
    lines = ["{" + ",".join(map(str, r)) + "}" for r in w.structure.points_of_line]
    return points, lines


def naive_payne(F, x):
    """(survivors, lines) of the Payne derivation of W(q) at point x.

    survivors are the points off x^perp, in W(q)'s order; lines is the
    set of the derivation's lines as frozensets of indices into
    survivors: the lines of W(q) missing x, restricted to survivors, and
    for each survivor y the hyperbolic line {x, y}^perp perp minus x.
    """
    _, line_sets = naive_symplectic(F)
    _, perp = _naive_perp(F)
    survivors = np.flatnonzero(~perp[x]).tolist()
    new = {old: k for k, old in enumerate(survivors)}
    lines = {frozenset(new[p] for p in ls if p in new)
             for ls in line_sets if x not in ls}
    for y in survivors:
        hyperbolic = np.flatnonzero(perp[:, perp[x] & perp[y]].all(axis=1))
        lines.add(frozenset(new[p] for p in hyperbolic.tolist() if p != x))
    return survivors, lines
