"""Isomorphism testing and canonical forms for incidence structures.

Everything runs on color refinement of the bipartite incidence graph,
with points and lines as separate initial classes (the two sides are
never interchanged; duality is an explicit catalog operation).  Colors
are assigned by sorting signatures, so the refined partition does not
depend on the input labeling.  A vertex's signature is its color and
its sorted neighbor colors.  Points are numbered below lines, and a
round ranks the two sides apart: for each, one take from the colors
plus a sentinel gathers its signatures, one matrix product packs the
rows into int64 keys (as many columns a key as fit in base number of
colors + 1), and sorting the keys ranks them, in the order
np.unique(axis=0) would.  A point's neighbors are all lines and a
line's all points, so after the first round a side can only split in a
round after the other side has; a round ranks only the side whose
neighbors split, and the other keeps its colors, shifted past the
points.  Refinement stops at a round that leaves the color count
unchanged, or as soon as the partition is discrete, as a discrete
partition cannot split.

One search routine serves both entry points, in the individualize-
refine scheme of McKay & Piperno, "Practical graph isomorphism II"
(2014).  It backtracks over individualizations of the first largest
non-singleton cell and keeps the minimal (invariant path, bit matrix)
leaf; large target cells give shallow trees, in which automorphism
pruning cuts early.  Leaves that tie the current best yield
automorphisms, and a sibling branch is skipped when an element of the
discovered group that fixes the base maps an explored sibling onto it;
that pruning is what makes the very symmetric quadrangles tractable.
Orbits are read off labels on the target cell, the least vertex of each
orbit, recomputed whenever a leaf adds an automorphism fixing the base.
From two-vertex bases on, a sibling those leave unpruned brings in
further stabiliser elements: quotients of products of two known
automorphisms that agree on the base, built on the cell only and at
most STABILISER_CAP a time (_stabiliser_elements); SearchStats, and so
-v, counts them and their seconds.  Stabiliser elements only prune
images of explored branches, so every search reaches the same first
minimal leaf: the same canonical form, orderings and witness.

canonical_form runs the search to its end.  are_isomorphic runs it to
the end on the first structure, then on the second with the first's
minimal key as a target, and reads the witness off the two orderings.
The witness is always revalidated against the incidence condition
before it is returned.
"""

import functools
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Isomorphism, verify_isomorphism

# Bump on any change that can change certificates (refinement, invariant,
# search order, matrix encoding): search checkpoints record it.
CERTIFICATE_VERSION = 2

# Stabiliser elements built per call, and the automorphisms their
# products take factors from (see _stabiliser_elements).
STABILISER_CAP = 64
STABILISER_FACTORS = 64


@functools.lru_cache(maxsize=4096)
def _place_values(m, base):
    """The read-only (m, keys) int64 matrix whose product with a row of m
    entries in [0, base) packs it into as few int64 keys as hold it:
    column j holds the place values of the j-th run of columns, in base
    `base`, most significant first.  Cached, as the rounds of a search
    ask for the same bases over and over."""
    width = 1
    while base ** (width + 1) <= 1 << 63:
        width += 1
    places = np.zeros((m, -(-m // width)), dtype=np.int64)
    for j, start in enumerate(range(0, m, width)):
        run = min(width, m - start)
        places[start:start + run, j] = base ** np.arange(run - 1, -1, -1, dtype=np.int64)
    places.setflags(write=False)
    return places


def _dense_rank(sig, base, out=None):
    """Dense lexicographic rank of each row of sig, whose entries lie in
    [0, base): the inverse np.unique(sig, axis=0) would return.

    One matrix product with the place values packs the rows into keys;
    packing keeps the order of each run of columns, so sorting the keys
    (a stable argsort of one, a lexsort of more) sorts the rows, and a
    rank steps wherever any key changes.  out, when given, is an int64
    array of len(sig) + 1 entries: the ranks go to its first len(sig)
    and their count, the number of distinct rows, to its last.  Returns
    the ranks.
    """
    n = len(sig)
    keys = sig @ _place_values(sig.shape[1], base)
    step = np.empty(n, dtype=bool)
    step[:1] = False
    if keys.shape[1] == 1:
        keys = keys.ravel()
        order = keys.argsort(kind="stable")
        keys = keys[order]
        np.not_equal(keys[1:], keys[:-1], out=step[1:])
    else:
        order = np.lexsort(keys.T[::-1])
        keys = keys[order]
        (keys[1:] != keys[:-1]).any(axis=1, out=step[1:])
    ranks = step.cumsum()
    if out is None:
        out = np.empty(n, dtype=np.int64)
    else:
        out[n] = ranks[-1] + 1
    out[order] = ranks
    return out[:n]


_ONES = np.ones(1024, dtype=np.int64).tobytes()


def _update_ones(h, count):
    """Feed the hash h the bytes of count int64 ones, from one fixed block
    of them, so that no digest allocates ones by the structure's size."""
    whole, rest = divmod(count * 8, len(_ONES))
    for _ in range(whole):
        h.update(_ONES)
    h.update(_ONES[:rest])


class _Refiner:
    """Vectorized refinement context for one structure."""

    def __init__(self, s):
        self.n = n = s.n_elements
        self.n_points = v = s.n_points
        self.degs = np.concatenate([s.degrees, s.sizes])
        self.edge_u = np.repeat(np.arange(n, dtype=np.int64), self.degs)
        self.edge_v = s.neighbours().astype(np.int64)
        # Row v is v itself, then v's neighbors padded with index n; slot n
        # of the color buffer holds a sentinel, the color count, that
        # sorts after every real color id.  One take of a side's rows from
        # the buffer then gathers that side's signatures.  Edge i, the
        # j-th of its vertex, goes to column j + 1, with no padded copy.
        width = int(self.degs.max())
        self.selfpad = np.full((n, 1 + width), n, dtype=np.intp)
        self.selfpad[:, 0] = np.arange(n)
        self.selfpad[:, 1:][np.arange(width) < self.degs[:, None]] = self.edge_v
        # Per side (points, then lines): its rows of selfpad, only as wide
        # as its own largest degree needs; a signature buffer and its
        # neighbor columns; a rank buffer, whose last slot receives the
        # side's color count, and its other slots.
        self.sides = []
        for rows in (self.selfpad[:v, :1 + int(s.degrees.max())],
                     self.selfpad[v:, :1 + int(s.sizes.max())]):
            rows = np.ascontiguousarray(rows)
            sig = np.empty(rows.shape, dtype=np.int64)
            rank = np.empty(len(rows) + 1, dtype=np.int64)
            self.sides.append((rows, sig, sig[:, 1:], rank, rank[:-1]))
        m = len(s.pairs)
        self.flags = self.edge_u[:m], self.edge_v[:m]  # (point, line) pairs
        self.rounds = 0  # refinement rounds run, for SearchStats
        self.seconds = 0.0  # and the wall seconds they took

    def initial_colors(self):
        side = (np.arange(self.n) >= self.n_points).astype(np.int64)
        return _dense_rank(np.stack([side, self.degs], axis=1), self.n + 1)

    def refine(self, colors, changed=(True, True)):
        """The coarsest equitable refinement of colors, which must be
        dense and number every point below every line, as initial_colors
        does; so does the result.  Rounds stop when one leaves the color
        count unchanged or the partition is discrete, as a discrete
        partition cannot split.

        A round ranks a side only when the other side's color count
        changed in the round before; changed says whether the points' and
        the lines' counts changed before the first round.  A point's row
        holds its own color and line colors only, and a line's row the
        reverse.  If the lines did not split in a round, every point's
        row in the next one is fixed by its own color, which already
        separates the rows the lines' colors could tell apart; so the
        points keep their colors, 0 to the point count, and the lines,
        ranked after them, shift by the change in that count.  The same
        holds with the sides swapped, so every round yields the colors a
        round over both sides would, and stops at the same round."""
        tick = time.perf_counter()
        n, v = self.n, self.n_points
        ext = np.empty(n + 1, dtype=np.int64)
        ext[:n] = colors
        npoints = int(colors[:v].max()) + 1
        ext[n] = ncolors = int(colors[v:].max()) + 1
        nlines = ncolors - npoints
        (prows, psig, pnb, prank, pranks), (lrows, lsig, lnb, lrank, lranks) = self.sides
        rank_points, rank_lines = changed[1], changed[0]
        while True:
            self.rounds += 1
            # Every index is in range; mode "clip" lets take write into
            # the signature buffer without a buffer of its own.
            new_points, new_lines = npoints, nlines
            if rank_points:
                ext.take(prows, out=psig, mode="clip")
                pnb.sort(axis=1)
                _dense_rank(psig, ncolors + 1, out=prank)
                new_points = int(prank[v])
            if rank_lines:
                ext.take(lrows, out=lsig, mode="clip")
                lnb.sort(axis=1)
                _dense_rank(lsig, ncolors + 1, out=lrank)
                new_lines = int(lrank[-1])
            # Both sides have read this round's colors; rewrite them.
            if rank_points:
                ext[:v] = pranks
            if rank_lines:
                np.add(lranks, new_points, out=ext[v:n])
            elif new_points != npoints:
                ext[v:n] += new_points - npoints
            count = new_points + new_lines
            if count == ncolors or count == n:
                self.seconds += time.perf_counter() - tick
                return ext[:n]
            # A side whose count held still gives the other nothing new.
            rank_points, rank_lines = new_lines != nlines, new_points != npoints
            npoints, nlines = new_points, new_lines
            ext[n] = ncolors = count

    def individualize(self, colors, v):
        """Refine after giving v a cell of its own, numbered just before
        the rest of its cell, which must hold at least one other vertex.
        colors must be equitable, as refine returns them: then only v's
        side has split, and the first round ranks only the other side."""
        c = colors[v]
        new = colors + (colors >= c)
        new[v] = c
        point = v < self.n_points
        return self.refine(new, (point, not point))

    def invariant(self, colors):
        """Stable digest of cell sizes plus the edge-color quotient, of
        dense colors, as refine returns them."""
        ncolors = int(colors.max()) + 1
        codes = colors[self.edge_u] * (ncolors + 1) + colors[self.edge_v]
        import hashlib  # here, so that runs that hash nothing never load OpenSSL
        if ncolors == self.n:
            # Discrete: every cell holds one vertex, and no edge code
            # repeats, as no (point, line) pair does.  The digest is the
            # one below, with every size and count 1, fed from one block
            # of int64 ones.
            codes.sort()
            h = hashlib.sha256(ncolors.to_bytes(8, "big"))
            _update_ones(h, ncolors)
            h.update(codes)
            _update_ones(h, len(codes))
            return h.digest()
        sizes = np.bincount(colors, minlength=ncolors).astype(np.int64)
        uniq, counts = np.unique(codes, return_counts=True)
        h = hashlib.sha256()
        h.update(ncolors.to_bytes(8, "big"))
        h.update(sizes.tobytes())
        h.update(uniq.astype(np.int64).tobytes())
        h.update(counts.astype(np.int64).tobytes())
        return h.digest()

    def matrix_bytes(self, colors):
        """Bit-packed incidence matrix under a discrete coloring, whose
        colors are positions, points first.  Row i, for the point at
        position i, is a big-endian bit string in which bit j, counted
        from the last bit, is set when the line at position n_points + j
        meets that point."""
        nbytes = (self.n - self.n_points + 7) // 8
        p, b = self.flags
        col = colors[b] - self.n_points
        rows = np.zeros((self.n_points, nbytes), dtype=np.uint8)
        # Each flag sets its own bit, so adding the bits ORs them.
        np.add.at(rows, (colors[p], nbytes - 1 - col // 8),
                  (1 << (col % 8)).astype(np.uint8))
        return rows.tobytes()

    def target_cell(self, colors):
        """Color id of the first largest non-singleton cell, or None."""
        sizes = np.bincount(colors)
        best = int(np.argmax(sizes))
        return best if sizes[best] > 1 else None


def _orbit_labels(gens, n):
    """The least vertex of each vertex's orbit under the group generated
    by the rows of gens, permutations of range(n).

    Min-label propagation: a pass lowers each label to the least label
    of its images under all the generators, in one gather, then jumps
    pointers (labels of labels).  A label always lies in its vertex's
    orbit and never rises, so a pass that changes nothing leaves labels
    constant on every orbit, each equal to its orbit's least vertex.
    """
    labels = np.arange(n)
    while True:
        new = np.minimum.reduce(labels[gens], axis=0, initial=n)
        np.minimum(new, labels, out=new)
        new = new[new]
        if np.array_equal(new, labels):
            return labels
        labels = new


def _stabiliser_elements(perms, fixed, v, support):
    """Elements of the pointwise stabiliser of the base fixed in the group
    the rows of perms generate that move the vertex v, restricted to the
    vertices support.

    perms are automorphisms of one structure, permutations of its vertex
    ids; fixed is a nonempty tuple of vertex ids; support is a sorted
    array of vertex ids that every automorphism fixing each vertex of
    fixed maps onto itself: all vertex ids, or a cell of the search's
    coloring at that base.  The products x = a b of two of the first
    STABILISER_FACTORS rows or the identity, in the order identity,
    rows, then a b with a running slowest, fall in classes by their
    images of fixed.  With x0 the first of x's class, the quotient
    x0^-1 x fixes each vertex of fixed.  From each class one quotient
    is taken for each image x(v) other than x0(v), from the first x
    that gives it, so each moves v; the rows that fix fixed are left
    out.  The first STABILISER_CAP of them are built on support only:
    x and x0 map it onto the same vertices, so x0^-1 x takes the
    position of the m-th least image under x to that of the m-th least
    under x0.  The working set is the products' images of fixed and v,
    and two rows of len(support) a quotient.

    Returns an (r, len(support)) array, r <= STABILISER_CAP, whose row i
    maps support[j] to support[row[j]].
    """
    perms = perms[:STABILISER_FACTORS]
    (k, n), d = perms.shape, len(fixed)
    points = np.array(fixed + (v,), dtype=np.int64)
    images = perms[:, points]
    keys = np.concatenate([points[None], images, perms[:, images].reshape(k * k, d + 1)])
    ranks = _dense_rank(keys[:, :d], n)
    rep = np.unique(ranks, return_index=True)[1][ranks]
    ranks = _dense_rank(keys, n)
    first = np.unique(ranks, return_index=True)[1][ranks] == np.arange(len(keys))
    wanted = first & (ranks != ranks[rep])
    wanted[1:k + 1] &= rep[1:k + 1] != 0
    chosen = np.flatnonzero(wanted)[:STABILISER_CAP]
    if not len(chosen):
        return np.empty((0, len(support)), dtype=np.int64)
    # Element t of that order is a b: the identity for t = 0, row t - 1
    # for t <= k, else rows divmod(t - 1 - k, k); -1 is the identity.
    t = np.concatenate([chosen, rep[chosen]])
    a, b = np.divmod(t - 1 - k, k)
    alone = t <= k
    a[alone], b[alone] = -1, t[alone] - 1
    values = perms[b[:, None], support]
    values[b < 0] = support
    values[a >= 0] = perms[a[a >= 0, None], values[a >= 0]]
    x, x0 = values[:len(chosen)], values[len(chosen):]
    source, dest = x.argsort(axis=1), x0.argsort(axis=1)
    row = np.arange(len(chosen))[:, None]
    assert (x[row, source] == x0[row, dest]).all(), "support is not invariant"
    rows = np.empty_like(dest)
    rows[row, source] = dest
    return rows


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant form: canonical orderings, incidence bit
    matrix, and a certificate hash of the matrix rows."""

    n_points: int
    n_lines: int
    point_order: tuple = field(compare=False)
    line_order: tuple = field(compare=False)
    matrix: bytes = field(repr=False)
    certificate: str = field(compare=False)


class SearchStats:
    """Counters of one search: nodes visited (pruned ones included),
    leaves reached, automorphisms found at leaves, refinement rounds run,
    siblings skipped as images of explored ones, backjumps taken from
    leaves that tie the best, the deepest individualization (the root is
    0), and the stabiliser elements built to prune siblings (see
    _stabiliser_elements); then the search's wall seconds, of which
    refine_seconds went to refinement and stabiliser_seconds to building
    stabiliser elements and relabelling with them.
    A plain class, not a dataclass, so importing the module stays cheap."""

    __slots__ = ("nodes", "leaves", "automorphisms", "refinement_rounds",
                 "orbit_prunes", "backjumps", "max_depth",
                 "stabiliser_elements", "seconds", "refine_seconds",
                 "stabiliser_seconds")

    def __init__(self):
        self.nodes = self.leaves = self.automorphisms = self.refinement_rounds = 0
        self.orbit_prunes = self.backjumps = self.max_depth = 0
        self.stabiliser_elements = 0
        self.seconds = self.refine_seconds = self.stabiliser_seconds = 0.0


class _Backjump(Exception):
    """Unwind the search to the level where the current branch split off
    from the best leaf's branch."""

    def __init__(self, depth):
        self.depth = depth


class _Stop(Exception):
    """End a targeted search with its answer: the matching leaf's vertex
    order, or None."""

    def __init__(self, order):
        self.order = order


def _search(s, target=None, deadline=None, stats=None):
    """Individualize-refine search for the minimal (path, matrix) leaf.

    Without a target, returns the best leaf as a dict with its path,
    matrix ("cert"), vertex order and individualized base.  With a
    target, the other structure's minimal (path, matrix) key, returns
    the vertex order of the first leaf whose path equals the target's, or
    None when s's own minimum differs: the search is the same
    minimization (own ties, own backjumps), but any node provably below
    the target answers no, since leaf keys are relabeling-invariant, and
    so does a root whose invariant differs from the target's first one.
    stats, when given, is a list that receives this search's SearchStats,
    filled in also when the search times out.
    """
    start = time.perf_counter()
    counts = SearchStats()
    if stats is not None:
        stats.append(counts)
    autos = {}  # the automorphisms found at leaves: bytes -> the permutation
    ref = _Refiner(s)
    n = s.n_elements
    best = {"path": None, "cert": None, "order": None, "base": None}
    stacked = np.empty((0, n), dtype=np.int64)
    where = np.empty(n, dtype=np.int64)  # a cell member's position in its cell

    def group():
        """The automorphisms as rows of one array, stacked again once
        leaves have added some."""
        nonlocal stacked
        if len(stacked) < len(autos):
            stacked = np.array(list(autos.values()))
        return stacked

    stage = "canonical labeling" if target is None else "isomorphism search"

    def rec(colors, path, fixed):
        counts.nodes += 1
        counts.max_depth = max(counts.max_depth, len(fixed))
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"{stage} budget exceeded")
        path = path + (ref.invariant(colors),)
        if target is not None and (path < target[0][:len(path)]
                                   or (not fixed and path != target[0][:1])):
            # Everything below here sorts under the target, or, at the
            # root, every leaf path starts off the target's.
            raise _Stop(None)
        if best["path"] is not None and path > best["path"][:len(path)]:
            return
        cell = ref.target_cell(colors)
        if cell is None:
            counts.leaves += 1
            order = np.argsort(colors).tolist()  # colors are a permutation
            cert = ref.matrix_bytes(colors)
            if target is not None and path == target[0]:
                # The invariant of a discrete partition digests every
                # edge between two positions, so an equal path means an
                # equal matrix; are_isomorphic re-verifies the witness.
                assert cert == target[1], "equal invariant paths, unequal matrices"
                raise _Stop(order)
            key = (path, cert)
            if best["path"] is None or key < (best["path"], best["cert"]):
                best.update(path=path, cert=cert, order=order, base=fixed)
            elif key == (best["path"], best["cert"]):
                perm = np.empty(n, dtype=np.int64)
                perm[best["order"]] = order
                autos.setdefault(perm.tobytes(), perm)
                # This whole branch is the automorphic image of the best
                # leaf's branch, so nothing new lives below the point
                # where the two branches diverged.
                diverge = next((i for i in range(len(fixed))
                                if fixed[i] != best["base"][i]), None)
                if diverge is not None:
                    counts.backjumps += 1
                    raise _Backjump(diverge)
            return
        # A sibling is skipped when its orbit label is that of an explored
        # one; without labels, each vertex is its own label.  Every
        # automorphism fixing the base maps the cell onto itself, so the
        # generators and labels are local to it: position i is members[i].
        members = np.flatnonzero(colors == cell)
        explored, seen, gens = [], set(), []  # gens: blocks of rows
        labels, filtered, stabilised = None, 0, 0
        for i, v in enumerate(members.tolist()):
            if explored and len(autos) > filtered:
                # Only automorphisms fixing the base so far map siblings
                # onto siblings.  Look at those that leaves have added
                # since the last look, once an explored sibling can make a
                # label count.
                perms = group()
                new = filtered + np.flatnonzero((perms[filtered:, fixed] == fixed).all(axis=1))
                filtered = len(autos)
                if len(new):
                    where[members] = np.arange(len(members))
                    gens.append(where[perms[new[:, None], members]])
                    labels = _orbit_labels(np.concatenate(gens), len(members))
                    seen = set(labels[explored].tolist())
            label = i if labels is None else int(labels[i])
            if (label not in seen and len(fixed) >= 2 and filtered > stabilised
                    and filtered >= 2):
                # Products of known automorphisms can fix the base where
                # none does alone: build such elements once leaves have
                # added automorphisms since the last build.  Not at the
                # root, which every automorphism fixes, nor at one-vertex
                # bases or with one automorphism known: there they cost
                # more than they pruned.
                tick = time.perf_counter()
                stabilised = filtered
                extra = _stabiliser_elements(perms, fixed, v, members)
                counts.stabiliser_elements += len(extra)
                if len(extra):
                    gens.append(extra)
                    labels = _orbit_labels(np.concatenate(gens), len(members))
                    seen = set(labels[explored].tolist())
                    label = int(labels[i])
                counts.stabiliser_seconds += time.perf_counter() - tick
            if label in seen:
                counts.orbit_prunes += 1
                continue
            explored.append(i)
            seen.add(label)
            try:
                rec(ref.individualize(colors, v), path, fixed + (v,))
            except _Backjump as bj:
                if bj.depth < len(fixed):
                    raise
                continue

    try:
        rec(ref.refine(ref.initial_colors()), (), ())
    except _Stop as stop:
        return stop.order
    finally:
        counts.automorphisms = len(autos)
        counts.refinement_rounds = ref.rounds
        counts.refine_seconds = ref.seconds
        counts.seconds = time.perf_counter() - start
    return best if target is None else None


def _form_from_order(s, order, matrix):
    point_order = tuple(v for v in order if v < s.n_points)
    line_order = tuple(v - s.n_points for v in order if v >= s.n_points)
    header = f"{s.n_points}x{s.n_lines}:".encode()
    import hashlib  # see _Refiner.invariant
    cert = hashlib.sha256(header + matrix).hexdigest()
    return CanonicalForm(s.n_points, s.n_lines, point_order, line_order,
                         matrix, cert)


def canonical_form(s, deadline=None):
    """The canonical form of s."""
    best = _search(s, deadline=deadline)
    return _form_from_order(s, best["order"], best["cert"])


def distinguishing_invariant(s1, s2):
    """The first cheap invariant separating the two structures, or None."""
    if s1.n_points != s2.n_points:
        return "point-count"
    if s1.n_lines != s2.n_lines:
        return "line-count"
    if len(s1.pairs) != len(s2.pairs):
        return "incidence-count"
    if not np.array_equal(np.sort(s1.degrees), np.sort(s2.degrees)):
        return "point-degree-multiset"
    if not np.array_equal(np.sort(s1.sizes), np.sort(s2.sizes)):
        return "line-degree-multiset"
    r1, r2 = _Refiner(s1), _Refiner(s2)
    if (r1.invariant(r1.refine(r1.initial_colors()))
            != r2.invariant(r2.refine(r2.initial_colors()))):
        return "refinement-invariant"
    return None


def are_isomorphic(s1, s2, deadline=None, stats=None):
    """An explicit verified isomorphism witness, or None.

    The first structure is canonicalized in full; the second is then
    searched for a leaf matching that minimal key, which exists exactly
    when the canonical forms coincide.  The witness maps the two
    orderings onto each other and is revalidated exactly before return.
    deadline, when given, is a time.monotonic() value past which the
    search raises TimeoutError.  stats, when given, is a list that
    receives one SearchStats per search run: none when the point, line
    or incidence counts differ, else one for each structure.
    """
    if (s1.n_points != s2.n_points or s1.n_lines != s2.n_lines
            or len(s1.pairs) != len(s2.pairs)):
        return None
    best = _search(s1, deadline=deadline, stats=stats)
    order2 = _search(s2, (best["path"], best["cert"]), deadline=deadline,
                     stats=stats)
    if order2 is None:
        return None
    # Refinement never merges the initial point/line split, so points
    # fill the first n_points positions of both orders, and position i of
    # the first order maps to position i of the second.
    n = s1.n_points
    image = [v2 for _, v2 in sorted(zip(best["order"], order2))]
    iso = Isomorphism(tuple(image[:n]), tuple(v - n for v in image[n:]))
    if not verify_isomorphism(s1, s2, iso):
        raise RuntimeError("canonical orderings produced an invalid witness")
    return iso
