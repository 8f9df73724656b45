"""Isomorphism testing and canonical forms for incidence structures.

Everything runs on color refinement of the bipartite incidence graph,
with points and lines as separate initial classes (the two sides are
never interchanged; duality is an explicit catalog operation).  Colors
are assigned by sorting signatures, so the refined partition does not
depend on the input labeling.

One search routine serves both entry points, in the individualize-
refine scheme of McKay & Piperno, "Practical graph isomorphism II"
(2014).  It backtracks over individualizations of the first smallest
non-singleton cell and keeps the minimal (invariant path, bit matrix)
leaf.  Leaves that tie the current best yield automorphisms, and sibling
branches in the same orbit of the discovered group are skipped; that
pruning is what makes the very symmetric quadrangles tractable.

canonical_form runs the search to its end.  are_isomorphic runs it to
the end on the first structure, then on the second with the first's
minimal key as a target, and reads the witness off the two orderings.
The witness is always revalidated against the incidence condition
before it is returned.
"""

import hashlib
import time
from dataclasses import dataclass, field

import numpy as np

from .geometry import Isomorphism, verify_isomorphism


class _Refiner:
    """Vectorized refinement context for one structure."""

    def __init__(self, s):
        self.n = s.n_elements
        self.n_points = s.n_points
        adj = s.adjacency()
        degs = np.array([len(a) for a in adj], dtype=np.int64)
        maxdeg = int(degs.max())
        # Neighbor table padded with index n; slot n of the color buffer
        # holds a sentinel that sorts after every real color id.
        pad = np.full((self.n, maxdeg), self.n, dtype=np.int64)
        for v, nbrs in enumerate(adj):
            pad[v, :len(nbrs)] = nbrs
        self.pad = pad
        self.degs = degs
        eu = []
        ev = []
        for v, nbrs in enumerate(adj):
            eu.extend([v] * len(nbrs))
            ev.extend(nbrs)
        self.edge_u = np.array(eu, dtype=np.int64)
        self.edge_v = np.array(ev, dtype=np.int64)

    def initial_colors(self):
        side = (np.arange(self.n) >= self.n_points).astype(np.int64)
        sig = np.stack([side, self.degs], axis=1)
        _, colors = np.unique(sig, axis=0, return_inverse=True)
        return colors.reshape(-1).astype(np.int64)

    def refine(self, colors):
        ncolors = int(colors.max()) + 1
        buf = np.empty(self.n + 1, dtype=np.int64)
        while True:
            buf[:self.n] = colors
            buf[self.n] = self.n
            nb = buf[self.pad]
            nb.sort(axis=1)
            sig = np.concatenate([colors[:, None], nb], axis=1)
            _, new = np.unique(sig, axis=0, return_inverse=True)
            new = new.reshape(-1).astype(np.int64)
            nnew = int(new.max()) + 1
            if nnew == ncolors:
                return new
            colors, ncolors = new, nnew

    def individualize(self, colors, v):
        key = colors * 2 + 1
        key[v] -= 1
        _, new = np.unique(key, return_inverse=True)
        return self.refine(new.reshape(-1).astype(np.int64))

    def invariant(self, colors):
        """Stable digest of cell sizes plus the edge-color quotient."""
        ncolors = int(colors.max()) + 1
        sizes = np.bincount(colors, minlength=ncolors).astype(np.int64)
        codes = colors[self.edge_u] * (ncolors + 1) + colors[self.edge_v]
        uniq, counts = np.unique(codes, return_counts=True)
        h = hashlib.sha256()
        h.update(ncolors.to_bytes(8, "big"))
        h.update(sizes.tobytes())
        h.update(uniq.astype(np.int64).tobytes())
        h.update(counts.astype(np.int64).tobytes())
        return h.digest()

    def target_cell(self, colors):
        """Color id of the first smallest non-singleton cell, or None."""
        sizes = np.bincount(colors)
        candidates = np.flatnonzero(sizes > 1)
        if len(candidates) == 0:
            return None
        best = candidates[np.argmin(sizes[candidates])]
        return int(best)


def _matrix_bytes(s, order):
    """Bit-packed incidence matrix under a discrete vertex ordering."""
    pts = [v for v in order if v < s.n_points]
    lns = [v - s.n_points for v in order if v >= s.n_points]
    col = {b: j for j, b in enumerate(lns)}
    nbytes = (len(lns) + 7) // 8
    rows = []
    for p in pts:
        m = 0
        for b in s.lines_of_point[p]:
            m |= 1 << col[b]
        rows.append(m.to_bytes(nbytes, "big"))
    return b"".join(rows)


def _orbit_hits(v, explored, gens):
    """True when v lies in the orbit of an already-explored sibling."""
    if not gens:
        return False
    orbit = {v}
    frontier = [v]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = g[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return any(w in orbit for w in explored)


@dataclass(frozen=True)
class CanonicalForm:
    """Relabeling-invariant form: canonical orderings, incidence bit
    matrix, and a certificate hash of the matrix rows."""

    n_points: int
    n_lines: int
    point_order: tuple
    line_order: tuple
    matrix: bytes = field(repr=False)
    certificate: str

    def __eq__(self, other):
        return (isinstance(other, CanonicalForm)
                and self.n_points == other.n_points
                and self.n_lines == other.n_lines
                and self.matrix == other.matrix)

    def __hash__(self):
        return hash((self.n_points, self.n_lines, self.matrix))


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


def _search(s, target=None, deadline=None):
    """Individualize-refine search for the minimal (path, matrix) leaf.

    Without a target, returns the best leaf as a dict with its path,
    matrix ("cert"), vertex order and individualized base.  With a
    target, the other structure's minimal (path, matrix) key, returns
    the vertex order of the first leaf equal to it, or None when s's own
    minimum differs: the search is the same minimization (own ties, own
    backjumps), but any node or leaf provably below the target answers
    no, since leaf keys are relabeling-invariant.
    """
    ref = _Refiner(s)
    n = s.n_elements
    best = {"path": None, "cert": None, "order": None, "base": None}
    autos = set()
    stage = "canonical labeling" if target is None else "isomorphism search"

    def rec(colors, path, fixed):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError(f"{stage} budget exceeded")
        path = path + (ref.invariant(colors),)
        if target is not None and path < target[0][:len(path)]:
            raise _Stop(None)  # everything below here sorts under the target
        if best["path"] is not None and path > best["path"][:len(path)]:
            return
        cell = ref.target_cell(colors)
        if cell is None:
            order = [0] * n
            for v, c in enumerate(colors):
                order[c] = v
            cert = _matrix_bytes(s, order)
            key = (path, cert)
            if target is not None and key <= target:
                raise _Stop(order if key == target else None)
            if best["path"] is None or key < (best["path"], best["cert"]):
                best.update(path=path, cert=cert, order=order, base=fixed)
            elif key == (best["path"], best["cert"]):
                perm = [0] * n
                for i in range(n):
                    perm[best["order"][i]] = order[i]
                autos.add(tuple(perm))
                # This whole branch is the automorphic image of the best
                # leaf's branch, so nothing new lives below the point
                # where the two branches diverged.
                diverge = next((i for i in range(len(fixed))
                                if fixed[i] != best["base"][i]), None)
                if diverge is not None:
                    raise _Backjump(diverge)
            return
        explored = []
        for v in (int(x) for x in np.flatnonzero(colors == cell)):
            gens = [g for g in autos if all(g[w] == w for w in fixed)]
            if _orbit_hits(v, explored, gens):
                continue
            explored.append(v)
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
    return best if target is None else None


def _form_from_order(s, order, matrix):
    point_order = tuple(v for v in order if v < s.n_points)
    line_order = tuple(v - s.n_points for v in order if v >= s.n_points)
    header = f"{s.n_points}x{s.n_lines}:".encode()
    cert = hashlib.sha256(header + matrix).hexdigest()
    return CanonicalForm(s.n_points, s.n_lines, point_order, line_order,
                         matrix, cert)


def canonical_form(s, deadline=None):
    best = _search(s, deadline=deadline)
    return _form_from_order(s, best["order"], best["cert"])


def distinguishing_invariant(s1, s2):
    """The first cheap invariant separating the two structures, or None."""
    if s1.n_points != s2.n_points:
        return "point-count"
    if s1.n_lines != s2.n_lines:
        return "line-count"
    if len(s1.incidence) != len(s2.incidence):
        return "incidence-count"
    if (sorted(len(x) for x in s1.lines_of_point)
            != sorted(len(x) for x in s2.lines_of_point)):
        return "point-degree-multiset"
    if (sorted(len(x) for x in s1.points_of_line)
            != sorted(len(x) for x in s2.points_of_line)):
        return "line-degree-multiset"
    r1, r2 = _Refiner(s1), _Refiner(s2)
    if (r1.invariant(r1.refine(r1.initial_colors()))
            != r2.invariant(r2.refine(r2.initial_colors()))):
        return "refinement-invariant"
    return None


def are_isomorphic(s1, s2, deadline=None):
    """An explicit verified isomorphism witness, or None.

    The first structure is canonicalized in full; the second is then
    searched for a leaf matching that minimal key, which exists exactly
    when the canonical forms coincide.  The witness maps the two
    orderings onto each other and is revalidated exactly before return.
    deadline, when given, is a time.monotonic() value past which the
    search raises TimeoutError.
    """
    if (s1.n_points != s2.n_points or s1.n_lines != s2.n_lines
            or len(s1.incidence) != len(s2.incidence)):
        return None
    best = _search(s1, deadline=deadline)
    order2 = _search(s2, (best["path"], best["cert"]), deadline=deadline)
    if order2 is None:
        return None
    cf1 = _form_from_order(s1, best["order"], best["cert"])
    cf2 = _form_from_order(s2, order2, best["cert"])
    pm = [0] * s1.n_points
    lm = [0] * s1.n_lines
    for i, v in enumerate(cf1.point_order):
        pm[v] = cf2.point_order[i]
    for i, v in enumerate(cf1.line_order):
        lm[v] = cf2.line_order[i]
    iso = Isomorphism(tuple(pm), tuple(lm))
    if not verify_isomorphism(s1, s2, iso):
        raise RuntimeError("canonical orderings produced an invalid witness")
    return iso
