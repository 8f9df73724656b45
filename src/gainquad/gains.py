"""Gain assignments on incidence graphs: switching and gauge fixing.

Edges of an incidence graph are oriented line -> point, and a gain graph
stores exactly one group code per edge in that orientation, edges in
sorted (line, point) order; the gain of a reversed traversal is the
group inverse.
"""

from collections import deque
from functools import cached_property

import numpy as np

from .groups import code_dtype, group_from_spec
from .storage import is_int


class GainGraph:
    """An incidence structure plus one gain per edge over a finite group,
    held as ``codes``: a read-only array of one group code (see
    GroupAction.code) per edge, edges numbered as base.edge_ids numbers
    them.  ``gains``, the view {(line, point): element} in sorted
    (point, line) order, is built on first use; such a mapping is also
    accepted in place of the codes.  ValueError unless every edge
    carries exactly one element (code) of the group.
    """

    def __init__(self, base, group, gains):
        if not group.finite:
            raise ValueError(f"a gain graph needs a finite group, not {group!r}")
        if isinstance(gains, np.ndarray):
            if gains.shape != base.pairs.shape[:1] or gains.dtype.kind not in "iu":
                raise ValueError(f"gain codes are {len(base.pairs)} integers, one per edge")
            for e in np.flatnonzero((gains < 0) | (gains >= group.order))[:1]:
                p, b = base.pairs[base.line_order[e]].tolist()
                raise ValueError(f"gain code {gains[e]} on edge {(b, p)} "
                                 f"is not a code of {group!r}")
            codes = gains
        else:
            p, b = base.pairs[base.line_order].T.tolist()
            edges = list(zip(b, p))
            gains = dict(gains)
            if set(gains) != set(edges):
                missing = set(edges) - set(gains)
                extra = set(gains) - set(edges)
                raise ValueError(f"gain table mismatch: missing {sorted(missing)[:3]},"
                                 f" extra {sorted(extra)[:3]}")
            codes = []
            for e in edges:
                try:
                    codes.append(group.code(gains[e]))
                except (KeyError, TypeError):
                    raise ValueError(f"gain {gains[e]!r} on edge {e} is not an "
                                     f"element of {group!r}") from None
        self.base = base
        self.group = group
        self.codes = np.array(codes, dtype=code_dtype(group.order))
        self.codes.flags.writeable = False

    @cached_property
    def gains(self):
        els = self.group.elements()
        p, b = self.base.pairs.T.tolist()
        codes = self.codes[np.argsort(self.base.line_order, kind="stable")].tolist()
        return {(line, point): els[c] for point, line, c in zip(p, b, codes)}

    def gain(self, b, p):
        """Gain of the edge from line b to point p (indices, not eids)."""
        return self.gains[(b, p)]

    def __repr__(self):
        return f"GainGraph({self.base!r}, group={self.group!r})"


def switch(g, f):
    """Regauge by a switching function f mapping every eid to a group element.

    The new gain of the edge from line b to point p is
    f(p) gain f(b)^-1.
    """
    base, group = g.base, g.group
    for e in range(base.n_elements):
        if e not in f:
            raise ValueError(f"switching function misses eid {e}")
    new_gains = {}
    for (b, p), phi in g.gains.items():
        fp = f[base.point_eid(p)]
        fb = f[base.line_eid(b)]
        new_gains[(b, p)] = group.compose(fp, group.compose(phi, group.inverse(fb)))
    return GainGraph(base, group, new_gains)


def identity_gains(base, group):
    return GainGraph(base, group, np.full(len(base.pairs), group.code(group.identity())))


def _tree_walk(base):
    """Breadth-first walk of the incidence graph from line 0, neighbors in
    ascending eid order.

    Yields (parent eid, child eid, b, p) for each tree edge, (b, p) being
    its (line, point) indices.  Raises on a disconnected graph once the
    walk ends.
    """
    adj = base.adjacency
    n_points = base.n_points
    root = base.line_eid(0)
    seen = {root}
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                if u >= n_points:
                    yield u, v, u - n_points, v
                else:
                    yield u, v, v - n_points, u
                queue.append(v)
    if len(seen) != base.n_elements:
        raise ValueError("incidence graph is disconnected")


def spanning_tree_edges(base):
    """Deterministic BFS spanning tree of the incidence graph.

    Rooted at the lowest-indexed line vertex; neighbors visited in
    ascending eid order.  Returns edges as (line, point) index pairs.
    Raises on a disconnected graph.
    """
    return sorted((b, p) for _, _, b, p in _tree_walk(base))


def spanning_tree_gauge_codes(base, group, codes):
    """Switch many assignments at once so that every spanning-tree edge
    carries the identity gain, column j of the result being column j of
    codes gauge-fixed, code for code.  Row i of the (edges, S) array codes
    holds the gain codes of edge i, numbered as in GainGraph, one column
    per assignment.  Two columns gauge to the same codes exactly when
    their assignments are switching-equivalent."""
    # f holds one switching function per column; switching puts the gain
    # f(p) phi f(b)^-1 on each edge (b, p).
    f = np.empty((base.n_elements, codes.shape[1]), dtype=codes.dtype)
    f[base.line_eid(0)] = group.code(group.identity())
    for u, v, b, p in _tree_walk(base):
        # new gain f(p) phi f(b)^-1 = id  =>  f(p) = f(b) phi^-1, f(b) = f(p) phi
        phi = codes[base.edge_ids[b, p]]
        f[v] = group.compose_codes(f[u], group.inverse_codes(phi) if v == p else phi)
    p, b = base.pairs[base.line_order].T
    fb = group.inverse_codes(f[base.n_points + b])
    return group.compose_codes(f[p], group.compose_codes(codes, fb))


# -- JSON interchange --------------------------------------------------------


def gains_to_json(g):
    return {
        "group": g.group.spec(),
        "gains": [[p, b, g.group.encode(phi)] for (b, p), phi in g.gains.items()],
    }


def gains_from_json(base, doc):
    if not isinstance(doc, dict) or not isinstance(doc.get("gains"), list):
        raise ValueError("a gains document is an object with a 'gains' list")
    group = group_from_spec(doc.get("group"))
    gains = {}
    for entry in doc["gains"]:
        if not (isinstance(entry, list) and len(entry) == 3
                and is_int(entry[0]) and is_int(entry[1])):
            raise ValueError(f"a gain entry is [point, line, element], not {entry!r}")
        p, b, enc = entry
        if (b, p) in gains:
            raise ValueError(f"two gain entries for point {p} and line {b}")
        gains[(b, p)] = group.decode(enc)
    return GainGraph(base, group, gains)
