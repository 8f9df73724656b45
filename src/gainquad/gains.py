"""Gain assignments on incidence graphs: walks, switching, gauge fixing.

Edges of an incidence graph are oriented line -> point, and a gain graph
stores exactly one group element per edge in that orientation; the gain
of a reversed traversal is the group inverse, computed on demand.  Walk
gains multiply right-to-left so that they compose with a left action.
"""

from collections import deque

from .storage import is_int


class GainGraph:
    """An incidence structure plus one gain per edge, keyed (line, point)."""

    def __init__(self, base, group, gains):
        edge_keys = {(b, p) for p, b in base.incidence}
        gains = dict(gains)
        if set(gains) != edge_keys:
            missing = edge_keys - set(gains)
            extra = set(gains) - edge_keys
            raise ValueError(f"gain table mismatch: missing {sorted(missing)[:3]},"
                             f" extra {sorted(extra)[:3]}")
        self.base = base
        self.group = group
        self.gains = gains

    def gain(self, b, p):
        """Gain of the edge from line b to point p (indices, not eids)."""
        return self.gains[(b, p)]

    def step_gain(self, u, v):
        """Gain of traversing the edge from eid u to eid v, orientation-aware."""
        ku, iu = self.base.eid_index(u)
        kv, iv = self.base.eid_index(v)
        if ku == "line" and kv == "point":
            key = (iu, iv)
            if key not in self.gains:
                raise ValueError(f"no edge between eids {u} and {v}")
            return self.gains[key]
        if ku == "point" and kv == "line":
            key = (iv, iu)
            if key not in self.gains:
                raise ValueError(f"no edge between eids {u} and {v}")
            return self.group.inverse(self.gains[key])
        raise ValueError(f"eids {u} and {v} are not adjacent element types")

    def __repr__(self):
        return f"GainGraph({self.base!r}, group={self.group!r})"


def walk_gain(g, walk):
    """Gain of a walk given as a sequence of eids.

    The result is gain(e_k)^(d_k) ... gain(e_1)^(d_1), with d = +1 on
    line -> point steps and -1 otherwise.  A single-vertex walk has the
    identity gain.
    """
    if len(walk) == 0:
        raise ValueError("malformed walk: empty sequence")
    g.base.eid_index(walk[0])
    total = g.group.identity()
    for i in range(1, len(walk)):
        total = g.group.compose(g.step_gain(walk[i - 1], walk[i]), total)
    return total


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
    e = group.identity()
    return GainGraph(base, group, {(b, p): e for p, b in base.incidence})


def _tree_walk(base):
    """Breadth-first walk of the incidence graph from line 0, neighbors in
    ascending eid order.

    Yields (parent eid, child eid, b, p) for each tree edge, (b, p) being
    its (line, point) indices.  Raises on a disconnected graph once the
    walk ends.
    """
    adj = base.adjacency()
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


def spanning_tree_gauge(g):
    """Switch so that every spanning-tree edge carries the identity gain.

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


# -- JSON interchange --------------------------------------------------------


def gains_to_json(g):
    return {
        "group": g.group.spec(),
        "gains": [[p, b, g.group.encode(phi)]
                  for (b, p), phi in sorted(g.gains.items(),
                                            key=lambda kv: (kv[0][1], kv[0][0]))],
    }


def gains_from_json(base, doc, group=None):
    from .groups import group_from_spec

    if not isinstance(doc, dict) or not isinstance(doc.get("gains"), list):
        raise ValueError("a gains document is an object with a 'gains' list")
    if group is None:
        group = group_from_spec(doc.get("group"))
    gains = {}
    for entry in doc["gains"]:
        if not (isinstance(entry, list) and len(entry) == 3
                and is_int(entry[0]) and is_int(entry[1])):
            raise ValueError(f"a gain entry is [point, line, element], not {entry!r}")
        p, b, enc = entry
        gains[(b, p)] = group.decode(enc)
    return GainGraph(base, group, gains)
