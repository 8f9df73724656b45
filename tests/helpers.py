"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's own algorithms: chain
counting enumerates sequences directly, isomorphism testing tries point
permutations, and field arithmetic is redone with schoolbook polynomial
division.
"""

from itertools import combinations, permutations, product

import numpy as np

from gainquad.geometry import IncidenceStructure, count_shortest_chains, distance


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


# -- chain oracle -------------------------------------------------------------


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


def enumerate_chains(s, u, v, k):
    """Count sequences (u, ..., v) of length k with consecutive incidences.

    Walks may backtrack; at the shortest length they never do, which is
    why this agrees with the breadth-first counter.
    """
    if k == 0:
        return 1 if u == v else 0
    adj = s.adjacency()
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
    return next(b for b in F.elements() if F._poly_mul(a, b) == F.one)


# -- symplectic quadrangle oracle ------------------------------------------------


def naive_symplectic(F):
    """(vectors, line_sets) of W(q) from the polynomial product alone.

    Points are the normalized nonzero vectors of F^4 ordered by leading
    position, then coordinates.  The line through two orthogonal points
    i, j is the set of points orthogonal to both: the span U of a totally
    isotropic 2-space is its own perp, so {i, j}^perp = U.
    """
    els = F.elements()
    code = {a: k for k, a in enumerate(els)}
    table = np.array([[code[F._poly_mul(a, b)] for b in els] for a in els])
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
    perp = form == code[F.zero]
    lines = {frozenset(np.flatnonzero(perp[i] & perp[j]).tolist())
             for i, j in combinations(range(len(vectors)), 2) if perp[i, j]}
    return vectors, sorted(lines, key=sorted)
