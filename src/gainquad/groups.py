"""Groups acting on a set on the left.

Every shipped instance is a group acting on itself by its own operation,
which is a regular action (free and transitive).  Elements are hashable
value types with a total order so that enumeration-heavy callers stay
deterministic.

Finite groups also number their elements: the code of an element is its
rank in ``elements()``.  ``compose_codes``/``inverse_codes`` apply the
group law to whole numpy arrays of codes at once by reading the group's
Cayley table on ranks, built from ``compose`` on first use.
"""

from functools import cached_property

import numpy as np

from .fields import GF, Rationals
from .storage import is_int


def code_dtype(order):
    """Narrowest unsigned dtype that holds order*order - 1, the largest
    index into the flat Cayley table of a group of this order."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if order * order - 1 <= np.iinfo(dtype).max:
            return dtype
    return np.uint64


class GroupAction:
    """A group G together with a left action on a set of labels.

    Subclasses provide identity/compose/inverse, act, and enumeration of
    both the group and the label set.
    """

    regular = False
    finite = False
    order = None

    def identity(self):
        raise NotImplementedError

    def compose(self, g, h):
        raise NotImplementedError

    def inverse(self, g):
        raise NotImplementedError

    def act(self, g, lam):
        raise NotImplementedError

    def elements(self):
        """Group elements in their canonical total order."""
        raise NotImplementedError

    @cached_property
    def _code_tables(self):
        """(rank, table, inverses) of a finite group: the rank of each
        element in elements(), the Cayley table on ranks flattened
        row-major, and the rank of each element's inverse."""
        els = self.elements()
        rank = {g: i for i, g in enumerate(els)}
        dtype = code_dtype(self.order)
        table = np.array([rank[self.compose(g, h)] for g in els for h in els], dtype=dtype)
        inverses = np.array([rank[self.inverse(g)] for g in els], dtype=dtype)
        return rank, table, inverses

    def code(self, g):
        """Rank of a finite group element in ``elements()``."""
        return self._code_tables[0][g]

    def compose_codes(self, a, b):
        """compose on arrays of codes, elementwise.  Codes narrower than
        code_dtype(order) are widened first, so that a * order + b cannot
        wrap."""
        table = self._code_tables[1]
        a = a.astype(np.promote_types(a.dtype, table.dtype), copy=False)
        return np.take(table, a * self.order + b)

    def inverse_codes(self, a):
        """inverse on an array of codes, elementwise."""
        return np.take(self._code_tables[2], a)

    def lambdas(self):
        """Label-set elements in their canonical total order."""
        raise NotImplementedError

    def spec(self):
        """JSON-able description of the group."""
        raise NotImplementedError

    def encode(self, g):
        raise NotImplementedError

    def decode(self, d):
        raise NotImplementedError

    def render(self, g):
        return str(g)


class CyclicGroup(GroupAction):
    """Z_n under addition, acting on itself."""

    regular = True
    finite = True

    def __init__(self, n):
        if n < 1:
            raise ValueError("modulus must be positive")
        self.n = n
        self.order = n

    def __repr__(self):
        return f"Z{self.n}"

    def __eq__(self, other):
        return isinstance(other, CyclicGroup) and self.n == other.n

    def __hash__(self):
        return hash(("Zn", self.n))

    def identity(self):
        return 0

    def compose(self, g, h):
        return (g + h) % self.n

    def inverse(self, g):
        return (-g) % self.n

    def act(self, g, lam):
        return (g + lam) % self.n

    def elements(self):
        return list(range(self.n))

    def lambdas(self):
        return list(range(self.n))

    def spec(self):
        return {"kind": "Zn", "modulus": self.n}

    def encode(self, g):
        return g

    def decode(self, d):
        if not (is_int(d) and 0 <= d < self.n):
            raise ValueError(f"an element of Z{self.n} is an integer in "
                             f"0..{self.n - 1}, not {d!r}")
        return d


class AdditiveGroup(GroupAction):
    """The additive group of a field, acting on the field by addition."""

    regular = True

    def __init__(self, field):
        self.field = field
        self.finite = field.finite
        self.order = field.order

    def __repr__(self):
        return f"({self.field},+)"

    def __eq__(self, other):
        return isinstance(other, AdditiveGroup) and self.field == other.field

    def __hash__(self):
        return hash(("add", self.field))

    def identity(self):
        return self.field.zero

    def compose(self, g, h):
        return self.field.add(g, h)

    def inverse(self, g):
        return self.field.neg(g)

    def act(self, g, lam):
        return self.field.add(g, lam)

    def elements(self):
        return self.field.elements()

    def lambdas(self):
        return self.field.elements()

    def spec(self):
        if isinstance(self.field, Rationals):
            return {"kind": "Q"}
        return {"kind": "GFpn", "p": self.field.p, "n": self.field.n}

    def encode(self, g):
        return self.field.encode(g)

    def decode(self, d):
        return self.field.decode(d)

    def render(self, g):
        return self.field.render(g)


def group_from_spec(spec):
    if not isinstance(spec, dict):
        raise ValueError(f"a group spec is a JSON object, not {spec!r}")
    kind = spec.get("kind")
    if kind == "Zn":
        return CyclicGroup(int(spec["modulus"]))
    if kind == "GFpn":
        return AdditiveGroup(GF(int(spec["p"]), int(spec.get("n", 1))))
    if kind == "Q":
        return AdditiveGroup(Rationals())
    raise ValueError(f"unknown group kind {kind!r}")
