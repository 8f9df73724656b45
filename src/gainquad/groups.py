"""Groups acting on a set on the left.

Every shipped instance is a group acting on itself by its own operation,
which is a regular action (free and transitive).  Elements are hashable
value types with a total order so that enumeration-heavy callers stay
deterministic.

Finite groups also number their elements: the code of an element is its
rank in ``elements()``, and ``compose_codes``/``inverse_codes`` apply the
group law to whole numpy arrays of codes at once.
"""

import numpy as np

from .fields import GF, Rationals
from .storage import is_int


def code_dtype(order):
    """Narrowest unsigned dtype in which two codes of a group of this
    order add without wrapping."""
    for dtype in (np.uint8, np.uint16, np.uint32):
        if 2 * (order - 1) <= np.iinfo(dtype).max:
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

    def code(self, g):
        """Rank of a finite group element in ``elements()``."""
        raise NotImplementedError

    def compose_codes(self, a, b):
        """compose on arrays of codes, elementwise; dtype is kept."""
        raise NotImplementedError

    def inverse_codes(self, a):
        """inverse on an array of codes, elementwise; dtype is kept."""
        raise NotImplementedError

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

    def code(self, g):
        return g

    def compose_codes(self, a, b):
        return (a + b) % self.n

    def inverse_codes(self, a):
        return (self.n - a) % self.n

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

    def code(self, g):
        # elements() is lexicographic in the coefficient tuple, so the
        # lowest-degree coefficient is the most significant base-p digit.
        if not self.finite:
            raise ValueError("only finite groups have element codes")
        c = 0
        for x in g:
            c = c * self.field.p + x
        return c

    def compose_codes(self, a, b):
        p, n = self.field.p, self.field.n
        if p == 2:
            return a ^ b
        out = np.zeros_like(a)
        for i in range(n):
            w = p ** i
            out += ((a // w) % p + (b // w) % p) % p * w
        return out

    def inverse_codes(self, a):
        p, n = self.field.p, self.field.n
        if p == 2:
            return a.copy()
        out = np.zeros_like(a)
        for i in range(n):
            w = p ** i
            out += (p - (a // w) % p) % p * w
        return out

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
