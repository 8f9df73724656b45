"""Groups acting on a set on the left.

Every shipped instance is a group acting on itself by its own operation,
which is a regular action (free and transitive).  Elements are hashable
value types with a total order so that enumeration-heavy callers stay
deterministic.

Finite groups also number their elements: the code of an element is its
rank in ``elements()``.  ``compose_codes``/``inverse_codes`` apply the
group law to whole numpy arrays of codes at once, in ``code_dtype(order)``.
Z_n and GF(p) codes are the integers mod n, so they compose by one add
and one wrap; GF(2^n) codes are the coefficient bits in lexicographic
order, so they compose by XOR.  GF(p^n) with p odd and n > 1 reads its
Cayley table on ranks, built from ``compose`` on first use; that table
is also the reference the arithmetic laws are tested against.
"""

from functools import cached_property

import numpy as np

from .fields import GF, MAX_ORDER
from .storage import is_int


def code_dtype(order):
    """Narrowest unsigned dtype that holds order*order - 1, the largest
    index into the flat Cayley table of a group of this order.  It also
    holds the sum of two codes, at most 2 (order - 1).  Orders are at
    most MAX_ORDER, so uint32 always does."""
    for dtype, bits in ((np.uint8, 8), (np.uint16, 16)):
        if order * order <= 1 << bits:
            return dtype
    return np.uint32


def _wrapped(s, n):
    """s mod n, in place in s as an array, for codes s < 2n of an unsigned
    dtype: s - n wraps above s exactly when s < n.  n is a scalar of that
    dtype, so s - n stays in it under any numpy casting rules."""
    s = np.asarray(s)
    return np.minimum(s, s - n, out=s)


def _add_codes(order, a, b):
    """(a + b) mod order on codes of any integer dtype, a new array of
    code_dtype(order)."""
    dtype = code_dtype(order)
    return _wrapped(np.add(a, b, dtype=dtype, casting="unsafe"), dtype(order))


def _negate_codes(order, a):
    """(order - a) mod order on codes of any integer dtype, a new array of
    code_dtype(order)."""
    dtype = code_dtype(order)
    n = dtype(order)
    return _wrapped(np.subtract(n, a, dtype=dtype, casting="unsafe"), n)


class GroupAction:
    """A group G together with a left action on a set of labels.

    Subclasses provide identity, compose, inverse and act; elements() and
    lambdas(), the group and the label set in their canonical total
    order; spec(), a JSON-able description of the group; and encode and
    decode for single elements.
    """

    regular = False
    finite = False
    order = None

    @cached_property
    def _ranks(self):
        """The rank of each element of a finite group in elements()."""
        return {g: i for i, g in enumerate(self.elements())}

    @cached_property
    def _code_tables(self):
        """(table, inverses) of a finite group: the Cayley table on ranks
        flattened row-major, and the rank of each element's inverse."""
        els, rank = self.elements(), self._ranks
        dtype = code_dtype(self.order)
        table = np.array([rank[self.compose(g, h)] for g in els for h in els], dtype=dtype)
        inverses = np.array([rank[self.inverse(g)] for g in els], dtype=dtype)
        return table, inverses

    def code(self, g):
        """Rank of a finite group element in ``elements()``."""
        return self._ranks[g]

    def compose_codes(self, a, b):
        """compose on arrays of codes, elementwise, as a new array of
        code_dtype(order).  Codes narrower than that are widened first,
        so that a * order + b cannot wrap."""
        table = self._code_tables[0]
        a = a.astype(np.promote_types(a.dtype, table.dtype), copy=False)
        return np.take(table, a * self.order + b)

    def inverse_codes(self, a):
        """inverse on an array of codes, elementwise, as a new array of
        code_dtype(order)."""
        return np.take(self._code_tables[1], a)

    def render(self, g):
        return str(g)


class CyclicGroup(GroupAction):
    """Z_n under addition, acting on itself."""

    regular = True
    finite = True

    def __init__(self, n):
        if n < 1:
            raise ValueError("modulus must be positive")
        if n > MAX_ORDER:
            raise ValueError(f"modulus {n} exceeds the {MAX_ORDER} ceiling")
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

    def compose_codes(self, a, b):
        return _add_codes(self.n, a, b)

    def inverse_codes(self, a):
        return _negate_codes(self.n, a)

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

    def compose_codes(self, a, b):
        if self.field.p == 2:
            return np.asarray(np.bitwise_xor(a, b, dtype=code_dtype(self.order),
                                             casting="unsafe"))
        if self.field.n == 1:
            return _add_codes(self.order, a, b)
        return super().compose_codes(a, b)

    def inverse_codes(self, a):
        if self.field.p == 2:
            return np.array(a, dtype=code_dtype(self.order))
        if self.field.n == 1:
            return _negate_codes(self.order, a)
        return super().inverse_codes(a)

    def elements(self):
        return self.field.elements()

    def lambdas(self):
        return self.field.elements()

    def spec(self):
        return {"kind": "GFpn", "p": self.field.p, "n": self.field.n}

    def encode(self, g):
        return self.field.encode(g)

    def decode(self, d):
        return self.field.decode(d)

    def render(self, g):
        return self.field.render(g)


def _spec_field(spec, key, default=None):
    x = spec.get(key, default)
    if not (is_int(x) and x > 0):
        raise ValueError(f"group spec field {key!r} is a positive integer, not {x!r}")
    return x


def group_from_spec(spec):
    if not isinstance(spec, dict):
        raise ValueError(f"a group spec is a JSON object, not {spec!r}")
    kind = spec.get("kind")
    if kind == "Zn":
        return CyclicGroup(_spec_field(spec, "modulus"))
    if kind == "GFpn":
        return AdditiveGroup(GF(_spec_field(spec, "p"), _spec_field(spec, "n", 1)))
    raise ValueError(f"unknown group kind {kind!r}")
