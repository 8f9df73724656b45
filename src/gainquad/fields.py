"""Arithmetic for small prime-power fields GF(p^n).

Field elements of GF(p^n) are coefficient tuples of length n in the
polynomial basis, lowest degree first, reduced mod p.  Tuples are value
types with a total (lexicographic) order, which keeps every enumeration
in the package byte-reproducible.
"""

from functools import cached_property
from itertools import product

import numpy as np

from .storage import is_int

MAX_ORDER = 1 << 16

# Fixed moduli for the extension fields we ship by default.  Coefficients
# are lowest degree first and include the leading 1.
_FIXED_MODULI = {
    (2, 2): (1, 1, 1),         # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),      # x^3 + x + 1
    (3, 2): (1, 0, 1),         # x^2 + 1
    (2, 4): (1, 1, 0, 0, 1),   # x^4 + x + 1
}


def is_prime(m):
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def _poly_mod(num, den, p):
    """Remainder of num / den over GF(p); polys are low-first coefficient lists."""
    num = [c % p for c in num]
    dn = len(den) - 1
    assert den[-1] == 1, "divisor must be monic"
    for k in range(len(num) - 1, dn - 1, -1):
        c = num[k]
        if c:
            shift = k - dn
            for i, m in enumerate(den):
                num[shift + i] = (num[shift + i] - c * m) % p
    return num[:dn] if dn else []


def _is_irreducible(mod, p):
    n = len(mod) - 1
    if n < 1 or mod[-1] != 1:
        return False
    # Trial division by every monic polynomial of degree 1..n//2.
    for d in range(1, n // 2 + 1):
        for tail in product(range(p), repeat=d):
            den = list(tail) + [1]
            if not any(_poly_mod(mod, den, p)):
                return False
    return True


def _find_irreducible(p, n):
    for tail in product(range(p), repeat=n):
        cand = tuple(tail) + (1,)
        if _is_irreducible(cand, p):
            return cand
    raise ValueError(f"no irreducible modulus of degree {n} over GF({p})")


class GF:
    """The field GF(p^n) in a fixed polynomial basis.

    Elements are coefficient tuples of length n.  A field is fixed by
    (p, n): its modulus is the shipped one for orders 4, 8, 9, 16, the
    monic x for prime fields, and the lexicographically smallest monic
    irreducible otherwise.  The order ceiling is checked before any other
    arithmetic on p and n.  Products are the polynomial product mod the
    modulus, and the inverse of a is a^(q-2); both take field elements
    only, and ``element()`` is where ints, lists and unreduced
    coefficients are coerced to elements.  ``code_tables`` holds the same
    arithmetic as numpy tables on element ranks, built from the modulus
    on first use.
    """

    finite = True

    def __init__(self, p, n=1):
        if n < 1:
            raise ValueError("extension degree must be positive")
        # p ** n exceeds the ceiling for every p >= 2 once n reaches the
        # ceiling's bit length, so a huge n is refused before p ** n is formed
        if n >= MAX_ORDER.bit_length() or p ** n > MAX_ORDER:
            raise ValueError(f"order {p}^{n} exceeds the {MAX_ORDER} ceiling")
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        self.p = p
        self.n = n
        self.order = p ** n
        self.modulus = _FIXED_MODULI.get((p, n)) or _find_irreducible(p, n)
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    # -- element construction ------------------------------------------------

    def element(self, x):
        """Coerce an int (base-p value) or coefficient sequence to an element."""
        if isinstance(x, int):
            x %= self.order
            coeffs = []
            for _ in range(self.n):
                coeffs.append(x % self.p)
                x //= self.p
            return tuple(coeffs)
        coeffs = tuple(int(c) % self.p for c in x)
        if len(coeffs) != self.n:
            raise ValueError(f"expected {self.n} coefficients, got {len(coeffs)}")
        return coeffs

    def to_int(self, a):
        v = 0
        for c in reversed(a):
            v = v * self.p + c
        return v

    def elements(self):
        """All elements in lexicographic coefficient order."""
        return list(product(range(self.p), repeat=self.n))

    def _checked(self, a):
        if not (isinstance(a, tuple) and len(a) == self.n
                and all(is_int(c) and 0 <= c < self.p for c in a)):
            raise TypeError(f"{a!r} is not an element of {self!r}; "
                            "coerce it with element()")
        return a

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        return self._poly_mul(self._checked(a), self._checked(b))

    def inv(self, a):
        if self._checked(a) == self.zero:
            raise ZeroDivisionError("inverse of zero")
        result, e = self.one, self.order - 2
        while e:
            if e & 1:
                result = self._poly_mul(result, a)
            a = self._poly_mul(a, a)
            e >>= 1
        return result

    def _poly_mul(self, a, b):
        """The polynomial product mod the modulus."""
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        rem = _poly_mod(prod, self.modulus, self.p)
        return tuple(rem + [0] * (self.n - len(rem)))

    @cached_property
    def code_tables(self):
        """(add, mul, neg) on codes, the ranks of elements in elements():
        add[a, b] and mul[a, b] are q x q int64 tables, and neg[a] has q
        entries, for arithmetic on whole arrays of codes at once.

        The product is shift-and-add: row i of shifts holds x^i b for every
        b, reduced by the modulus, and a b is the sum of a_i (x^i b)."""
        p = self.p
        coeffs = np.array(self.elements(), dtype=np.int64)
        place = p ** np.arange(self.n - 1, -1, -1, dtype=np.int64)
        add = (coeffs[:, None, :] + coeffs[None, :, :]) % p @ place
        neg = -coeffs % p @ place
        low = np.array(self.modulus[:-1], dtype=np.int64)
        shifts = [coeffs]
        for _ in range(self.n - 1):
            b = shifts[-1]
            # x b moves each coefficient up a place; x^n folds back as -low
            up = np.concatenate([np.zeros_like(b[:, :1]), b[:, :-1]], axis=1)
            shifts.append((up - b[:, -1:] * low) % p)
        mul = np.tensordot(coeffs, np.array(shifts), axes=(1, 0)) % p @ place
        return add, mul, neg

    # -- encoding ------------------------------------------------------------

    def encode(self, a):
        return list(a)

    def decode(self, d):
        """The element whose JSON form is d: n coefficients in 0..p-1."""
        if (not isinstance(d, (list, tuple)) or len(d) != self.n
                or not all(is_int(c) and 0 <= c < self.p for c in d)):
            raise ValueError(f"an element of {self!r} is a list of {self.n} "
                             f"integers in 0..{self.p - 1}, not {d!r}")
        return tuple(d)

    def render(self, a):
        return str(self.to_int(a))


def field_from_order(q):
    """GF(q) for a prime power q, factoring q deterministically."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    if q > MAX_ORDER:
        raise ValueError(f"order {q} exceeds the {MAX_ORDER} ceiling")
    p = 2
    while q % p:
        p += 1
    n = 0
    m = q
    while m > 1:
        if m % p:
            raise ValueError(f"{q} is not a prime power")
        m //= p
        n += 1
    return GF(p, n)
