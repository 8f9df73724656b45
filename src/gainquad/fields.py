"""Arithmetic for small prime-power fields GF(p^n) and exact rationals.

Field elements of GF(p^n) are coefficient tuples of length n in the
polynomial basis, lowest degree first, reduced mod p.  Tuples are value
types with a total (lexicographic) order, which keeps every enumeration
in the package byte-reproducible.  Rationals are ``fractions.Fraction``
instances, always in lowest terms with positive denominator.
"""

from fractions import Fraction
from itertools import product

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
    while len(den) > 1 and den[-1] == 0:
        den = den[:-1]
        dn -= 1
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
    if n == 1:
        return True
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

    Elements are coefficient tuples of length n.  The modulus defaults to
    the shipped table for orders 4, 8, 9, 16, the unique degree-1 monic x
    for prime fields, and the lexicographically smallest monic irreducible
    otherwise.
    """

    finite = True

    def __init__(self, p, n=1, modulus=None):
        if not is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if n < 1:
            raise ValueError("extension degree must be positive")
        if p ** n > MAX_ORDER:
            raise ValueError(f"order {p}^{n} exceeds the {MAX_ORDER} ceiling")
        self.p = p
        self.n = n
        self.order = p ** n
        if modulus is None:
            if n == 1:
                modulus = (0, 1)
            else:
                modulus = _FIXED_MODULI.get((p, n)) or _find_irreducible(p, n)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != n + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree n")
        if not _is_irreducible(modulus, p):
            raise ValueError(f"modulus {modulus} is reducible over GF({p})")
        self.modulus = modulus
        self.zero = (0,) * n
        self.one = (1,) + (0,) * (n - 1)

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return (isinstance(other, GF) and self.p == other.p
                and self.n == other.n and self.modulus == other.modulus)

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

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

    # -- arithmetic ----------------------------------------------------------

    def add(self, a, b):
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def neg(self, a):
        return tuple((-x) % self.p for x in a)

    def sub(self, a, b):
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def mul(self, a, b):
        prod = [0] * (2 * self.n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        rem = _poly_mod(prod, list(self.modulus), self.p)
        rem += [0] * (self.n - len(rem))
        return tuple(rem)

    def inv(self, a):
        if a == self.zero:
            raise ZeroDivisionError("inverse of zero")
        # a^(q-2) by square and multiply; valid in any finite field.
        result = self.one
        base = a
        e = self.order - 2
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

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


class Rationals:
    """Exact rational arithmetic; the one infinite field we ship."""

    finite = False
    order = None
    p = 0
    n = 1

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def element(self, x, den=None):
        if den is not None:
            return Fraction(x, den)
        return Fraction(x)

    def elements(self):
        raise ValueError("the rationals cannot be enumerated")

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def encode(self, a):
        return [a.numerator, a.denominator]

    def decode(self, d):
        """The rational whose JSON form is d: [numerator, denominator]."""
        if (not isinstance(d, (list, tuple)) or len(d) != 2
                or not all(is_int(x) for x in d) or d[1] == 0):
            raise ValueError("a rational is [numerator, nonzero denominator] "
                             f"in integers, not {d!r}")
        return Fraction(d[0], d[1])

    def render(self, a):
        return str(a)


def field_from_order(q):
    """GF(q) for a prime power q, factoring q deterministically."""
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
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
