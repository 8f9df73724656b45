"""Field arithmetic against a schoolbook oracle and the field axioms."""

import random
from fractions import Fraction
from itertools import product

import pytest

from gainquad import GF, field_from_order
from gainquad.fields import _FIXED_MODULI, _is_irreducible
from helpers import Rationals, all_elements, brute_force_inverse, oracle_add, oracle_mul

SHIPPED_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_decode_is_strict_and_element_lenient():
    F = GF(3, 2)
    assert F.decode([2, 1]) == (2, 1)
    for bad in ([3, 0], [-1, 0], [1], [1, 0, 0], 5, [1.0, 0], [True, 0], "21"):
        with pytest.raises(ValueError):
            F.decode(bad)
    assert F.element(7) == (1, 2) and F.element([4, 0]) == (1, 0)


def test_gf2_addition_wraps():
    F = GF(2)
    assert F.add(F.one, F.one) == F.zero


def test_gf4_generator_square():
    F = GF(2, 2)
    x = F.element([0, 1])
    assert F.mul(x, x) == F.element([1, 1])  # x^2 = x + 1


def test_gf9_generator_square():
    F = GF(3, 2)
    x = F.element([0, 1])
    assert F.mul(x, x) == F.element([2, 0])  # x^2 = -1 = 2


def test_fixed_moduli():
    assert GF(2, 2).modulus == (1, 1, 1)
    assert GF(2, 3).modulus == (1, 1, 0, 1)
    assert GF(3, 2).modulus == (1, 0, 1)
    assert GF(2, 4).modulus == (1, 1, 0, 0, 1)


def test_fixed_moduli_are_irreducible():
    for (p, n), modulus in _FIXED_MODULI.items():
        assert len(modulus) == n + 1 and _is_irreducible(modulus, p)
    assert not _is_irreducible((1, 0, 1), 2)  # x^2 + 1 = (x+1)^2 over GF(2)


def test_composite_characteristic_rejected():
    with pytest.raises(ValueError):
        GF(6)


def test_oversized_order_rejected():
    with pytest.raises(ValueError):
        GF(2, 17)


@pytest.mark.parametrize("q", SHIPPED_ORDERS)
def test_full_tables_against_oracle(q):
    F = field_from_order(q)
    els = F.elements()
    assert len(els) == q
    assert els == all_elements(F.p, F.n)
    for a in els:
        for b in els:
            assert F.add(a, b) == oracle_add(F.p, a, b)
            assert F.mul(a, b) == oracle_mul(F.p, F.modulus, a, b)


@pytest.mark.parametrize("p, n", [(2, 16), (3, 10), (65521, 1)])
def test_products_and_inverses_at_large_orders(p, n):
    F = GF(p, n)
    rng = random.Random(p * n)
    els = [F.element(rng.randrange(F.order)) for _ in range(300)] + [F.zero, F.one]
    for a, b in zip(els, els[1:] + els[:1]):
        assert F.mul(a, b) == oracle_mul(F.p, F.modulus, a, b)
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
    assert "code_tables" not in vars(F)  # products and inverses build no table


# the extension orders past 16 take their moduli from _find_irreducible
@pytest.mark.parametrize("q", SHIPPED_ORDERS + [25, 27, 32, 49, 64, 81, 125, 128, 256])
def test_code_tables_match_element_arithmetic(q):
    F = field_from_order(q)
    assert "code_tables" not in vars(F)  # built on first use only
    add, mul, neg = F.code_tables
    els = F.elements()
    assert add.shape == mul.shape == (q, q) and neg.shape == (q,)
    for i, a in enumerate(els):
        assert els[neg[i]] == F.neg(a)
    pairs = list(product(range(q), repeat=2))
    if q > 64:
        pairs = random.Random(q).sample(pairs, 4096)
    for i, j in pairs:
        a, b = els[i], els[j]
        assert els[add[i, j]] == F.add(a, b)
        assert els[mul[i, j]] == oracle_mul(F.p, F.modulus, a, b)


def test_products_take_elements_and_element_coerces():
    F = GF(3, 2)
    a, b = F.element(5), F.element(7)
    for x in (list(a), tuple(c + 3 for c in a)):
        with pytest.raises(TypeError):
            F.mul(x, b)
        with pytest.raises(TypeError):
            F.inv(x)
        assert F.element(x) == a
        assert F.mul(F.element(x), b) == F.mul(a, b)


@pytest.mark.parametrize("q", SHIPPED_ORDERS)
def test_inverses_and_axioms(q):
    F = field_from_order(q)
    els = F.elements()
    for a in els:
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
            assert F.inv(a) == brute_force_inverse(F, a)
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero)
    # distributivity on the full cube is overkill; sample the diagonal
    for a in els:
        for b in els:
            left = F.mul(a, F.add(b, b))
            right = F.add(F.mul(a, b), F.mul(a, b))
            assert left == right


@pytest.mark.parametrize("q", SHIPPED_ORDERS)
def test_additive_group_elementary_abelian(q):
    F = field_from_order(q)
    for a in F.elements():
        if a == F.zero:
            continue
        total = a
        order = 1
        while total != F.zero:
            total = F.add(total, a)
            order += 1
        assert order == F.p


@pytest.mark.parametrize("q", SHIPPED_ORDERS)
def test_multiplicative_group_cyclic(q):
    F = field_from_order(q)
    orders = set()
    for a in F.elements():
        if a == F.zero:
            continue
        power = a
        order = 1
        while power != F.one:
            power = F.mul(power, a)
            order += 1
        assert (q - 1) % order == 0
        orders.add(order)
    assert max(orders) == q - 1  # a generator exists


def test_rational_basics():
    Q = Rationals()
    assert Q.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert Q.inv(Fraction(-3, 7)) == Fraction(-7, 3)
    assert Q.mul(Fraction(2, 3), Fraction(3, 2)) == Q.one
    with pytest.raises(ZeroDivisionError):
        Q.inv(Q.zero)


def test_rational_lowest_terms():
    Q = Rationals()
    a = Q.element(6, -4)
    assert a.numerator == -3 and a.denominator == 2


def test_rationals_cannot_be_enumerated():
    with pytest.raises(ValueError):
        Rationals().elements()


def test_element_roundtrip_encoding():
    F = GF(2, 4)
    for a in F.elements():
        assert F.decode(F.encode(a)) == a
        assert F.element(F.to_int(a)) == a
