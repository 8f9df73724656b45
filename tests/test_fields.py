"""Field arithmetic against a schoolbook oracle and the field axioms."""

from fractions import Fraction

import pytest

from gainquad import GF, Rationals, field_from_order
from helpers import all_elements, oracle_add, oracle_mul

SHIPPED_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_decode_is_strict_and_element_lenient():
    F = GF(3, 2)
    assert F.decode([2, 1]) == (2, 1)
    for bad in ([3, 0], [-1, 0], [1], [1, 0, 0], 5, [1.0, 0], [True, 0], "21"):
        with pytest.raises(ValueError):
            F.decode(bad)
    assert F.element(7) == (1, 2) and F.element([4, 0]) == (1, 0)
    Q = Rationals()
    assert Q.decode([2, -4]) == Fraction(-1, 2)
    for bad in ([1, 0], [1], [1, 2, 3], [0.5, 1], 3):
        with pytest.raises(ValueError):
            Q.decode(bad)


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


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        GF(2, 2, modulus=(1, 0, 1))  # x^2 + 1 = (x+1)^2 over GF(2)


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


@pytest.mark.parametrize("q", SHIPPED_ORDERS)
def test_inverses_and_axioms(q):
    F = field_from_order(q)
    els = F.elements()
    for a in els:
        assert F.add(a, F.neg(a)) == F.zero
        if a != F.zero:
            assert F.mul(a, F.inv(a)) == F.one
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
