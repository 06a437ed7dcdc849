"""Finite-field layer: construction, canonical choices, and arithmetic laws.

Constants below were frozen from hand computation (polynomial arithmetic mod
small primes) so they are independent of the code under test.
"""

import random

import pytest

from octadesign.errors import (
    DivisionByZero,
    InvalidGenerator,
    MissingFourthRoot,
    NotPrime,
    ReducibleModulus,
    WrongDegree,
)
from octadesign.gf import (
    factor_prime_power,
    field_create,
    is_char5_identity,
    parse_field_spec,
    prime_factors,
)

# Lex-smallest irreducible monic modulus, constant term first.
EXPECTED_MODULUS = {
    (5, 1): (0, 1),  # x
    (13, 1): (0, 1),
    (3, 2): (1, 0, 1),  # x^2 + 1
    (5, 2): (1, 1, 1),  # x^2 + x + 1  (x^2 + 1 splits as (x-2)(x+2))
    (5, 3): (1, 0, 1, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (13, 2): (1, 3, 1),
}

# Lex-smallest multiplicative generator for the modulus above.
EXPECTED_OMEGA = {
    (5, 1): (2,),
    (13, 1): (2,),
    (17, 1): (3,),
    (29, 1): (2,),
    (3, 2): (1, 1),  # 1 + x
    (5, 2): (1, 3),  # 1 + 3x
    (5, 3): (0, 0, 2),
    (13, 2): (1, 6),
}

# i = omega ** ((q - 1) / 4); squares to -1.
EXPECTED_I = {
    (5, 1): (2,),
    (13, 1): (8,),
    (17, 1): (13,),
    (29, 1): (12,),
    (3, 2): (0, 2),  # 2x, since (2x)^2 = 4 x^2 = -4 = -1 mod 3
    (5, 2): (2, 0),
    (5, 3): (3, 0, 0),
    (13, 2): (8, 0),
}


def test_factor_prime_power():
    assert factor_prime_power(5) == (5, 1)
    assert factor_prime_power(9) == (3, 2)
    assert factor_prime_power(13) == (13, 1)
    assert factor_prime_power(32) == (2, 5)
    assert factor_prime_power(121) == (11, 2)
    assert factor_prime_power(169) == (13, 2)


@pytest.mark.parametrize("bad", [0, 1, 6, 12, 100])
def test_factor_prime_power_rejects(bad):
    with pytest.raises(NotPrime):
        factor_prime_power(bad)


def test_prime_factors():
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert prime_factors(360) == [2, 3, 5]


@pytest.mark.parametrize("p,alpha", sorted(EXPECTED_MODULUS))
def test_modulus_is_lex_smallest_irreducible(p, alpha):
    field = field_create(p, alpha)
    assert field.modulus == EXPECTED_MODULUS[(p, alpha)]


@pytest.mark.parametrize("p,alpha", sorted(EXPECTED_OMEGA))
def test_generator_is_lex_smallest(p, alpha):
    field = field_create(p, alpha)
    assert field.omega.coeffs == EXPECTED_OMEGA[(p, alpha)]
    assert field.omega.multiplicative_order() == field.q - 1


@pytest.mark.parametrize("p,alpha", sorted(EXPECTED_I))
def test_fourth_root_of_unity(p, alpha):
    field = field_create(p, alpha)
    i = field.i_elem
    assert i.coeffs == EXPECTED_I[(p, alpha)]
    assert i * i == -field.one
    assert i.multiplicative_order() == 4


def test_no_fourth_root_when_q_is_3_mod_4():
    field = field_create(7, 1)
    assert field.i_elem is None
    with pytest.raises(MissingFourthRoot):
        is_char5_identity(field)


@pytest.mark.parametrize(
    "p,alpha,expected",
    [(5, 1, True), (5, 2, True), (3, 2, False), (13, 1, False), (17, 1, False)],
)
def test_char5_identity(p, alpha, expected):
    # 1 + i = -i exactly in characteristic 5: with i = 2 there, both are 3.
    assert is_char5_identity(field_create(p, alpha)) is expected


def test_char5_identity_holds_for_either_fourth_root():
    # With generator x + 2, i = 3 = -2: then 1 + i = 4 is not -i = 2, but
    # the identity holds for -i = 2.
    field = field_create(5, 2, generator_override=(2, 1))
    i = field.i_elem
    assert field.one + i != -i
    assert field.one - i == i
    assert is_char5_identity(field) is True
    assert is_char5_identity(field_create(13, 1, generator_override=6)) is False


def test_field_create_rejects_bad_input():
    with pytest.raises(NotPrime):
        field_create(6, 1)
    with pytest.raises(WrongDegree):
        field_create(5, 0)
    with pytest.raises(WrongDegree):
        field_create(3, 2, modulus_override=(1, 1))  # too short
    with pytest.raises(WrongDegree):
        field_create(3, 2, modulus_override=(1, 0, 2))  # not monic
    with pytest.raises(ReducibleModulus):
        field_create(3, 2, modulus_override=(1, 2, 1))  # (x + 1)^2
    with pytest.raises(InvalidGenerator):
        field_create(13, 1, generator_override=4)  # order 6, not 12
    with pytest.raises(InvalidGenerator):
        field_create(13, 1, generator_override=0)


def test_modulus_override_changes_presentation_only():
    # x^2 + x + 2 is the next irreducible after x^2 + 1 over F_3.
    field = field_create(3, 2, modulus_override=(2, 1, 1))
    assert field.q == 9
    assert field.omega.multiplicative_order() == 8
    i = field.i_elem
    assert i * i == -field.one


def test_generator_override():
    field = field_create(13, 1, generator_override=6)
    assert field.omega.coeffs == (6,)
    assert field.omega.multiplicative_order() == 12
    i = field.i_elem
    assert i * i == -field.one


def test_element_embedding_and_validation():
    field = field_create(3, 2)
    assert field.element(7).coeffs == (1, 0)  # ints embed as constants mod p
    assert field.element((1, 2)).coeffs == (1, 2)
    with pytest.raises(WrongDegree):
        field.element((1, 2, 0))


def test_elements_enumeration_is_lex_ordered():
    field = field_create(3, 2)
    elems = list(field.elements())
    assert len(elems) == 9
    coeffs = [e.coeffs for e in elems]
    assert coeffs == sorted(coeffs)
    assert coeffs[0] == (0, 0)


def test_basic_arithmetic_f13():
    field = field_create(13, 1)
    two = field.element(2)
    assert (two**12) == field.one
    assert two.inverse() == field.element(7)
    assert (field.element(5) + field.element(9)).coeffs == (1,)
    assert (field.element(5) - 9).coeffs == (9,)
    assert (field.element(5) / field.element(5)) == field.one
    assert two**-1 == two.inverse()


def test_basic_arithmetic_f9():
    field = field_create(3, 2)
    x = field.element((0, 1))
    assert (x * x).coeffs == (2, 0)  # x^2 = -1 = 2 under x^2 + 1
    assert (-x).coeffs == (0, 2)
    assert (x + x + x).is_zero()


def test_division_by_zero():
    field = field_create(5, 1)
    with pytest.raises(DivisionByZero):
        field.zero.inverse()
    with pytest.raises(DivisionByZero):
        field.one / field.zero
    with pytest.raises(DivisionByZero):
        field.zero.multiplicative_order()


def test_field_laws_random_sample():
    rng = random.Random(0)
    for p, alpha in [(13, 1), (3, 2), (5, 2)]:
        field = field_create(p, alpha)
        elems = list(field.elements())
        for _ in range(100):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a + b == b + a
            assert (a * b) * c == a * (b * c)
            if not a.is_zero():
                assert a * a.inverse() == field.one
            assert a - a == field.zero


def test_multiplicative_order_divides_group_order():
    field = field_create(5, 2)
    for e in field.elements():
        if e.is_zero():
            continue
        assert 24 % e.multiplicative_order() == 0


def test_parse_and_format_field_spec():
    assert parse_field_spec("13 1 1 1") == (13, 1, (1, 1))
    assert parse_field_spec("3 2 1 0 1") == (3, 2, (1, 0, 1))
    with pytest.raises(WrongDegree):
        parse_field_spec("13 1")
    with pytest.raises(WrongDegree):
        parse_field_spec("a b c")
    with pytest.raises(WrongDegree):
        parse_field_spec("3 2 1 0")  # needs alpha + 1 coefficients
