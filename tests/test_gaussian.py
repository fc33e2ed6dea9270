"""Field arithmetic, canonical formatting, and the strict parser."""

import random
from fractions import Fraction

import pytest

from recqi import (
    ZERO,
    ONE,
    I,
    GaussianRational,
    ParseError,
    as_gaussian,
    format_gaussian,
    parse_gaussian,
    pow_i,
)
from oracles import random_gaussian


def test_basic_products():
    assert (ONE + I) * (ONE - I) == as_gaussian(2)
    assert I * I == -ONE
    assert (ONE + I) * (ONE + I) == GaussianRational(0, 2)


def test_inverse_of_i_minus_one():
    # conjugate oracle: 1/z = conj(z)/norm(z), norm(i - 1) = 2
    z = I - ONE
    expected = GaussianRational(Fraction(-1, 2), Fraction(-1, 2))
    assert z.conjugate() == GaussianRational(-1, -1)
    assert z.norm() == 2
    assert ONE / z == expected
    assert expected * z == ONE


def test_pow_i_values():
    assert pow_i(0) == ONE
    assert pow_i(1) == I
    assert pow_i(2) == -ONE
    assert pow_i(3) == -I
    assert pow_i(7) == -I
    assert pow_i(-1) == -I


def test_pow_i_additive():
    for k in range(-8, 9):
        for m in range(-8, 9):
            assert pow_i(k) * pow_i(m) == pow_i(k + m)


def test_field_properties_random():
    rng = random.Random(20240901)
    for _ in range(1000):
        a = random_gaussian(rng)
        b = random_gaussian(rng)
        c = random_gaussian(rng)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a + ZERO == a and a * ONE == a
        assert a - a == ZERO


def test_division_random():
    rng = random.Random(7)
    for _ in range(1000):
        a = random_gaussian(rng)
        b = random_gaussian(rng)
        if not b:
            continue
        q = a / b
        assert q * b == a
        if a:
            assert a / a == ONE


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        ONE / ZERO


def test_mixed_scalar_ops():
    assert ONE + 1 == as_gaussian(2)
    assert 2 * I == GaussianRational(0, 2)
    assert (3 - I) - 3 == -I
    assert 2 / (ONE + I) == ONE - I
    assert ONE + Fraction(1, 2) == GaussianRational(Fraction(3, 2))


def test_hash_consistent_with_int_equality():
    assert GaussianRational(3) == 3
    assert hash(GaussianRational(3)) == hash(3)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_floats_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        as_gaussian(1.25)


def test_format_examples():
    assert format_gaussian(ZERO) == "0"
    assert format_gaussian(ONE) == "1"
    assert format_gaussian(I) == "1i"
    assert format_gaussian(-I) == "-1i"
    assert format_gaussian(ONE + I) == "1+1i"
    assert format_gaussian(GaussianRational(Fraction(-1, 2), Fraction(-1, 2))) == "-1/2-1/2i"
    assert format_gaussian(GaussianRational(0, Fraction(1, 2))) == "1/2i"
    assert format_gaussian(GaussianRational(2, -3)) == "2-3i"


def test_parse_examples():
    assert parse_gaussian("0") == ZERO
    assert parse_gaussian("1+1i") == ONE + I
    assert parse_gaussian("-1/2-1/2i") == GaussianRational(Fraction(-1, 2), Fraction(-1, 2))
    assert parse_gaussian("+i") == I
    assert parse_gaussian("-i") == -I
    assert parse_gaussian("2+i") == GaussianRational(2, 1)
    assert parse_gaussian("2-i") == GaussianRational(2, -1)
    assert parse_gaussian("3/4i") == GaussianRational(0, Fraction(3, 4))
    # legal but non-canonical spellings still parse to the reduced value
    assert parse_gaussian("2/4") == GaussianRational(Fraction(1, 2))
    assert parse_gaussian("0i") == ZERO
    assert parse_gaussian("-0").integer_parts() == (0, 0, 1)
    assert parse_gaussian("-0/6+4/6i").integer_parts() == (0, 2, 3)


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("i", 0),  # bare i is outside the grammar
        ("+1", 0),
        ("+2i", 0),
        ("1/0", 2),
        ("1//2", 2),
        ("abc", 0),
        ("1+", 2),
        ("1+-1i", 2),
        ("1i3", 2),
        ("1 + 1i", 1),
        ("--1", 1),
        ("1+1", 3),
        ("1+1j", 3),
    ],
)
def test_parse_errors(text, position):
    with pytest.raises(ParseError) as info:
        parse_gaussian(text)
    assert info.value.position == position


def test_roundtrip_random():
    rng = random.Random(99)
    for _ in range(1000):
        x = random_gaussian(rng, span=50)
        assert parse_gaussian(format_gaussian(x)) == x
    # integers and pure imaginaries too
    for _ in range(200):
        x = GaussianRational(rng.randint(-99, 99), rng.randint(-99, 99))
        assert parse_gaussian(format_gaussian(x)) == x


def test_repr_and_str():
    x = GaussianRational(1, 1)
    assert str(x) == "1+1i"
    assert "1+1i" in repr(x)

