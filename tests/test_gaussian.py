"""Field arithmetic, canonical formatting, the strict parser and the shared
small Gaussian integers."""

import ast
import operator
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from recqi import gaussian
from recqi import (
    GAUSSIAN_UNITS,
    ZERO,
    ONE,
    I,
    GaussianRational,
    ParseError,
    as_gaussian,
    builtin,
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
    # conjugate oracle: 1/z = conj(z)/norm(z), conj(i - 1) = -1 - i, norm 2
    z = I - ONE
    expected = GaussianRational(Fraction(-1, 2), Fraction(-1, 2))
    assert expected == GaussianRational(-1, -1) / 2
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
    assert Fraction(1, 2) - GaussianRational(Fraction(1, 3), 1) == GaussianRational(
        Fraction(1, 6), -1
    )
    # a str operand is neither coerced nor parsed
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for args in ((ONE, "1"), ("1", ONE)):
            with pytest.raises(TypeError, match="GaussianRational"):
                op(*args)


def test_hash_consistent_with_int_equality():
    assert GaussianRational(3) == 3
    assert hash(GaussianRational(3)) == hash(3)
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))


def test_floats_rejected():
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        as_gaussian(1.25)


def test_constructor_takes_what_as_gaussian_takes():
    for x in (0, -7, 10**40, True, False, Fraction(-5, 6), Fraction(3, 10**20)):
        assert GaussianRational(x).integer_parts() == as_gaussian(x).integer_parts()
        assert GaussianRational(0, x) == as_gaussian(x) * I
        assert GaussianRational(x, x) == as_gaussian(x) * (ONE + I)
    # strings and Decimals used to pass through Fraction(...)
    for bad in ("1/2", "1", Decimal("0.5"), None, 1j):
        with pytest.raises(TypeError, match="pass int or Fraction"):
            GaussianRational(bad)
        with pytest.raises(TypeError, match="pass int or Fraction"):
            GaussianRational(0, bad)
        with pytest.raises(TypeError):
            as_gaussian(bad)


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
    # small Gaussian integers parse to the shared objects
    assert parse_gaussian("-0") is ZERO and parse_gaussian("4/4") is ONE
    assert parse_gaussian("+i") is I and parse_gaussian("-i") is pow_i(3)


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
        # trailing characters after 'i'
        ("1+ix", 3),
        ("1+2ix", 4),
        # digits are ASCII 0-9 only: Arabic-Indic one, three/four and two,
        # then superscript two, which int() would read or reject unplaced
        ("\u0661", 0),
        ("\u0663/\u0664", 0),
        ("1+\u0662i", 2),
        ("\u00b2", 0),
        ("1/\u00b2", 2),
        # a digit run past CPython's 4300-digit conversion limit, placed
        ("1" * 4301, 0),
        ("-1/" + "3" * 4301, 3),
        ("1+" + "7" * 4301 + "i", 2),
    ],
)
def test_parse_errors(text, position):
    with pytest.raises(ParseError) as info:
        parse_gaussian(text)
    assert info.value.position == position


def test_digit_runs_up_to_the_cap_parse():
    assert parse_gaussian("9" * 4300) == 10**4300 - 1
    assert parse_gaussian("1/" + "9" * 4300 + "-1i").im == -1
    with pytest.raises(ParseError, match="more than 4300 digits"):
        parse_gaussian("9" * 4301)


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


def test_constants_are_the_shared_small_integers():
    r = gaussian.SHARED_BOUND
    shared = {x.integer_parts(): x for row in gaussian._SHARED for x in row}
    assert set(shared) == {(a, b, 1) for a in range(-r, r + 1) for b in range(-r, r + 1)}
    assert all(gaussian._SHARED[a][b] is shared[a, b, 1] for a, b, _ in shared)
    constants = [shared[x] for x in [(0, 0, 1), (1, 0, 1), (0, 1, 1)]]
    assert all(map(operator.is_, (ZERO, ONE, I), constants))
    units = [shared[x] for x in [(1, 0, 1), (-1, 0, 1), (0, 1, 1), (0, -1, 1)]]
    assert all(map(operator.is_, GAUSSIAN_UNITS, units))
    assert all(pow_i(k) is units[(0, 2, 1, 3)[k]] for k in range(4))


def test_reduced_results_are_the_shared_small_integers():
    half = GaussianRational(Fraction(1, 2))
    assert half + half is ONE
    assert (ONE + I) / (ONE + I) is ONE
    assert half * GaussianRational(-4, 2) is gaussian._SHARED[-2][1]


def test_coerced_small_integers_are_the_shared_objects():
    assert as_gaussian(1) is ONE and as_gaussian(True) is ONE
    assert as_gaussian(Fraction(-8, 1)) is gaussian._SHARED[-8][0]
    assert as_gaussian(9).integer_parts() == (9, 0, 1)
    assert as_gaussian(Fraction(-1, 2)).integer_parts() == (-1, 0, 2)
    # the builtins' int entries, coerced by DenseMatrix
    assert builtin("H").shift(0, 0)[0, 0] is ONE


def test_only_the_scalar_module_writes_scalar_fields():
    # shared scalars must never change: outside gaussian.py no code stores
    # or deletes _a, _b or _d, nor spells one as a string, as setattr takes it
    fields = {"_a", "_b", "_d"}
    writers = {}
    for path in Path(gaussian.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
                name = node.attr
            elif isinstance(node, ast.Constant):
                name = node.value
            else:
                continue
            if name in fields:
                writers.setdefault(path.name, set()).add(name)
    assert writers == {"gaussian.py": fields}


def test_no_module_imports_a_private_name_from_another():
    # each kernel has one home; other modules reach it through public names
    private = {}
    for path in Path(gaussian.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "recqi"
            ):
                names = [alias.name for alias in node.names if alias.name[0] == "_"]
                private.setdefault(path.name, []).extend(names)
    assert {name: names for name, names in private.items() if names} == {}
