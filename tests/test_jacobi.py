"""Continued-fraction coefficient extraction and its closed forms."""

import random
from fractions import Fraction

import pytest

from recqi import (
    GAUSSIAN_UNITS,
    ONE,
    ZERO,
    DegeneracyError,
    GaussianRational,
    I,
    JFraction,
    det_field,
    fold,
    hankel,
    jfraction_from_moments,
    jfraction_to_series,
    moment,
    u_formula,
    v_formula,
)
from recqi import jacobi
from recqi.gaussian import to_parts
from oracles import (
    UNIT_POOL,
    hankel_ratio_check,
    jfraction_by_convergents,
    leading_minors_by_elimination,
    moment_sequence,
)


def test_jfraction_container():
    jf = JFraction([I, -I], [ONE + I, ONE])
    assert jf.depth == 2
    assert jf.u_coeff(0) == I
    assert jf.v_coeff(1) == ONE + I
    assert jf.v_coeff(2) == ONE
    with pytest.raises(IndexError):
        jf.u_coeff(2)
    with pytest.raises(IndexError):
        jf.u_coeff(-1)
    with pytest.raises(IndexError):
        jf.v_coeff(0)
    with pytest.raises(IndexError):
        jf.v_coeff(3)
    with pytest.raises(ValueError):
        JFraction([I], [])
    assert JFraction((), ()).depth == 0


def test_moment_sequence():
    ms = moment_sequence(8)
    assert len(ms) == 8
    assert ms == [moment(n) for n in range(8)]
    assert ms[:4] == [ONE, I, I, -ONE]


def test_extraction_small_frozen_values():
    jf = jfraction_from_moments(moment_sequence(9), 4)
    assert jf.u_coeff(0) == I
    assert jf.v_coeff(1) == ONE + I
    assert jf.v_coeff(2) == ONE
    assert jf.v_coeff(3) == -I
    assert jf.u == (I, -I, I, -I)


def test_extraction_matches_closed_forms():
    depth = 100
    jf = jfraction_from_moments(moment_sequence(2 * depth + 1), depth)
    for n in range(depth):
        assert jf.u_coeff(n) == u_formula(n)
    for n in range(1, depth + 1):
        assert jf.v_coeff(n) == v_formula(n)


def test_extraction_depth_zero():
    jf = jfraction_from_moments([ONE], 0)
    assert jf.depth == 0 and jf.u == () and jf.v == ()


def test_extraction_input_contracts():
    with pytest.raises(ValueError):
        jfraction_from_moments(moment_sequence(8), 4)  # needs 9
    with pytest.raises(ValueError):
        jfraction_from_moments(moment_sequence(9), -1)
    with pytest.raises(DegeneracyError) as info:
        jfraction_from_moments([ZERO, ONE, ONE], 1)
    assert info.value.level == 1
    # constant moments: the order-2 Hankel determinant vanishes
    with pytest.raises(DegeneracyError) as info:
        jfraction_from_moments([ONE] * 9, 4)
    assert info.value.level == 2


def test_reexpansion_reproduces_moments():
    depth = 24
    ms = moment_sequence(2 * depth + 1)
    jf = jfraction_from_moments(ms, depth)
    series = jfraction_to_series(jf, ms[0], 2 * depth)
    for n in range(2 * depth + 1):
        assert series.coefficient(n) == ms[n]


def test_reexpansion_on_random_nondegenerate_sequences():
    rng = random.Random(1001)
    trials = 0
    while trials < 20:
        depth = rng.randint(1, 6)
        ms = [rng.choice(UNIT_POOL) for _ in range(2 * depth + 1)]
        try:
            jf = jfraction_from_moments(ms, depth)
        except DegeneracyError:
            continue
        trials += 1
        series = jfraction_to_series(jf, ms[0], 2 * depth)
        for n in range(2 * depth + 1):
            assert series.coefficient(n) == ms[n]


def test_builtin_check_flag(monkeypatch):
    # the self-check re-expands and compares; it must accept the moments
    jf = jfraction_from_moments(moment_sequence(33), 16)
    assert jf.depth == 16
    # and refuse a re-expansion one coefficient short of them
    reexpand = jacobi.jfraction_to_series
    monkeypatch.setattr(
        jacobi, "jfraction_to_series", lambda jf, c0, order: reexpand(jf, c0, order - 1)
    )
    with pytest.raises(ArithmeticError, match="re-expansion disagrees with the moments"):
        jfraction_from_moments(moment_sequence(33), 16)


def test_u_closed_form():
    assert [u_formula(n) for n in range(6)] == [I, -I, I, -I, I, -I]
    with pytest.raises(ValueError):
        u_formula(-1)


def test_v_closed_form_table():
    expected = [ONE + I, ONE, -I, I, ONE, -I, ONE]
    assert [v_formula(n) for n in range(1, 8)] == expected
    assert [v_formula(n) for n in range(8, 13)] == [I, ONE, ONE, -I, ONE]
    with pytest.raises(ValueError):
        v_formula(0)


def test_v_self_similarity():
    for l in range(3, 13):
        base = 1 << l
        half = 1 << (l - 1)
        assert v_formula(base) == I
        assert v_formula(base + half + 1) == I
        assert v_formula(base + 1) == ONE
        assert v_formula(base + half) == ONE
        for a in range(2, half):
            assert v_formula(base + a) == v_formula(a)
        for a in range(half + 2, base):
            assert v_formula(base + a) == v_formula(a)


def v_by_folding_rule(n):
    """v_n = (1 + i f(n)) / (1 + i f(n - 1)) for n >= 2."""
    return GaussianRational(1, fold(n)) / GaussianRational(1, fold(n - 1))


def test_v_folding_rule():
    # the rule is v_n = D(n-1) D(n+1) / D(n)^2 with D(k+1) the folding
    # product of length k, so it stays a test: a jfraction table built on it
    # would only repeat verify-det, where v_formula is a separate closed form
    assert all(v_by_folding_rule(n) == v_formula(n) for n in range(2, 5000))
    jf = jfraction_from_moments(moment_sequence(257), 128)
    assert all(v_by_folding_rule(n) == jf.v_coeff(n) for n in range(2, 129))


def test_hankel_ratio_identity():
    # the dets come from the elimination, not the recurrence that gives v
    depth = 32
    jf = jfraction_from_moments(moment_sequence(2 * depth + 1), depth)
    dets = leading_minors_by_elimination(hankel(moment, 0, depth + 1))
    pairs = hankel_ratio_check(dets, jf)
    assert len(pairs) == depth
    for v_coeff, ratio in pairs:
        assert v_coeff == ratio


def test_extraction_ignores_a_common_factor():
    # c -> a*c changes c_0 only, so u and v of rational moments are those
    # of the Gaussian-integer moments they scale
    ms = moment_sequence(41)
    jf = jfraction_from_moments(ms, 20)
    third = GaussianRational(Fraction(1, 3))
    assert jfraction_from_moments([m * third for m in ms], 20) == jf
    factor = GaussianRational(Fraction(2, 5), Fraction(-1, 7))
    assert jfraction_from_moments([m * factor for m in ms], 20) == jf


def test_extraction_of_random_rational_moments():
    rng = random.Random(3003)
    trials = 0
    while trials < 20:
        depth = rng.randint(1, 6)
        ms = [
            GaussianRational(
                Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
                Fraction(rng.randint(-4, 4), rng.randint(1, 6)),
            )
            for _ in range(2 * depth + 1)
        ]
        try:
            jf = jfraction_from_moments(ms, depth)
        except DegeneracyError as exc:
            assert not det_field(hankel(ms.__getitem__, 0, exc.level))
            continue
        trials += 1
        assert jfraction_from_moments([m * 6 for m in ms], depth) == jf
        dets = [det_field(hankel(ms.__getitem__, 0, k)) for k in range(depth + 2)]
        for v_coeff, ratio in hankel_ratio_check(dets, jf):
            assert v_coeff == ratio
        series = jfraction_to_series(jf, ms[0], 2 * depth)
        assert series.coefficients == tuple(ms)


def test_reexpansion_of_a_deep_rational_fraction():
    # random unit moments give u and v whose denominators share little: at
    # depth 40 their lcm L has about 4,000 bits, so a re-expansion that
    # carried L^n on paths of length n would take seconds here
    depth = 40
    rng = random.Random(0)
    ms = [rng.choice(GAUSSIAN_UNITS) for _ in range(2 * depth + 1)]
    jf = jfraction_from_moments(ms, depth)
    assert to_parts(jf.u + jf.v)[2].bit_length() > 3000
    series = jfraction_to_series(jf, ms[0], 2 * depth)
    assert series == jfraction_by_convergents(jf, ms[0], 2 * depth)
    assert series.coefficients == tuple(ms)


def test_rational_fractions_take_the_one_path_recurrence(monkeypatch):
    # u and v with denominators run the recurrence of the Gaussian-integer
    # fractions, on Fraction parts
    calls = []
    path_heads = jacobi._path_heads

    def counting(re, im, depth, order):
        calls.append((re, im))
        return path_heads(re, im, depth, order)

    monkeypatch.setattr(jacobi, "_path_heads", counting)
    jf = JFraction([Fraction(1, 2), I], [GaussianRational(Fraction(1, 3), -1), 2])
    series = jfraction_to_series(jf, ONE, 6)
    assert series == jfraction_by_convergents(jf, ONE, 6)
    assert len(calls) == 1
    re, im = calls[0]
    assert re == [Fraction(1, 2), 0, Fraction(1, 3), 2] and im == [0, 1, -1, 0]
    assert [type(x) for x in re] == [Fraction, int, Fraction, int]


def test_hankel_ratio_degenerate_table():
    jf = JFraction([I], [ONE])
    with pytest.raises(DegeneracyError) as info:
        hankel_ratio_check([ONE, ONE, ZERO], jf)
    assert info.value.level == 2


def test_series_reconstruction_contracts():
    jf = jfraction_from_moments(moment_sequence(5), 2)
    with pytest.raises(ValueError):
        jfraction_to_series(jf, ONE, -1)
    # a depth-0 fraction expands to the constant alone
    flat = jfraction_to_series(JFraction((), ()), GaussianRational(3), 4)
    assert flat.coefficients == tuple(
        [GaussianRational(3)] + [ZERO] * 4
    )
