"""Digit-sum moments, folding sequence, generating series, Hankel tables."""

import random
from fractions import Fraction

import pytest

from recqi import (
    ALL_PLUS,
    GAUSSIAN_UNITS,
    ONE,
    ZERO,
    DegeneracyError,
    GaussianRational,
    I,
    ParseError,
    SeriesTruncation,
    SignSequence,
    bareiss_leading_minors,
    beta_coeffs,
    det_field,
    fold,
    folding_product,
    gamma_coeffs,
    hankel,
    hankel_det_table,
    moment,
    parse_gaussian,
    pow_i,
    series_product,
    tau,
)
from recqi import linalg, thuemorse
from oracles import (
    folding_by_reflection,
    folding_products_by_reflection,
    leading_minors_by_elimination,
)


def test_tau_values():
    assert [tau(n) for n in range(8)] == [0, 1, 1, 2, 1, 2, 2, 3]
    assert tau(255) == 8
    assert tau(256) == 1
    with pytest.raises(ValueError):
        tau(-1)


def test_tau_recurrences():
    for n in range(1, 65536):
        assert tau(2 * n) == tau(n)
        assert tau(2 * n + 1) == tau(n) + 1


def test_moment_is_unit():
    for n in range(512):
        m = moment(n)
        assert m == pow_i(tau(n))
        assert m in GAUSSIAN_UNITS


def test_sign_sequence():
    s = SignSequence.from_string("+-+")
    assert [s[k] for k in range(3)] == [1, -1, 1]
    assert str(s) == "+-+"
    assert s[1] == -1
    assert s[3] == 1  # beyond the prefix: all plus
    assert s[100] == 1
    assert s == SignSequence([1, -1, 1])
    assert s != ALL_PLUS
    assert str(ALL_PLUS) == ""
    with pytest.raises(IndexError):
        s[-1]
    with pytest.raises(ValueError):
        SignSequence([1, 0])
    with pytest.raises(ParseError) as info:
        SignSequence.from_string("+-x+")
    assert info.value.position == 2


def test_fold_small_values():
    assert [fold(k) for k in range(1, 8)] == [1, 1, -1, 1, 1, -1, -1]
    with pytest.raises(ValueError):
        fold(0)


def test_fold_laws():
    for n in range(1, 1025):
        assert fold(4 * n + 1) == 1
        assert fold(4 * n + 3) == -1
        assert fold(2 * n) == fold(n)
    assert fold(1) == 1
    assert fold(3) == -1


def test_fold_powers_pick_up_signs():
    sigma = SignSequence.from_string("+--+-")
    for k in range(10):
        assert fold(1 << k, sigma) == sigma[k + 1]


def test_fold_matches_reflection_construction():
    rng = random.Random(42)
    for _ in range(10):
        sigma = SignSequence([rng.choice((1, -1)) for _ in range(8)])
        expected = folding_by_reflection(1024, sigma)
        assert [fold(k, sigma) for k in range(1, 1025)] == expected
    # default signs too
    assert [fold(k) for k in range(1, 1025)] == folding_by_reflection(1024, None)


def test_folding_product_values():
    expected = ["1", "1+1i", "2i", "2+2i"]
    assert [folding_product(n) for n in range(4)] == [
        parse_gaussian(t) for t in expected
    ]
    with pytest.raises(ValueError):
        folding_product(-1)


def test_folding_product_accumulates():
    sigma = SignSequence.from_string("-+--")
    acc = ONE
    for n in range(1, 40):
        acc = acc * GaussianRational(1, fold(n, sigma))
        assert folding_product(n, sigma) == acc


def test_folding_product_against_gaussian_product_oracle():
    for prefix in ("", "-", "+-", "--+-", "-+-++--+"):
        sigma = SignSequence.from_string(prefix) if prefix else None
        expected = folding_products_by_reflection(300, sigma)
        assert [folding_product(n, sigma) for n in range(301)] == expected


def test_folding_product_against_running_product():
    # prefixes of up to 12 signs reach every power 2^j <= 2048
    for prefix in ("", "-", "+-+", "--+-+---", "-+-++--+-+--"):
        sigma = SignSequence.from_string(prefix) if prefix else None
        re, im = 1, 0
        assert folding_product(0, sigma) == ONE
        for n, f in enumerate(folding_by_reflection(2048, sigma), start=1):
            re, im = re - f * im, im + f * re
            assert folding_product(n, sigma) == GaussianRational(re, im)


def test_series_product_examples():
    assert series_product(None, 0).coefficients == (ONE,)
    assert series_product(None, 3).coefficients == (ONE, I, I, -ONE)
    assert series_product(SignSequence([-1]), 2).coefficients == (ONE, -I, I)
    with pytest.raises(ValueError, match="truncation order must be nonnegative"):
        series_product(None, -1)


def test_series_product_is_digit_sum_power():
    series = series_product(None, 1024)
    for n in range(1025):
        assert series.coefficient(n) == pow_i(tau(n))


def test_series_product_against_brute_force():
    rng = random.Random(314)
    order = 50
    for _ in range(8):
        sigma = SignSequence([rng.choice((1, -1)) for _ in range(6)])
        # dict-backed polynomial product of (1 + sigma[k] i x^(2^k))
        poly = {0: ONE}
        k = 0
        while (1 << k) <= order:
            step = 1 << k
            factor = I if sigma[k] == 1 else -I
            for exp, c in sorted(poly.items(), reverse=True):
                if exp + step <= order:
                    poly[exp + step] = poly.get(exp + step, ZERO) + factor * c
            k += 1
        series = series_product(sigma, order)
        for n in range(order + 1):
            assert series.coefficient(n) == poly.get(n, ZERO)


def test_series_truncation_behavior():
    s = SeriesTruncation([1, 2, 3])
    assert s.order == 2
    assert s.coefficient(2) == GaussianRational(3)
    with pytest.raises(IndexError):
        s.coefficient(3)
    with pytest.raises(IndexError):
        s.coefficient(-1)
    with pytest.raises(ValueError):
        SeriesTruncation([])


def test_difference_coefficients_closed_form():
    # beta_n = (c_n - c_(n-1)) / (i - 1), gamma_n = (c_n - c_(n-2)) / (i - 1)
    series = series_product(None, 200)
    beta = beta_coeffs(200)
    gamma = gamma_coeffs(200)
    div = ONE / (I - ONE)
    for n in range(1, 201):
        assert beta.coefficient(n) == (
            series.coefficient(n) - series.coefficient(n - 1)
        ) * div
    for n in range(2, 201):
        assert gamma.coefficient(n) == (
            series.coefficient(n) - series.coefficient(n - 2)
        ) * div


def test_difference_coefficients_small_values():
    beta = beta_coeffs(6)
    assert [beta.coefficient(n) for n in range(1, 7)] == [
        ONE,
        ZERO,
        I,
        -I,
        I,
        ZERO,
    ]
    gamma = gamma_coeffs(6)
    assert [gamma.coefficient(n) for n in range(2, 7)] == [ONE, I, ZERO, ZERO, I]
    # the index-0 terms carry the 1/(i-1) factor and are not Gaussian integers
    half = Fraction(1, 2)
    assert beta.coefficient(0) == GaussianRational(-half, -half)
    assert gamma.coefficient(0) == GaussianRational(-half, -half)
    assert gamma.coefficient(1) == GaussianRational(half, -half)


def test_difference_coefficients_alphabet():
    allowed = {
        GaussianRational(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)
    }
    beta = beta_coeffs(1024)
    gamma = gamma_coeffs(1024)
    assert all(beta.coefficient(n) in allowed for n in range(1, 1025))
    assert all(gamma.coefficient(n) in allowed for n in range(2, 1025))


def test_hankel_layout():
    assert hankel(moment, 0, 0).rows == 0
    h = hankel(moment, 0, 2)
    assert h.to_lists() == [[ONE, I], [I, I]]
    h1 = hankel(moment, 1, 2)
    assert h1.to_lists() == [[I, I], [I, -ONE]]
    with pytest.raises(ValueError):
        hankel(moment, 0, -1)


def test_hankel_det_table_fast_path():
    dets = hankel_det_table(moment, 0, 12)
    assert len(dets) == 13
    assert dets[0] == ONE
    for n in range(1, 13):
        assert dets[n] == det_field(hankel(moment, 0, n))
        assert dets[n] == folding_product(n - 1)


def test_hankel_det_table_degenerate_fallback():
    # constant sequence: every minor from order 2 on vanishes, and the one
    # pass steps over the run and returns them as zeros
    dets = hankel_det_table(lambda n: ONE, 0, 3)
    assert dets == [ONE, ONE, ZERO, ZERO]


def test_hankel_det_table_keeps_minors_below_the_degeneracy(monkeypatch):
    # the order-3 leading minor of this sequence vanishes, later ones do not
    values = [1, 0, 1, 0, 1, 1, 1, 1, -1]

    def seq(n):
        return GaussianRational(values[n])

    built = []

    def spy_hankel(seq, offset, order):
        built.append(order)
        return hankel(seq, offset, order)

    def no_field(m):
        raise AssertionError("integer sequence went through det_field")

    monkeypatch.setattr(thuemorse, "hankel", spy_hankel)
    monkeypatch.setattr(linalg, "det_field", no_field)
    dets = hankel_det_table(seq, 0, 5)
    assert built == [5]
    assert [str(d) for d in dets] == ["1", "1", "1", "0", "-1", "3"]
    for n in range(1, 6):
        assert dets[n] == det_field(hankel(seq, 0, n))


@pytest.mark.parametrize("degenerate", [False, True])
def test_hankel_det_table_rational_values(degenerate):
    # a common factor with denominators 2 and 3 keeps a vanishing order-3
    # minor, so the scaled minors and the block step both run
    values = [moment(n) for n in range(9)]
    if degenerate:
        values = [1, 0, 1, 0, 1, 1, 1, 1, -1]
    factor = GaussianRational(Fraction(1, 2), Fraction(-1, 3))

    def seq(n):
        return factor * values[n]

    dets = hankel_det_table(seq, 0, 5)
    assert bool(dets[3]) != degenerate
    for n in range(6):
        assert dets[n] == det_field(hankel(seq, 0, n))


def test_hankel_det_table_rational_route_skips_fraction_free(monkeypatch):
    def no_bareiss(m):
        raise AssertionError("rational sequence went through det_bareiss")

    monkeypatch.setattr(linalg, "det_bareiss", no_bareiss)
    beta = beta_coeffs(1 + 16)
    dets = hankel_det_table(beta.coefficient, 1, 8)
    assert [str(d) for d in dets] == ["1", "1", "1i", "1i", "-1", "-1", "-1i", "-1i", "1"]


@pytest.mark.parametrize("coeffs", [beta_coeffs, gamma_coeffs])
@pytest.mark.parametrize("offset", [0, 1, 2])
def test_difference_tables_match_per_order_determinants(coeffs, offset):
    # beta at offsets 0 and 2 and gamma at offsets 0 and 1 have vanishing
    # minors below order 40
    series = coeffs(offset + 80)
    dets = hankel_det_table(series.coefficient, offset, 40)
    for n in range(41):
        assert dets[n] == linalg.det_bareiss(hankel(series.coefficient, offset, n))


def test_degenerate_table_takes_one_pass(monkeypatch):
    calls = []

    def spy(name, fn):
        def wrapped(*args):
            calls.append(name)
            return fn(*args)

        monkeypatch.setattr(thuemorse, name, wrapped)

    def no_bareiss(m):
        raise AssertionError("a Hankel table went through det_bareiss")

    spy("hankel", hankel)
    spy("bareiss_leading_minors", bareiss_leading_minors)
    monkeypatch.setattr(linalg, "det_bareiss", no_bareiss)
    beta = beta_coeffs(80)
    dets = hankel_det_table(beta.coefficient, 0, 40)
    assert calls == ["hankel", "bareiss_leading_minors"]
    assert [k for k, d in enumerate(dets) if not d] == [5, 8, 35, 38]


def test_hankel_det_table_lets_other_value_errors_through(monkeypatch):
    def broken(m):
        raise ValueError("internal fault")

    monkeypatch.setattr(thuemorse, "bareiss_leading_minors", broken)
    with pytest.raises(ValueError, match="internal fault"):
        hankel_det_table(moment, 0, 8)


def test_moment_minors_by_recurrence_and_by_elimination():
    h = hankel(moment, 0, 301)
    minors = leading_minors_by_elimination(h)
    assert minors == bareiss_leading_minors(h)
    # det of order n+1 is the product through k = n
    assert minors == [ONE] + folding_products_by_reflection(300, None)


def test_sign_prefix_minors_by_recurrence_and_by_elimination():
    rng = random.Random(129)
    for _ in range(5):
        sigma = SignSequence([rng.choice((1, -1)) for _ in range(8)])
        h = hankel(series_product(sigma, 256).coefficient, 0, 129)
        minors = bareiss_leading_minors(h)
        assert minors == leading_minors_by_elimination(h)
        assert minors == [ONE] + folding_products_by_reflection(128, sigma)


def test_hankel_det_table_rational_fallback():
    beta = beta_coeffs(6)
    dets = hankel_det_table(beta.coefficient, 0, 2)
    half = Fraction(1, 2)
    assert dets[0] == ONE
    assert dets[1] == GaussianRational(-half, -half)
    assert dets[2] == det_field(hankel(beta.coefficient, 0, 2))
    assert dets[2] == -ONE


def test_unit_hankel_determinants_at_shifted_offsets():
    beta = beta_coeffs(1 + 16)
    gamma = gamma_coeffs(2 + 16)
    beta_dets = hankel_det_table(beta.coefficient, 1, 8)
    gamma_dets = hankel_det_table(gamma.coefficient, 2, 8)
    expected_beta = ["1", "1", "1i", "1i", "-1", "-1", "-1i", "-1i", "1"]
    expected_gamma = ["1", "1", "1", "1i", "1i", "1i", "-1", "-1i", "-1i"]
    assert beta_dets == [parse_gaussian(t) for t in expected_beta]
    assert gamma_dets == [parse_gaussian(t) for t in expected_gamma]
    # cross-check the one-pass route against plain per-order elimination
    for n in range(1, 9):
        assert beta_dets[n] == det_field(hankel(beta.coefficient, 1, n))
        assert gamma_dets[n] == det_field(hankel(gamma.coefficient, 2, n))


def test_determinant_identity_with_signs():
    rng = random.Random(2718)
    for _ in range(6):
        sigma = SignSequence([rng.choice((1, -1)) for _ in range(6)])
        series = series_product(sigma, 64)
        dets = hankel_det_table(series.coefficient, 0, 32)
        for n in range(1, 33):
            assert dets[n] == folding_product(n - 1, sigma)
