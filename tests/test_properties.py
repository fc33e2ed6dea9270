"""Derandomized property tests: the Q(i) scalar against Fraction pairs, the
scalars built from int parts and from text against Fraction pairs, rref
against Gauss-Jordan, the two determinant eliminations against cofactor
expansion, mat_mul against full sums, the text and part-list round trips,
the J-fraction re-expansion against its convergents, the unfolding levels
against evaluation, the presentation products against the unfoldings, and
minimize keeping the represented function."""

import math
import operator
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from recqi import gaussian  # noqa: E402
from recqi import (  # noqa: E402
    ZERO,
    ONE,
    I,
    DenseMatrix,
    GaussianRational,
    JFraction,
    Presentation,
    det_bareiss,
    det_field,
    evaluate,
    format_gaussian,
    jfraction_to_series,
    mat_mul,
    minimize,
    parse_gaussian,
    rec_convolution,
    rec_hadamard,
    rec_product,
    rec_sum,
    rref,
    unfold,
    unfold_levels,
    zero_presentation,
)
from oracles import (  # noqa: E402
    FractionPair,
    convolution_oracle,
    det_cofactor,
    entrywise_product,
    entrywise_sum,
    jfraction_by_convergents,
    mat_mul_by_sums,
    rref_by_pivoting,
    word_pairs,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def rationals(bound):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound))


def gaussians(bound):
    return st.builds(GaussianRational, rationals(bound), rationals(bound))


# shared small denominators make equal and reducible denominators common
SCALAR_PARTS = st.builds(
    Fraction,
    st.one_of(st.integers(-6, 6), st.integers(-(10**12), 10**12)),
    st.one_of(st.sampled_from([1, 1, 2, 3, 4, 6, 12]), st.integers(1, 10**6)),
)
SCALARS = st.builds(GaussianRational, SCALAR_PARTS, SCALAR_PARTS)
# mixed operands: int and Fraction on either side of a GaussianRational
OPERANDS = st.one_of(SCALARS, SCALARS, st.integers(-(10**6), 10**6), SCALAR_PARTS)
OPERATORS = st.sampled_from(
    [operator.add, operator.sub, operator.mul, operator.truediv]
)


def assert_canonical(x):
    a, b, d = x.integer_parts()
    assert d > 0 and math.gcd(a, b, d) == 1
    assert (a, b, d) == GaussianRational(x.re, x.im).integer_parts()
    assert type(x.re) is Fraction and type(x.im) is Fraction


@PROPERTY
@given(OPERANDS, OPERANDS, OPERATORS)
def test_arithmetic_matches_fraction_pairs(x, y, op):
    assume(isinstance(x, GaussianRational) or isinstance(y, GaussianRational))
    if op is operator.truediv and not y:
        with pytest.raises(ZeroDivisionError):
            op(FractionPair(x), y)
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    got = op(x, y)
    assert type(got) is GaussianRational
    assert_canonical(got)
    assert FractionPair(got) == op(FractionPair(x), y)


@PROPERTY
@given(OPERANDS, OPERANDS)
def test_equality_matches_fraction_pairs(x, y):
    assume(isinstance(x, GaussianRational) or isinstance(y, GaussianRational))
    assert (x == y) == (FractionPair(x) == FractionPair(y)) == (not x != y)


@PROPERTY
@given(SCALARS)
def test_unary_parts_match_fraction_pairs(x):
    reference = FractionPair(x)
    assert_canonical(x)
    assert (x.re, x.im) == (reference.re, reference.im)
    assert_canonical(-x)
    assert FractionPair(-x) == FractionPair(0) - reference
    assert bool(x) == bool(reference.re or reference.im)


@PROPERTY
@given(SCALARS, SCALARS, SCALARS)
def test_ring_laws(x, y, z):
    assert (x + y) + z == x + (y + z) and x + y == y + x
    assert (x * y) * z == x * (y * z) and x * y == y * x
    assert x * (y + z) == x * y + x * z
    assert x + ZERO == x and x * ONE == x and x - x == ZERO
    if y:
        assert (x / y) * y == x


def test_zero_is_canonical():
    half = GaussianRational(Fraction(1, 2), 1)
    zeros = [ZERO, GaussianRational(), GaussianRational(Fraction(0, 5))]
    zeros += [I - I, I * 0, half - half]
    assert all(z.integer_parts() == (0, 0, 1) for z in zeros)


@PROPERTY
@given(SCALAR_PARTS, SCALARS)
def test_hash_matches_equal_values(q, x):
    real = GaussianRational(q)
    assert real == q and hash(real) == hash(real.re) == hash(q)
    if q.denominator == 1:
        assert real == q.numerator and hash(real) == hash(q.numerator)
    assert hash(x) == (hash((x.re, x.im)) if x.im else hash(x.re))
    rebuilt = GaussianRational(x.re, x.im)
    assert x == rebuilt and hash(x) == hash(rebuilt)


def test_division_by_zero_in_every_form():
    for zero in (ZERO, 0, Fraction(0), GaussianRational(Fraction(0, 3))):
        for x in (ONE, I, GaussianRational(Fraction(1, 2), 3)):
            with pytest.raises(ZeroDivisionError):
                x / zero
        with pytest.raises(ZeroDivisionError):
            zero / ZERO


# small units and zeros make repeated and dependent rows common
ENTRIES = st.one_of(st.sampled_from([ZERO, ZERO, ONE, -ONE, I]), gaussians(4))


@st.composite
def matrices(draw):
    """Q(i) matrices up to 5 x 5, empty and all-zero ones included; half are
    products through an inner dimension below both sides, so rank-deficient."""
    rows = draw(st.integers(0, 5))
    cols = draw(st.integers(0, 5))

    def dense(r, c):
        return DenseMatrix(r, c, draw(st.lists(ENTRIES, min_size=r * c, max_size=r * c)))

    if draw(st.booleans()):
        inner = draw(st.integers(0, max(min(rows, cols) - 1, 0)))
        return mat_mul(dense(rows, inner), dense(inner, cols))
    return dense(rows, cols)


@PROPERTY
@given(matrices())
def test_rref_matches_gauss_jordan(m):
    assert rref(m) == rref_by_pivoting(m)


def test_rref_of_empty_and_zero_matrices():
    for rows, cols in ((0, 0), (0, 3), (3, 0), (2, 3)):
        m = DenseMatrix.zeros(rows, cols)
        assert rref(m) == (m, 0, ()) == rref_by_pivoting(m)


# sparse factors: zero entries at least as common as all the others together
SPARSE = st.one_of(st.just(ZERO), ENTRIES)


# sparse factor entries, half of the nonzero ones with denominators up to 10^6
FACTOR_ENTRIES = st.one_of(st.just(ZERO), st.one_of(ENTRIES, SCALARS))


@st.composite
def factor_pairs(draw):
    """Matrices a (n x k) and b (k x m) with every side in 0..5."""
    n, k, m = (draw(st.integers(0, 5)) for _ in range(3))

    def dense(r, c):
        cells = st.lists(FACTOR_ENTRIES, min_size=r * c, max_size=r * c)
        return DenseMatrix(r, c, draw(cells))

    return dense(n, k), dense(k, m)


@st.composite
def square_matrices(draw):
    """Q(i) matrices up to 5 x 5 with sparse entries, so vanishing leading
    minors (row swaps) and singular matrices are common."""
    n = draw(st.integers(0, 5))
    return DenseMatrix(n, n, draw(st.lists(SPARSE, min_size=n * n, max_size=n * n)))


@PROPERTY
@given(square_matrices())
def test_determinant_routes_agree(m):
    assert det_field(m) == det_bareiss(m) == det_cofactor(m)


@PROPERTY
@given(factor_pairs())
@example((DenseMatrix.zeros(0, 3), DenseMatrix.zeros(3, 2)))
@example((DenseMatrix.zeros(2, 3), DenseMatrix.zeros(3, 0)))
@example((DenseMatrix.zeros(2, 0), DenseMatrix.zeros(0, 3)))
def test_mat_mul_matches_full_sums(pair):
    a, b = pair
    product = mat_mul(a, b)
    assert product == mat_mul_by_sums(a, b)
    for x in product.entries:
        assert_canonical(x)


# the shared small Gaussian integers, by their (re, im) parts
SHARED = {x.integer_parts()[:2]: x for row in gaussian._SHARED for x in row}
SMALL_PART = st.integers(-gaussian.SHARED_BOUND, gaussian.SHARED_BOUND)


@PROPERTY
@given(
    st.lists(st.tuples(SMALL_PART, SMALL_PART), max_size=40),
    st.one_of(
        st.none(),
        st.tuples(st.integers(0, 79), st.sampled_from([9, -9, 10**20, -(10**20)])),
    ),
    st.sampled_from([1, 1, 1, 2, 12, 10**6]),
)
@example([(1, 0), (0, -1), (8, 8), (0, 0)], (5, 9), 1)
@example([(2, -4), (6, 0), (3, 0), (0, 0)], None, 2)
def test_scalars_from_int_parts_match_fraction_pairs(pairs, outlier, scale):
    re, im = [a for a, _ in pairs], [b for _, b in pairs]
    if pairs and outlier is not None:
        # one part past the bound: the whole table takes the per-cell route
        k, part = outlier
        (re, im)[k % 2][k // 2 % len(pairs)] = part
    got = gaussian.from_parts(re, im, scale)
    assert len(got) == len(pairs)
    for x, a, b in zip(got, re, im):
        assert_canonical(x)
        value = Fraction(a, scale), Fraction(b, scale)
        assert FractionPair(x) == FractionPair(*value)
        # whatever the scale and the rest of the table, a value that reduces
        # to a small Gaussian integer is its shared object
        parts = value[0].numerator, value[1].numerator
        if value[0].denominator == value[1].denominator == 1 and parts in SHARED:
            assert x is SHARED[parts]


@PROPERTY
@given(st.lists(SCALARS, max_size=20))
def test_to_parts_and_from_parts_round_trip(values):
    re, im, scale = gaussian.to_parts(values)
    denominators = [f.denominator for x in values for f in (x.re, x.im)]
    assert scale == math.lcm(*denominators)
    for x, a, b in zip(values, re, im, strict=True):
        assert FractionPair(x) == FractionPair(Fraction(a, scale), Fraction(b, scale))
    back = gaussian.from_parts(re, im, scale)
    assert back == values
    for x, y in zip(values, back):
        assert_canonical(y)
        if not x:
            assert y is ZERO


@PROPERTY
@given(gaussians(10**6))
def test_format_parse_round_trip(x):
    assert parse_gaussian(format_gaussian(x)) == x


@PROPERTY
@given(st.integers(-60, 60), st.integers(1, 12), st.integers(-60, 60), st.integers(1, 12))
def test_parse_reduces_unreduced_spellings(a, d, b, e):
    re, im = Fraction(a, d), Fraction(b, e)
    sign = "-" if b < 0 else "+"
    spellings = {
        f"{a}/{d}": GaussianRational(re),
        f"{b}/{e}i": GaussianRational(0, im),
        f"{a}/{d}{sign}{abs(b)}/{e}i": GaussianRational(re, im),
        f"{a}{sign}i": GaussianRational(a, -1 if b < 0 else 1),
    }
    for text, value in spellings.items():
        got = parse_gaussian(text)
        assert_canonical(got)
        assert FractionPair(got) == FractionPair(value)
        parts = got.integer_parts()
        if parts[2] == 1 and parts[:2] in SHARED:
            assert got is SHARED[parts[:2]]


@st.composite
def jfractions(draw):
    depth = draw(st.integers(0, 7))
    coeffs = st.lists(gaussians(6), min_size=depth, max_size=depth)
    return JFraction(draw(coeffs), draw(coeffs))


# orders past 2 * depth read the tail convention as well
@PROPERTY
@given(jfractions(), gaussians(6), st.integers(0, 20))
def test_jfraction_paths_match_the_convergents(jf, c0, order):
    paths = jfraction_to_series(jf, c0, order).coefficients
    assert paths == jfraction_by_convergents(jf, c0, order).coefficients


# zero parts are common, so the zero skips run both ways
INTEGER_PARTS = st.one_of(st.integers(-2, 2), st.integers(-(10**9), 10**9))
GAUSSIAN_INTEGERS = st.builds(GaussianRational, INTEGER_PARTS, INTEGER_PARTS)


@st.composite
def integer_jfractions(draw):
    depth = draw(st.integers(0, 12))
    coeffs = st.lists(GAUSSIAN_INTEGERS, min_size=depth, max_size=depth)
    return JFraction(draw(coeffs), draw(coeffs))


# Gaussian-integer u and v take the int-pair recurrence; c0 need not be one
@PROPERTY
@given(
    integer_jfractions(), st.one_of(GAUSSIAN_INTEGERS, gaussians(6)), st.integers(0, 30)
)
def test_jfraction_integer_paths_match_the_convergents(jf, c0, order):
    paths = jfraction_to_series(jf, c0, order).coefficients
    assert paths == jfraction_by_convergents(jf, c0, order).coefficients


@st.composite
def presentations(draw, p=None, q=None, max_dim=4):
    """Presentations over the given alphabet sizes, else sizes at most 2,
    with at most max_dim generators, the empty one included."""
    p = draw(st.integers(1, 2)) if p is None else p
    q = draw(st.integers(1, 2)) if q is None else q
    dim = draw(st.integers(0, max_dim))

    def entries(count):
        return draw(st.lists(ENTRIES, min_size=count, max_size=count))

    shifts = {
        (s, t): DenseMatrix(dim, dim, entries(dim * dim))
        for s in range(p)
        for t in range(q)
    }
    return Presentation(p, q, entries(dim), shifts)


PRESENTATION = settings(PROPERTY, max_examples=100)


@PRESENTATION
@given(presentations())
def test_json_round_trip(pres):
    assert Presentation.from_json_text(pres.to_json_text()) == pres


@PRESENTATION
@given(presentations())
def test_minimize_keeps_the_unfoldings(pres):
    small = minimize(pres)
    assert small.dim <= pres.dim
    for depth in range(4):
        assert unfold(small, depth) == unfold(pres, depth)


@PRESENTATION
@given(presentations())
@example(zero_presentation(1, 2))
def test_unfold_levels_evaluate_every_word_pair(pres):
    levels = list(unfold_levels(pres, 3))
    assert len(levels) == 4
    for n, level in enumerate(levels):
        assert (level.rows, level.cols) == (pres.p**n, pres.q**n)
        values = [evaluate(pres, pair) for pair in word_pairs(pres.p, pres.q, n)]
        assert list(level.entries) == values
    assert levels[-1] == unfold(pres, 3)


def scaled_entries(draw, count, denominator):
    """count sparse Gaussian rationals over the given denominator."""
    parts = st.integers(-(10**3), 10**3)
    pairs = st.one_of(st.just((0, 0)), st.tuples(parts, parts))
    return [
        GaussianRational(Fraction(a, denominator), Fraction(b, denominator))
        for a, b in draw(st.lists(pairs, min_size=count, max_size=count))
    ]


@st.composite
def rational_presentations(draw):
    """Presentations over alphabets of 3 and 1 letters, either way round, with
    a denominator of its own up to 10^6 for init and each letter pair."""
    p, q = draw(st.sampled_from([(3, 1), (1, 3)]))
    dim = draw(st.integers(0, 3))

    def entries(count):
        return scaled_entries(draw, count, draw(st.integers(1, 10**6)))

    pairs = [(s, t) for s in range(p) for t in range(q)]
    shifts = {pair: DenseMatrix(dim, dim, entries(dim * dim)) for pair in pairs}
    return Presentation(p, q, entries(dim), shifts)


@settings(PROPERTY, max_examples=40)
@given(rational_presentations())
def test_unfold_levels_of_rational_presentations(pres):
    for n, level in enumerate(unfold_levels(pres, 5)):
        values = [evaluate(pres, pair) for pair in word_pairs(pres.p, pres.q, n)]
        assert list(level.entries) == values
        for x in level.entries:
            assert_canonical(x)


# the results of binary ops have up to dim_a * dim_b + dim_a generators
BINARY = settings(PROPERTY, max_examples=60)


def level_triples(pa, pb, result, depth=3):
    return zip(*(unfold_levels(x, depth) for x in (pa, pb, result)))


@BINARY
@given(presentations(max_dim=3), st.data())
def test_rec_sum_is_the_entrywise_sum(pa, data):
    pb = data.draw(presentations(pa.p, pa.q, max_dim=3))
    for ua, ub, total in level_triples(pa, pb, rec_sum(pa, pb)):
        assert total == entrywise_sum(ua, ub)


@BINARY
@given(presentations(max_dim=3), st.data())
def test_rec_hadamard_is_the_entrywise_product(pa, data):
    pb = data.draw(presentations(pa.p, pa.q, max_dim=3))
    for ua, ub, had in level_triples(pa, pb, rec_hadamard(pa, pb)):
        assert had == entrywise_product(ua, ub)


@BINARY
@given(presentations(max_dim=3), st.data())
def test_rec_product_is_the_matrix_product(pa, data):
    pb = data.draw(presentations(pa.q, None, max_dim=3))
    for ua, ub, prod in level_triples(pa, pb, rec_product(pa, pb)):
        assert prod == mat_mul_by_sums(ua, ub)


@BINARY
@given(presentations(max_dim=3), st.data())
def test_rec_convolution_is_the_splitting_sum(pa, data):
    pb = data.draw(presentations(pa.p, pa.q, max_dim=3))
    for n, conv in enumerate(unfold_levels(rec_convolution(pa, pb), 3)):
        pairs = word_pairs(pa.p, pa.q, n)
        assert list(conv.entries) == [convolution_oracle(pa, pb, x) for x in pairs]
