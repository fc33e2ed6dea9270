"""Derandomized property tests: rref against Gauss-Jordan, the text round
trips, and minimize keeping the represented function."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from recqi import (  # noqa: E402
    ZERO,
    ONE,
    I,
    DenseMatrix,
    GaussianRational,
    Presentation,
    format_gaussian,
    mat_mul,
    minimize,
    parse_gaussian,
    rref,
    unfold,
)
from oracles import rref_by_pivoting  # noqa: E402

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=300)


def rationals(bound):
    return st.builds(Fraction, st.integers(-bound, bound), st.integers(1, bound))


def gaussians(bound):
    return st.builds(GaussianRational, rationals(bound), rationals(bound))


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


@PROPERTY
@given(gaussians(10**6))
def test_format_parse_round_trip(x):
    assert parse_gaussian(format_gaussian(x)) == x


@st.composite
def presentations(draw):
    """Presentations over alphabets of size at most 2 with at most 4
    generators, the empty one included."""
    p = draw(st.integers(1, 2))
    q = draw(st.integers(1, 2))
    dim = draw(st.integers(0, 4))

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
