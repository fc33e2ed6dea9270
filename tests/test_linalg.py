"""Exact dense linear algebra: reduction, kernels, two determinant routes."""

import ast
import operator
import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from recqi import linalg, thuemorse
from recqi import (
    ZERO,
    ONE,
    I,
    DegeneracyError,
    DenseMatrix,
    GaussianRational,
    SpanBasis,
    bareiss_leading_minors,
    det_bareiss,
    det_field,
    mat_mul,
    pow_i,
    rref,
)
from recqi.gaussian import to_parts
from oracles import (
    det_cofactor,
    hankel_minors_by_entries,
    kernel_basis,
    leading_minors_by_elimination,
    random_gaussian_integer,
    random_int_matrix,
    random_matrix,
)


def ints(*values):
    return [GaussianRational(v) for v in values]


def test_constructors_and_access():
    m = DenseMatrix.from_rows([[1, 2], [3, 4]])
    assert (m.rows, m.cols) == (2, 2)
    assert m[1, 0] == GaussianRational(3)
    assert DenseMatrix.identity(2) == DenseMatrix.from_rows([[1, 0], [0, 1]])
    assert DenseMatrix.zeros(2, 3).entries == tuple([ZERO] * 6)
    with pytest.raises(ValueError, match="expected 4 entries, got 1"):
        DenseMatrix(2, 2, [ONE])
    with pytest.raises(ValueError, match="negative dimension"):
        DenseMatrix(-1, 0, ())
    with pytest.raises(ValueError, match="ragged rows"):
        DenseMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(IndexError, match=r"\(2, 0\) out of range for 2x2"):
        m[2, 0]
    for r in (-1, 2):
        with pytest.raises(IndexError, match=f"row {r} out of range"):
            m.row_list(r)


def test_arithmetic_and_transpose():
    a = DenseMatrix.from_rows([[1, 2], [3, 4]])
    b = DenseMatrix.from_rows([[0, 1], [1, 0]])
    assert mat_mul(a, b) == DenseMatrix.from_rows([[2, 1], [4, 3]])
    assert a.transpose() == DenseMatrix.from_rows([[1, 3], [2, 4]])
    with pytest.raises(ValueError):
        mat_mul(a, DenseMatrix.zeros(3, 2))


def test_rref_shapes():
    r, rk, pivots = rref(DenseMatrix.identity(3))
    assert r == DenseMatrix.identity(3) and rk == 3 and pivots == (0, 1, 2)
    # second row is i times the first: rank 1
    m = DenseMatrix.from_rows([ints(1, 0) + [I], [I, ZERO, GaussianRational(-1)]])
    r, rk, pivots = rref(m)
    assert rk == 1 and pivots == (0,)
    assert r.row_list(1) == [ZERO, ZERO, ZERO]
    r, rk, pivots = rref(DenseMatrix.zeros(2, 2))
    assert rk == 0 and pivots == ()


def test_rref_pivot_columns_are_unit_vectors():
    rng = random.Random(11)
    for _ in range(50):
        m = random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        r, rk, pivots = rref(m)
        for k, p in enumerate(pivots):
            col = [r[row, p] for row in range(r.rows)]
            assert col[k] == ONE
            assert all(not col[row] for row in range(r.rows) if row != k)


def test_rank_of_transpose():
    rng = random.Random(1234)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(0, 5), rng.randint(1, 5))
        assert rref(m)[1] == rref(m.transpose())[1]


def test_kernel_examples():
    assert kernel_basis(DenseMatrix.identity(2)) == []
    # single row (1, i): kernel spanned by (-i, 1)
    vecs = kernel_basis(DenseMatrix.from_rows([[ONE, I]]))
    assert len(vecs) == 1
    assert vecs[0] == [-I, ONE]
    assert len(kernel_basis(DenseMatrix.zeros(1, 2))) == 2


def test_kernel_random():
    rng = random.Random(5)
    for _ in range(100):
        m = random_matrix(rng, rng.randint(1, 4), rng.randint(1, 5))
        vecs = kernel_basis(m)
        assert len(vecs) == m.cols - rref(m)[1]
        for v in vecs:
            product = mat_mul(m, DenseMatrix(m.cols, 1, v))
            assert all(not x for x in product.entries)


def test_det_examples():
    m = DenseMatrix.from_rows([[ONE, I], [I, I]])
    assert det_field(m) == ONE + I
    assert det_bareiss(m) == ONE + I
    assert det_field(DenseMatrix.identity(4)) == ONE
    assert det_bareiss(DenseMatrix(0, 0, ())) == ONE
    assert det_field(DenseMatrix(0, 0, ())) == ONE
    singular = DenseMatrix.from_rows([[1, 2], [2, 4]])
    assert det_field(singular) == ZERO
    assert det_bareiss(singular) == ZERO
    for det in (det_field, det_bareiss):
        with pytest.raises(ValueError, match="determinant of a non-square matrix"):
            det(DenseMatrix.zeros(2, 3))


def test_det_needs_row_swap():
    m = DenseMatrix.from_rows([[0, 1], [1, 0]])
    assert det_field(m) == -ONE
    assert det_bareiss(m) == -ONE


def test_det_routes_agree_with_cofactor():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randint(1, 4)
        m = random_int_matrix(rng, n, span=5)
        reference = det_cofactor(m)
        assert det_field(m) == reference
        assert det_bareiss(m) == reference


def test_det_multiplicative():
    rng = random.Random(78)
    for _ in range(50):
        n = rng.randint(1, 3)
        a = random_int_matrix(rng, n, span=4)
        b = random_int_matrix(rng, n, span=4)
        assert det_bareiss(mat_mul(a, b)) == det_bareiss(a) * det_bareiss(b)


def random_rational(rng, span):
    # zeros and small numerators over a few denominators make vanishing
    # minors common
    def rat():
        return Fraction(rng.randint(-span, span), rng.choice((1, 2, 3, 4, 6)))

    return ZERO if rng.random() < 0.3 else GaussianRational(rat(), rat())


def leading_block(m, k):
    return DenseMatrix.from_rows([[m[r, c] for c in range(k)] for r in range(k)])


def minors_by_either_route(m):
    """bareiss_leading_minors(m) for a Hankel m; for any other m, check that
    it raises ValueError and return the minors of the elimination oracle."""
    if linalg._hankel_values(m) is not None:
        return bareiss_leading_minors(m)
    with pytest.raises(ValueError, match="not Hankel"):
        bareiss_leading_minors(m)
    return leading_minors_by_elimination(m)


def test_det_bareiss_of_rational_matrices():
    m = DenseMatrix.from_rows([[GaussianRational(Fraction(1, 2)), ONE], [ONE, ONE]])
    assert det_bareiss(m) == det_field(m) == GaussianRational(Fraction(-1, 2))
    rng = random.Random(1931)
    for _ in range(150):
        n = rng.randint(1, 5)
        m = DenseMatrix(n, n, [random_rational(rng, 3) for _ in range(n * n)])
        assert det_bareiss(m) == det_field(m)


def test_det_bareiss_scales_each_row_by_its_own_denominators():
    # only the last three values of this Hankel matrix, in its last three
    # rows, carry the 300-bit denominator; scaled by one common multiple,
    # every row carried it, and the call took seconds
    rng = random.Random(2)
    d = rng.getrandbits(300) | 1 << 299 | 1
    values = [random_gaussian_integer(rng, 2) for _ in range(60)]
    values += [GaussianRational(Fraction(rng.randint(1, 9), d), 1) for _ in range(3)]
    m = DenseMatrix(32, 32, [values[r + c] for r in range(32) for c in range(32)])
    start = time.perf_counter()
    det = det_bareiss(m)
    assert time.perf_counter() - start < 1
    assert det == det_field(m)


def test_leading_minors_match_per_order_determinants():
    rng = random.Random(31)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        m = random_int_matrix(rng, n, span=4)
        try:
            minors = minors_by_either_route(m)
        except DegeneracyError as exc:
            k = exc.level
            block = DenseMatrix.from_rows(
                [[m[r, c] for c in range(k)] for r in range(k)]
            )
            assert det_bareiss(block) == ZERO
            continue
        checked += 1
        assert len(minors) == n + 1
        assert minors[0] == ONE
        for k in range(1, n + 1):
            block = DenseMatrix.from_rows(
                [[m[r, c] for c in range(k)] for r in range(k)]
            )
            assert minors[k] == det_bareiss(block)
    assert checked > 100


def test_leading_minors_degeneracy_level():
    # Hankel input steps over its vanishing minors; any other input is
    # refused, and the elimination oracle stops at the first vanishing minor
    # and names its order
    for rows in ([[0, 1], [1, 0]], [[1, 1], [1, 1]]):
        m = DenseMatrix.from_rows(rows)
        minors = bareiss_leading_minors(m)
        assert minors == [det_field(leading_block(m, k)) for k in range(3)]
        assert ZERO in minors
    with pytest.raises(DegeneracyError) as info:
        minors_by_either_route(DenseMatrix.from_rows([[0, 1], [2, 0]]))
    assert info.value.level == 1
    with pytest.raises(DegeneracyError) as info:
        minors_by_either_route(DenseMatrix.from_rows([[1, 1], [2, 2]]))
    assert info.value.level == 2
    assert bareiss_leading_minors(DenseMatrix(0, 0, ())) == [ONE]


def test_leading_minors_refuse_non_square_and_non_hankel_input():
    with pytest.raises(ValueError, match="non-square"):
        bareiss_leading_minors(DenseMatrix.zeros(2, 3))
    with pytest.raises(ValueError, match="not Hankel"):
        bareiss_leading_minors(DenseMatrix.from_rows([[1, 2], [3, 4]]))
    # every anti-diagonal constant but one, broken by entry (2, 1)
    with pytest.raises(ValueError, match="not Hankel"):
        bareiss_leading_minors(
            DenseMatrix.from_rows([[1, 2, 3], [2, 3, 4], [3, 5, 5]])
        )


def test_the_library_keeps_one_bareiss_loop():
    # det_bareiss holds the only pivot loop; the elimination giving the
    # leading minors of any matrix is the oracle in tests/oracles.py
    defined, imported = set(), set()
    for path in Path(linalg.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.ImportFrom) and path.name == "linalg.py":
                imported.add(node.module)
    assert "det_bareiss" in defined
    assert not defined & {"_elimination_minors", "_bareiss_step"}
    assert "errors" not in imported


def hankel_matrix(values):
    n = (len(values) + 1) // 2
    return DenseMatrix(n, n, [values[s + t] for s in range(n) for t in range(n)])


def test_hankel_route_matches_elimination_on_random_matrices():
    # small spans make vanishing leading minors common; the elimination
    # stops at the first, the recurrence gives every order, zeros included
    rng = random.Random(2024)
    degenerate = 0
    for _ in range(600):
        n = rng.randint(1, 8)
        span = rng.choice((1, 2, 6))
        values = [random_gaussian_integer(rng, span) for _ in range(2 * n - 1)]
        m = hankel_matrix(values)
        fast = bareiss_leading_minors(m)
        assert fast == [det_bareiss(leading_block(m, k)) for k in range(n + 1)]
        try:
            assert fast == leading_minors_by_elimination(m)
        except DegeneracyError as exc:
            assert fast.index(ZERO) == exc.level
            degenerate += 1
    assert degenerate > 20


def test_hankel_route_against_cofactor_and_field_determinants():
    rng = random.Random(77)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = hankel_matrix([random_gaussian_integer(rng, 5) for _ in range(2 * n - 1)])
        minors = bareiss_leading_minors(m)
        assert len(minors) == n + 1
        for k in range(1, n + 1):
            block = leading_block(m, k)
            assert minors[k] == det_cofactor(block) == det_field(block)


def test_hankel_route_is_taken_for_equal_but_distinct_entries():
    # from_rows builds a fresh object per cell, so only == finds the pattern;
    # a matrix not found Hankel would raise ValueError
    m = DenseMatrix.from_rows(
        [[GaussianRational((s + t) ** 3, 1) for t in range(4)] for s in range(4)]
    )
    assert bareiss_leading_minors(m) == leading_minors_by_elimination(m)


def test_almost_hankel_input_is_refused(monkeypatch):
    rng = random.Random(5)
    values = [random_gaussian_integer(rng) for _ in range(9)]
    rows = hankel_matrix(values).to_lists()
    rows[3][2] = rows[3][2] + ONE  # breaks (3, 2) == (2, 3) and (4, 1)
    m = DenseMatrix.from_rows(rows)

    def no_recurrence(re, im, scale):
        raise AssertionError("non-Hankel input went through the recurrence")

    monkeypatch.setattr(linalg, "_hankel_minors", no_recurrence)
    minors = minors_by_either_route(m)
    for k in range(1, 6):
        block = DenseMatrix.from_rows([[m[r, c] for c in range(k)] for r in range(k)])
        assert minors[k] == det_bareiss(block)


@pytest.mark.parametrize("hankel_input", [True, False])
def test_leading_minors_of_rational_matrices(hankel_input):
    rng = random.Random(1932)
    degenerate = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        span = rng.choice((1, 2, 5))
        if hankel_input:
            m = hankel_matrix([random_rational(rng, span) for _ in range(2 * n - 1)])
        else:
            m = DenseMatrix(n, n, [random_rational(rng, span) for _ in range(n * n)])
        if (linalg._hankel_values(m) is not None) != hankel_input:
            continue  # an order-1 or all-zero matrix is Hankel too
        expected = [det_field(leading_block(m, k)) for k in range(n + 1)]
        degenerate += ZERO in expected
        if hankel_input:
            # the minors of m, not of m times L, zeros included
            assert bareiss_leading_minors(m) == expected
            continue
        try:
            assert minors_by_either_route(m) == expected
        except DegeneracyError as exc:
            assert exc.level == expected.index(ZERO)
    assert degenerate > 40


def zero_runs(minors):
    """Lengths of the runs of vanishing minors of orders >= 1, each with
    whether a nonzero minor closes it."""
    runs, length = [], 0
    for d in minors[1:]:
        if d and length:
            runs.append((length, True))
        length = 0 if d else length + 1
    return runs + [(length, False)] * bool(length)


def test_hankel_minors_step_over_zero_runs():
    # each sequence is a few blocks: a run of zeros closed by one value, so
    # the minors vanish in runs of several orders inside and at the end
    rng = random.Random(2026)
    degenerate = closed = 0
    longest = 0
    for trial in range(1200):
        n = rng.randint(1, 12)
        values = []
        while len(values) < 2 * n - 1:
            values += [ZERO] * rng.choice((0, 0, 0, 1, 2, 3, 5, 8))
            if trial % 2:
                values.append(random_rational(rng, 3) or ONE)
            else:
                values.append(random_gaussian_integer(rng, rng.choice((1, 2))) or ONE)
        values = values[: 2 * n - 1]
        m = hankel_matrix(values)
        expected = [det_field(leading_block(m, k)) for k in range(n + 1)]
        if trial % 3:
            assert bareiss_leading_minors(m) == expected
        else:
            assert linalg.hankel_recurrence(values)[0] == expected
        runs = zero_runs(expected)
        degenerate += bool(runs)
        closed += any(length > 1 and ok for length, ok in runs)
        longest = max([longest] + [length for length, ok in runs if ok])
    assert degenerate >= 100 and closed >= 100 and longest >= 5


def test_hankel_recurrence_of_rational_values():
    rng = random.Random(1933)
    for _ in range(100):
        n = rng.randint(2, 6)
        values = [random_rational(rng, 5) for _ in range(2 * n - 1)]
        m = hankel_matrix(values)
        minors, upper = linalg.hankel_recurrence(values)
        assert minors == [det_field(leading_block(m, k)) for k in range(n + 1)]
        # T_k(k+1) is given while D(1..k) != 0
        assert len(upper) == min(n - 1, (minors + [ZERO]).index(ZERO, 1))
        # T_k(k+1): rows 0..k, columns 0..k-1 and k+1
        for k, t in enumerate(upper):
            cols = [*range(k), k + 1]
            rows = [[m[r, c] for c in cols] for r in range(k + 1)]
            assert t == det_field(DenseMatrix.from_rows(rows))


def block_step_table(rng, blocks, n):
    """c(0..2n-2) on which the recurrence steps from row k over the h - 1
    vanishing minors D(k+1..k+h-1), for each (k, h) in blocks, each k at
    least 2k + h - 1 of the block before: c(k..2k+h-2) follow a random
    linear recurrence of order k, so columns k..k+h-2 of rows 0..k are
    combinations of columns 0..k-1 and T_k(k..k+h-2) vanish. Every other
    value is random."""
    values = []
    for k, h in blocks:
        values += [random_gaussian_integer(rng, 2) for _ in range(k - len(values))]
        coeffs = [random_gaussian_integer(rng, 1) for _ in range(k)]
        while len(values) < 2 * k + h - 1:
            values.append(sum(map(operator.mul, coeffs, values[-k:]), ZERO))
    values += [random_gaussian_integer(rng) for _ in range(2 * n - 1 - len(values))]
    return values


def packed_kernel_tables(kind):
    if kind == "moments":
        return [thuemorse.series_product(None, 600).coefficients]
    if kind == "conjecture-check":
        # the sign prefixes of `conjecture-check --seed=0`, drawn as the CLI does
        rng = random.Random(0)
        sigmas = [
            thuemorse.SignSequence([rng.choice((1, -1)) for _ in range(10)])
            for _ in range(20)
        ]
        return [thuemorse.series_product(s, 256).coefficients for s in sigmas]
    if kind == "beta-gamma":
        return [
            getattr(thuemorse, f"{name}_coeffs")(offset + 254).coefficients[offset:]
            for name in ("beta", "gamma")
            for offset in range(3)
        ]
    rng = random.Random(20)
    if kind == "random":
        # Gaussian integers with parts up to 10^6
        parts = [rng.randint(-(10**6), 10**6) for _ in range(2 * 2 * 60)]
        values = [GaussianRational(*parts[j : j + 2]) for j in range(0, len(parts), 2)]
        return [values[: 2 * n - 1] for n in (1, 2, 3, 8, 21, 60)]
    if kind == "rational":
        return [
            [random_rational(rng, 5) for _ in range(2 * n - 1)]
            for n in (1, 2, 5, 12, 30, 40)
        ]
    assert kind == "block-steps"
    return [
        block_step_table(rng, [(31, 4)], 45),
        block_step_table(rng, [(3, 2), (33, 6)], 50),
        block_step_table(rng, [(10, 3), (32, 5)], 45),
    ]


@pytest.mark.parametrize(
    "kind",
    ["moments", "conjecture-check", "beta-gamma", "random", "rational", "block-steps"],
)
def test_packed_rows_match_the_per_entry_kernel(kind, monkeypatch):
    widths, limit = [], 0
    slot_width = linalg._slot_width

    def checked_slot_width(bits):
        # a wrong slot bound can grow the rows without end instead of giving
        # wrong minors: stop it at its first request far past the entries
        assert bits <= limit, f"a slot of {bits} bits requested, past {limit}"
        widths.append(bits)
        return slot_width(bits)

    monkeypatch.setattr(linalg, "_slot_width", checked_slot_width)
    repacked = False
    tables = packed_kernel_tables(kind)
    for values in tables:
        # the order-20 prefix first: on a short table a wrong kernel fails early
        for prefix in (values[:39], values):
            parts = to_parts(prefix)
            expected = hankel_minors_by_entries(*parts)
            # each row entry is a minor of L*c of the order of some D(k) of
            # L*c, and about as large: on these tables the correct kernel asks
            # for at most 8 bits more than the largest part of the D(k)
            scale = parts[2]
            largest = max(
                abs(z).bit_length()
                for k, minor in enumerate(expected[0])
                for z in (minor * scale**k).integer_parts()
            )
            limit = 4 * largest + 64
            widths.clear()
            assert linalg._hankel_minors(*parts) == expected
            # the first width is the packing of the values, each later one
            # a repack
            repacked |= len(widths) > 1
    if kind == "random":
        # entries of 20 bits and more outgrow the first slot width
        assert repacked
    if kind == "block-steps":
        # each table steps over a run of at least three vanishing minors
        # past order 30
        for values in tables:
            minors = linalg.hankel_recurrence(values)[0]
            assert any(
                length >= 3 and closed for length, closed in zero_runs(minors[30:])
            )


def test_leading_minors_build_one_scalar_per_minor(monkeypatch):
    # the i^tau(n) moments: every Hankel minor is nonzero
    n = 12
    values = [pow_i(bin(k).count("1")) for k in range(2 * n - 1)]
    m = hankel_matrix(values)
    built = []

    def counting(*parts):
        built.append(parts)
        return GaussianRational(*parts)

    monkeypatch.setattr(linalg, "GaussianRational", counting)
    minors = bareiss_leading_minors(m)
    assert len(built) == n and all(minors)
    # only the J-fraction route reads T_k(k+1), so only it builds them
    built.clear()
    assert linalg.hankel_recurrence(values)[0] == minors
    assert len(built) == 2 * n - 1


def test_matrix_coerces_only_what_the_library_did_not_build(monkeypatch):
    x = GaussianRational(Fraction(1, 3), 2)
    m = DenseMatrix(1, 4, [x, 2, Fraction(-1, 2), True])
    assert m.entries == (x, *map(GaussianRational, (2, Fraction(-1, 2), 1)))
    assert all(type(e) is GaussianRational for e in m.entries)
    with pytest.raises(TypeError):
        DenseMatrix(1, 2, [x, 0.5])

    def no_coercion(value):
        raise AssertionError(f"{value!r} was coerced again")

    monkeypatch.setattr(linalg, "as_gaussian", no_coercion)
    assert mat_mul(m.transpose(), m)[0, 0] == x * x


def test_degeneracy_carries_unscaled_minors():
    # vanishes at order 3 only; the denominators give L = 6
    factor = GaussianRational(Fraction(1, 2), Fraction(-1, 3))
    values = [factor * x for x in ints(1, 0, 1, 0, 1, 1, 1, 1, -1)]
    m = hankel_matrix(values)
    expected = [det_field(leading_block(m, k)) for k in range(6)]
    assert expected[2] == factor * factor and expected[3] == ZERO
    assert all(expected[4:])
    assert bareiss_leading_minors(m) == expected
    assert linalg.hankel_recurrence(values)[0] == expected
    with pytest.raises(DegeneracyError) as info:
        leading_minors_by_elimination(m)
    assert info.value.level == 3


def test_span_basis():
    sb = SpanBasis(3)
    assert sb.add(ints(1, 0, 1)) is not None
    assert sb.add(ints(2, 0, 2)) is None
    assert sb.add(ints(0, 1, 0)) is not None
    assert sb.dim == 2
    assert not any(sb.reduce(ints(3, 5, 3)))
    assert any(sb.reduce(ints(0, 0, 1)))
    assert sb.pivots == (0, 1)
    assert len(sb.vectors()) == 2
    # int and Fraction entries are coerced; the stored rows hold scalars
    assert sb.reduce([2, Fraction(1, 2), 3]) == ints(0, 0, 1)
    assert all(type(x) is GaussianRational for x in sb.reduce([2, 1, 3]))
    with pytest.raises(ValueError, match="vector length mismatch"):
        sb.reduce(ints(1, 0))


def test_shape_predicates():
    low = DenseMatrix.from_rows([[1, 0], [5, 1]])
    assert low.is_unit_lower_triangular()
    assert not low.is_upper_triangular()
    assert low.transpose().is_upper_triangular()
    assert DenseMatrix.from_rows([[2, 0], [0, 3]]).is_diagonal()
    assert not DenseMatrix.from_rows([[2, 0], [5, 1]]).is_unit_lower_triangular()
    assert not DenseMatrix.from_rows([[1, 2], [0, 1]]).is_unit_lower_triangular()
    assert not DenseMatrix.from_rows([[1, 0, 0], [0, 1, 0]]).is_unit_lower_triangular()
    assert DenseMatrix.from_rows([[2, 0, 0], [0, 3, 0]]).is_diagonal()
    assert not DenseMatrix.from_rows([[2, 0, 1], [0, 3, 0]]).is_diagonal()
    assert not DenseMatrix.from_rows([[2, 0], [0, 3], [1, 0]]).is_diagonal()
    assert DenseMatrix.from_rows([[1, 0], [0, 2]]).diagonal() == ints(1, 2)


def test_to_csv():
    m = DenseMatrix.from_rows(
        [
            [ONE, GaussianRational(Fraction(-1, 2), Fraction(1, 3))],
            [I, ZERO],
        ]
    )
    assert m.to_csv() == "1,-1/2+1/3i\n1i,0"
    assert DenseMatrix(0, 0, ()).to_csv() == ""
    assert DenseMatrix(1, 0, ()).to_csv() == ""
