"""Independently coded reference computations shared by the test modules.

Everything here deliberately avoids the library's own algorithms: cofactor
determinants instead of elimination, Gauss-Jordan row reduction instead of
the echelon basis behind ``rref``, reflection-built folding sequences
instead of the index recursion, brute splitting sums instead of the
convolution presentation, a J-fraction's convergents expanded by power-series
division instead of the path recurrence of ``jfraction_to_series``, and
generator values on every word pair up to a length instead of the orbits
that ``minimize`` and ``observation_kernel`` compute.
"""

from fractions import Fraction

from recqi import (
    ZERO,
    ONE,
    I,
    DenseMatrix,
    GaussianRational,
    Presentation,
    SeriesTruncation,
    SpanBasis,
    WordPair,
    as_gaussian,
    evaluate,
    kernel_basis,
)

UNIT_POOL = (
    ZERO,
    ONE,
    GaussianRational(-1),
    I,
    GaussianRational(0, -1),
)


def det_cofactor(m: DenseMatrix) -> GaussianRational:
    """First-row cofactor expansion; fine for order <= 5."""
    n = m.rows
    assert m.cols == n
    if n == 0:
        return ONE
    if n == 1:
        return m[0, 0]
    total = ZERO
    for c in range(n):
        x = m[0, c]
        if not x:
            continue
        minor = DenseMatrix.from_rows(
            [
                [m[r, cc] for cc in range(n) if cc != c]
                for r in range(1, n)
            ]
        )
        term = x * det_cofactor(minor)
        total = total + term if c % 2 == 0 else total - term
    return total


class FractionPair:
    """Q(i) as a pair of reduced Fractions (re, im), with the schoolbook
    formulas: the reference the int-backed GaussianRational is checked
    against. Operands are FractionPair, GaussianRational, int or Fraction."""

    def __init__(self, value, im=0):
        if isinstance(value, (FractionPair, GaussianRational)):
            value, im = value.re, value.im
        self.re, self.im = Fraction(value), Fraction(im)

    def __add__(self, other):
        other = FractionPair(other)
        return FractionPair(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        other = FractionPair(other)
        return FractionPair(self.re - other.re, self.im - other.im)

    def __mul__(self, other):
        other = FractionPair(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        return FractionPair(a * c - b * d, a * d + b * c)

    def __truediv__(self, other):
        other = FractionPair(other)
        a, b, c, d = self.re, self.im, other.re, other.im
        n = c * c + d * d
        return FractionPair((a * c + b * d) / n, (b * c - a * d) / n)

    def conjugate(self):
        return FractionPair(self.re, -self.im)

    def norm(self) -> Fraction:
        return self.re * self.re + self.im * self.im

    def __eq__(self, other):
        other = FractionPair(other)
        return (self.re, self.im) == (other.re, other.im)


def mat_mul_by_sums(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Entry (r, c) is the full sum over t of a[r, t] * b[t, c], zero terms
    included."""
    assert a.cols == b.rows
    return DenseMatrix(
        a.rows,
        b.cols,
        [
            sum((a[r, t] * b[t, c] for t in range(a.cols)), ZERO)
            for r in range(a.rows)
            for c in range(b.cols)
        ],
    )


def random_gaussian(rng, span=12) -> GaussianRational:
    def rat():
        return Fraction(rng.randint(-span, span), rng.randint(1, span))

    return GaussianRational(rat(), rat())


def random_gaussian_integer(rng, span=9) -> GaussianRational:
    return GaussianRational(rng.randint(-span, span), rng.randint(-span, span))


def random_int_matrix(rng, n, span=9) -> DenseMatrix:
    return DenseMatrix(n, n, [random_gaussian_integer(rng, span) for _ in range(n * n)])


def random_matrix(rng, rows, cols, span=6) -> DenseMatrix:
    return DenseMatrix(rows, cols, [random_gaussian(rng, span) for _ in range(rows * cols)])


def random_presentation(rng, p, q, max_dim=3) -> Presentation:
    """Sparse random presentation with entries in {0, +-1, +-i}."""
    dim = rng.randint(1, max_dim)
    weights = [5, 1, 1, 1, 1]  # mostly zero
    init = [rng.choices(UNIT_POOL, weights)[0] for _ in range(dim)]
    shifts = {}
    for s in range(p):
        for t in range(q):
            shifts[(s, t)] = DenseMatrix(
                dim, dim, [rng.choices(UNIT_POOL, weights)[0] for _ in range(dim * dim)]
            )
    return Presentation(p, q, init, shifts)


def convolution_oracle(pa: Presentation, pb: Presentation, pair: WordPair):
    """Brute splitting sum over all prefix/suffix cuts of the pair."""
    total = ZERO
    n = len(pair)
    for k in range(n + 1):
        left = WordPair(pa.p, pa.q, pair.row_word[:k], pair.col_word[:k])
        right = WordPair(pb.p, pb.q, pair.row_word[k:], pair.col_word[k:])
        total = total + evaluate(pa, left) * evaluate(pb, right)
    return total


def folding_by_reflection(length: int, signs) -> list:
    """Folding sequence values f(1)..f(length), built by repeated reflection.

    Step m extends the block f(1..2^m - 1) to f(1..2^(m+1) - 1) by appending
    the sign of 2^m and then the negated reversal of the block. ``signs`` is
    indexed like the library's sign sequences: f(2^k) uses signs[k + 1].
    """
    block = []
    m = 0
    while len(block) < length:
        center = signs[m + 1] if signs is not None else 1
        block = block + [center] + [-x for x in reversed(block)]
        m += 1
    return block[:length]


def folding_products_by_reflection(length: int, signs) -> list:
    """[prod_{k=1}^{n} (1 + i f(k)) for n = 0..length] as GaussianRational
    products, with f from :func:`folding_by_reflection`."""
    acc = ONE
    out = [acc]
    for f in folding_by_reflection(length, signs):
        acc = acc * GaussianRational(1, f)
        out.append(acc)
    return out


def rref_by_pivoting(m: DenseMatrix) -> tuple[DenseMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form by Gauss-Jordan elimination on a row list.

    Each column's pivot is the first nonzero entry at or below the current
    row; it is swapped up, scaled to 1 and cleared above and below.
    """
    rows, cols = m.rows, m.cols
    a = m.to_lists()
    pivots = []
    pr = 0
    for c in range(cols):
        pivot_row = next((r for r in range(pr, rows) if a[r][c]), None)
        if pivot_row is None:
            continue
        a[pr], a[pivot_row] = a[pivot_row], a[pr]
        inv = ONE / a[pr][c]
        a[pr] = [x * inv for x in a[pr]]
        prow = a[pr]
        for r in range(rows):
            f = a[r][c]
            if r != pr and f:
                a[r] = [x - f * y for x, y in zip(a[r], prow)]
        pivots.append(c)
        pr += 1
    return DenseMatrix(rows, cols, [x for row in a for x in row]), pr, tuple(pivots)


def spans_equal(vectors_a, vectors_b, length) -> bool:
    sa = SpanBasis(length)
    for v in vectors_a:
        sa.add(v)
    sb = SpanBasis(length)
    for v in vectors_b:
        sb.add(v)
    if sa.dim != sb.dim:
        return False
    return not any(x for v in vectors_b for x in sa.reduce(v)) and not any(
        x for v in vectors_a for x in sb.reduce(v)
    )


def restriction_levels(pres: Presentation):
    """Generator-value vectors of all word pairs, one list per length 0, 1, ...

    The vectors of length L + 1 are the shifts of those of length L: entry j
    of the shift of v by (s, t) is sum_k shift(s, t)[k, j] * v[k].
    """
    d = pres.dim
    columns = [
        [[(k, m[k, j]) for k in range(d) if m[k, j]] for j in range(d)]
        for _, m in pres.shift_items()
    ]
    level = [list(pres.init)]
    while True:
        yield level
        level = [
            [sum((w * v[k] for k, w in col if v[k]), ZERO) for col in cols]
            for v in level
            for cols in columns
        ]


def restriction_kernel(pres: Presentation, depth: int) -> list:
    """Generator combinations vanishing on every pair of length <= depth.

    Brute enumeration; agrees with ``observation_kernel`` once the
    restriction dimensions saturate.
    """
    if pres.dim == 0:
        return []
    span = SpanBasis(pres.dim)
    for _, level in zip(range(depth + 1), restriction_levels(pres)):
        for vec in level:
            span.add(vec)
    return kernel_basis(DenseMatrix(span.dim, pres.dim, sum(span.vectors(), [])))


def saturation_level(pres: Presentation, cap: int) -> int | None:
    """Smallest N with equal generator-restriction dimension at N and N + 1.

    The dimension is the rank of the matrix whose rows are generators and
    whose columns are all word pairs of length <= N. Returns None when no
    level at or below the cap qualifies.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if pres.dim == 0:
        return 0
    span = SpanBasis(pres.dim)
    ranks = []
    for length, level in enumerate(restriction_levels(pres)):
        for vec in level:
            span.add(vec)
        ranks.append(span.dim)
        if length > 0 and ranks[-2] == ranks[-1]:
            return length - 1
        if length == cap + 1:
            return None


def jfraction_by_convergents(jf, c0, order: int) -> SeriesTruncation:
    """Taylor coefficients 0..order of the continued fraction times c0.

    The unknown tail below level `depth` is replaced by the constant 1. The
    convergent num/den is built from the bottom level up, each level by

        num' = den,  den' = den - u_k x den - v_(k+1) x^2 num,

    and expanded by one exact power-series division (den has constant 1).
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c0 = as_gaussian(c0)
    num = [ONE] + [ZERO] * order
    den = list(num)
    for k in range(jf.depth - 1, -1, -1):
        u, v = jf.u_coeff(k), jf.v_coeff(k + 1)
        nxt = list(den)
        for j in range(order):
            if den[j]:
                nxt[j + 1] = nxt[j + 1] - u * den[j]
            if num[j] and j + 2 <= order:
                nxt[j + 2] = nxt[j + 2] - v * num[j]
        num, den = den, nxt
    series = []
    for n in range(order + 1):
        acc = num[n]
        for j in range(1, n + 1):
            if den[j]:
                acc = acc - den[j] * series[n - j]
        series.append(acc)
    return SeriesTruncation([c0 * x for x in series])
