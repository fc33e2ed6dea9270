"""Independently coded reference computations shared by the test modules.

Everything here deliberately avoids the library's own algorithms: cofactor
determinants instead of elimination, reflection-built folding sequences
instead of the index recursion, brute splitting sums instead of the
convolution presentation.
"""

from fractions import Fraction

from recqi import (
    ZERO,
    ONE,
    I,
    DenseMatrix,
    GaussianRational,
    Presentation,
    SpanBasis,
    WordPair,
    evaluate,
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


def spans_equal(vectors_a, vectors_b, length) -> bool:
    sa = SpanBasis(length)
    for v in vectors_a:
        sa.add(v)
    sb = SpanBasis(length)
    for v in vectors_b:
        sb.add(v)
    if sa.dim != sb.dim:
        return False
    return all(sa.contains(v) for v in vectors_b) and all(
        sb.contains(v) for v in vectors_a
    )
