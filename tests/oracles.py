"""Independently coded reference computations shared by the test modules.

Everything here deliberately avoids the library's own algorithms: cofactor
determinants instead of elimination, leading minors by one Bareiss
elimination instead of the Hankel recurrence, the recurrence itself one
entry at a time (``hankel_minors_by_entries``) instead of on whole rows
packed into ints, Gauss-Jordan row reduction
instead of the echelon basis behind ``rref``, reflection-built folding
sequences instead of the index recursion, brute splitting sums instead of the
convolution presentation, a J-fraction's convergents expanded by power-series
division instead of the path recurrence of ``jfraction_to_series``,
generator values on every word pair up to a length instead of the orbits
that ``minimize`` and ``observation_kernel`` compute, and a quotient by the
null space of the pairing matrix, completed to a basis of the forward orbit,
instead of ``minimize``'s one ``rref`` of it.
"""

import math
from fractions import Fraction
from functools import reduce

from recqi import (
    ZERO,
    ONE,
    I,
    DegeneracyError,
    DenseMatrix,
    GaussianRational,
    Presentation,
    SeriesTruncation,
    SpanBasis,
    WordPair,
    as_gaussian,
    evaluate,
    pow_i,
    rref,
    zero_presentation,
)
from recqi.linalg import _as_int_pairs, _divide_powers
from recqi.recmat import _apply_action, _orbit_span, _sparse_rows

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


def entrywise_product(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Entry (r, c) is a[r, c] * b[r, c]."""
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return DenseMatrix(a.rows, a.cols, [x * y for x, y in zip(a.entries, b.entries)])


def entrywise_sum(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """Entry (r, c) is a[r, c] + b[r, c]."""
    assert (a.rows, a.cols) == (b.rows, b.cols)
    return DenseMatrix(a.rows, a.cols, [x + y for x, y in zip(a.entries, b.entries)])


def scalar_multiple(factor, m: DenseMatrix) -> DenseMatrix:
    """Entry (r, c) is factor * m[r, c]."""
    f = as_gaussian(factor)
    return DenseMatrix(m.rows, m.cols, [f * x for x in m.entries])


def _bareiss_step(re, im, k, n, dr, di, pr, pi):
    # one elimination step: rows/cols beyond k updated in place, exact division
    # by the previous pivot (pr, pi) through its conjugate
    nrm = pr * pr + pi * pi
    rk_re = re[k]
    rk_im = im[k]
    for r in range(k + 1, n):
        rr_re = re[r]
        rr_im = im[r]
        ar = rr_re[k]
        ai = rr_im[k]
        for c in range(k + 1, n):
            br = rk_re[c]
            bi = rk_im[c]
            xr = rr_re[c]
            xi = rr_im[c]
            tr = dr * xr - di * xi - ar * br + ai * bi
            ti = dr * xi + di * xr - ar * bi - ai * br
            rr_re[c] = (tr * pr + ti * pi) // nrm
            rr_im[c] = (ti * pr - tr * pi) // nrm
        rr_re[k] = 0
        rr_im[k] = 0


def leading_minors_by_elimination(m: DenseMatrix) -> list[GaussianRational]:
    """Leading principal minors of any square Q(i) matrix by one Bareiss
    elimination without row swaps on L*m, L the least common multiple of the
    denominators: the pivot after step k is the order-(k+1) minor of L*m.
    Raises DegeneracyError naming the order of the first vanishing minor."""
    re, im, scale = _as_int_pairs(m)
    n = m.rows
    minors = [ONE]
    pr, pi = 1, 0
    for k in range(n):
        dr, di = re[k][k], im[k][k]
        if dr == 0 and di == 0:
            raise DegeneracyError(
                f"leading principal minor of order {k + 1} vanishes", level=k + 1
            )
        minors.append(GaussianRational(dr, di))
        if k < n - 1:
            _bareiss_step(re, im, k, n, dr, di, pr, pi)
        pr, pi = dr, di
    return _divide_powers(minors, scale)


def _mul(x: tuple, y: tuple) -> tuple:
    """Product of two Gaussian integers held as (re, im) int pairs."""
    return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def _div(x: tuple, y: tuple) -> tuple:
    """Exact quotient x / y of two Gaussian integers held as int pairs."""
    nrm = y[0] * y[0] + y[1] * y[1]
    re, im = _mul(x, (y[0], -y[1]))
    return re // nrm, im // nrm


def hankel_minors_by_entries(cur_re: list, cur_im: list, scale: int) -> tuple[list, list]:
    """Leading minors and entries T_k(k+1) for c(0..2n-2), given as the int
    pairs of L*c with L = scale.

    T_k(l) is the determinant of rows 0..k and columns 0..k-1 and l of the
    infinite Hankel matrix: the pivot-row entry in column l after k Bareiss
    steps, so D(k+1) = T_k(k) is the order-(k+1) minor. Hankel minors vanish
    in square blocks (Brown-Traub's subresultant theorem), so each step goes
    from a row k with D(k) != 0 to the next such row. Let p be the row
    computed before k (T_-1 = 0, and T_p(k-1) = 1 at k = 0), m >= k the first
    column below n with tau = T_k(m) != 0 (if none, every later minor is 0),
    h = m - k + 1 and s = (-1)^(h(h-1)/2). Then D(k+1..m) = 0,
    D(k+h) = s tau^h / D(k)^(h-1) and, for k+h <= l <= 2n-2-k-h,

        D(k)^h T_p(k-1) T_{k+h}(l) = s (sum_j q_j T_k(l+j) - tau^(h+1) T_p(l))

    with q_h..q_0 from sum_j q_j T_k(l+j) = tau^(h+1) T_p(l), l = k-1..m, by
    back substitution; at h = 1, the Chebyshev (qd) recurrence, the sum reads
    T_k itself. Every T is a minor of a Gaussian-integer matrix, so each
    division is exact in Z[i]: a product with the divisor's conjugate, folded
    into three row coefficients, then two floor divisions by its norm.
    Returns D(0..n) of c, D(k) of L*c divided by L^k, and the int pairs of
    T_k(k+1) of L*c for k <= n-2 while D(1..k) != 0.
    """
    size = len(cur_re)
    n = (size + 1) // 2
    prev_re = prev_im = [0] * size
    d = e = (1, 0)  # D(k) and T_p(k-1)
    minors = [ONE]
    upper = []
    k = 0
    while k < n:
        if len(upper) == k < n - 1:
            upper.append((cur_re[k + 1], cur_im[k + 1]))
        m = next((l for l in range(k, n) if cur_re[l] or cur_im[l]), n)
        minors += [ZERO] * (m - k)
        if m == n:
            break
        h = m - k + 1
        tau = cur_re[m], cur_im[m]
        s = -1 if h % 4 > 1 else 1
        th = reduce(_mul, [tau] * h)
        d_next = _div((s * th[0], s * th[1]), reduce(_mul, [d] * (h - 1), (1, 0)))
        minors.append(GaussianRational(*d_next))
        if k + h == n:
            break
        th1 = _mul(th, tau)
        q = [None] * h + [_mul(th, e)]
        for i in range(1, h + 1):
            acc = _mul(th1, (prev_re[k - 1 + i], prev_im[k - 1 + i]))
            for t in range(1, i + 1):
                y = _mul(q[h - i + t], (cur_re[m + t], cur_im[m + t]))
                acc = acc[0] - y[0], acc[1] - y[1]
            q[h - i] = _div(acc, tau)
        if h == 1:
            (a_r, a_i), x_re, x_im = q[1], cur_re, cur_im
        else:
            # the shifts j >= 1 folded into one row, read at l + 1 like T_k
            (a_r, a_i), x_re, x_im = (1, 0), [0] * size, [0] * size
            for l in range(k + h, size - k - h):
                for j in range(1, h + 1):
                    y = _mul(q[j], (cur_re[l + j], cur_im[l + j]))
                    x_re[l + 1] += y[0]
                    x_im[l + 1] += y[1]
        b_r, b_i = q[0]
        # s times the divisor's conjugate, folded into the row coefficients
        gr, gi = reduce(_mul, [d] * h, e)
        nrm = gr * gr + gi * gi
        gr, gi = s * gr, -s * gi
        a_r, a_i = a_r * gr - a_i * gi, a_r * gi + a_i * gr
        b_r, b_i = b_r * gr - b_i * gi, b_r * gi + b_i * gr
        c_r, c_i = _mul(th1, (gr, gi))
        # a factor common to the coefficients and the norm leaves every
        # quotient as it is and exact, so divide it out
        g = math.gcd(a_r, a_i, b_r, b_i, c_r, c_i, nrm)
        a_r, a_i, b_r, b_i, c_r, c_i, nrm = (
            v // g for v in (a_r, a_i, b_r, b_i, c_r, c_i, nrm)
        )
        nxt_re, nxt_im = [0] * size, [0] * size
        for l in range(k + h, size - k - h):
            xr, xi = x_re[l + 1], x_im[l + 1]
            yr, yi = cur_re[l], cur_im[l]
            zr, zi = prev_re[l], prev_im[l]
            nxt_re[l] = (
                a_r * xr - a_i * xi + b_r * yr - b_i * yi - c_r * zr + c_i * zi
            ) // nrm
            nxt_im[l] = (
                a_r * xi + a_i * xr + b_r * yi + b_i * yr - c_r * zi - c_i * zr
            ) // nrm
        prev_re, prev_im, cur_re, cur_im = cur_re, cur_im, nxt_re, nxt_im
        d, e = d_next, tau
        k += h
    return _divide_powers(minors, scale), upper


def moment_sequence(count: int) -> list[GaussianRational]:
    """The first ``count`` digit-sum moments i^tau(n), tau(n) from bit_count."""
    return [pow_i(n.bit_count()) for n in range(count)]


def hankel_ratio_check(dets, jf):
    """Pairs (v_n, det ratio) for n = 1..depth, from a determinant table.

    ``dets[k]`` must be the order-k Hankel determinant (``dets[0]`` = 1).
    The identity: v_n = dets[n-1] * dets[n+1] / dets[n]^2. A zero
    determinant inside the checked range raises DegeneracyError naming its
    order.
    """
    dets = [as_gaussian(x) for x in dets]
    limit = min(jf.depth, len(dets) - 2)
    for k in range(1, limit + 2):
        if not dets[k]:
            raise DegeneracyError(f"Hankel determinant of order {k} vanishes", level=k)
    return [
        (jf.v_coeff(n), dets[n - 1] * dets[n + 1] / (dets[n] * dets[n]))
        for n in range(1, limit + 1)
    ]


def index_to_word(index: int, base: int, length: int) -> tuple[int, ...]:
    """Digits of index in the given base, least significant first."""
    if index < 0 or index >= base**length:
        raise ValueError(f"index {index} out of range for length {length}")
    word = []
    for _ in range(length):
        word.append(index % base)
        index //= base
    return tuple(word)


def word_pairs(p: int, q: int, length: int):
    """All pairs of the given length, ordered by (row index, column index)."""
    for r in range(p**length):
        rw = index_to_word(r, p, length)
        for c in range(q**length):
            yield WordPair(p, q, rw, index_to_word(c, q, length))


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


def kernel_basis(m: DenseMatrix) -> list[list[GaussianRational]]:
    """Basis of {x : m @ x = 0}, one vector per free column, deterministic order."""
    r, rk, pivots = rref(m)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = [ZERO] * m.cols
        v[free] = ONE
        for k, p in enumerate(pivots):
            v[p] = -r[k, free]
        basis.append(v)
    return basis


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


def _dot(xs, ys) -> GaussianRational:
    """sum_k xs[k] * ys[k], scanning every entry: the oracle pairs vectors
    without the library's sparse shift action."""
    terms = [x * y for x, y in zip(xs, ys) if y]
    return sum(terms[1:], terms[0]) if terms else ZERO


def minimize_by_completion(pres: Presentation) -> Presentation:
    """Smallest presentation of the same function.

    Restrict to the forward orbit of the represented coordinate, then quotient
    by the subspace the observation orbit cannot see. The first generator of
    the result is the function itself.
    """
    d = pres.dim
    if d == 0:
        return zero_presentation(pres.p, pres.q)
    mats = pres.shift_items()
    forward = [_sparse_rows(mat.to_lists()) for _, mat in mats]
    e0 = [ONE] + [ZERO] * (d - 1)
    fwd = _orbit_span(e0, forward).vectors()
    backward = [_sparse_rows(zip(*mat.to_lists())) for _, mat in mats]
    obs = _orbit_span(list(pres.init), backward)
    # N = vectors of the forward span annihilated by every observation row
    ov = [_dot(o, v) for o in obs.vectors() for v in fwd]
    null_coords = kernel_basis(DenseMatrix(obs.dim, len(fwd), ov))
    fwd_cols = list(zip(*fwd))
    null_vectors = [[_dot(col, coords) for col in fwd_cols] for coords in null_coords]
    m = len(fwd) - len(null_vectors)
    if m == 0:
        return zero_presentation(pres.p, pres.q)
    # complete the null space to a basis of the forward span, first candidate
    # the represented coordinate itself so generator 0 survives as the function
    completion = SpanBasis(d)
    for vec in null_vectors:
        completion.add(vec)
    chosen = []
    for cand in [e0] + fwd:
        if len(chosen) == m:
            break
        if completion.add(cand) is not None:
            chosen.append(cand)
    if len(chosen) != m:
        raise AssertionError("forward span completion failed")
    basis = chosen + null_vectors
    cols = len(basis)
    # solve for all induced shift columns at once against the basis matrix
    rhs = [_apply_action(action, u) for action in forward for u in chosen]
    aug_rows = []
    for r in range(d):
        row = [basis[j][r] for j in range(cols)]
        row.extend(w[r] for w in rhs)
        aug_rows.append(row)
    reduced, rk, pivots = rref(DenseMatrix.from_rows(aug_rows))
    if pivots[:cols] != tuple(range(cols)) or rk != cols:
        raise AssertionError("quotient basis is not independent")
    new_shifts = {}
    idx = 0
    for (s, t), _ in mats:
        entries = []
        for k in range(m):
            for j in range(m):
                entries.append(reduced[k, cols + idx + j])
        new_shifts[(s, t)] = DenseMatrix(m, m, entries)
        idx += m
    new_init = [_dot(pres.init, u) for u in chosen]
    labels = [f"m{k}" for k in range(m)]
    return Presentation(pres.p, pres.q, new_init, new_shifts, labels)


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
