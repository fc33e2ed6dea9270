"""Dense exact linear algebra over Q(i).

One field elimination, the echelon basis :class:`SpanBasis`, gives span
membership, the reduced row echelon form, kernels and the field determinant.
Determinants have two independent routes: field elimination through that
basis (:func:`det_field`, any Gaussian-rational matrix, the tests'
reference) and fraction-free Bareiss elimination (big-int kernel, no
rational blowup). All leading principal minors of a Hankel matrix come from
an O(n^2) fraction-free recurrence instead, whose rows are the pivot rows
the elimination would produce; it steps over each square block of vanishing
minors, so one pass gives every minor, zeros included, and the J-fraction
coefficients of :mod:`recqi.jacobi`. The fraction-free routes take any Q(i)
input: they run on L times it, L the least common multiple of its
denominators, and divide an order-k minor by L^k, so callers never scale.
Pivoting always takes the first nonzero candidate, so every result is
bit-reproducible.
"""

from __future__ import annotations

import bisect
import math
from functools import reduce

from .errors import DegeneracyError
from .gaussian import (
    ZERO,
    ONE,
    GaussianRational,
    _integers,
    _reduced,
    as_gaussian,
    format_gaussian,
)


class DenseMatrix:
    """Immutable dense matrix with GaussianRational entries, row-major."""

    __slots__ = ("_rows", "_cols", "_e")

    def __init__(self, rows: int, cols: int, entries):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimension")
        e = tuple(entries)
        if {*map(type, e)} - {GaussianRational}:  # coerce all but scalars
            e = tuple(map(as_gaussian, e))
        if len(e) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(e)}")
        self._rows = rows
        self._cols = cols
        self._e = e

    @classmethod
    def from_rows(cls, rows) -> "DenseMatrix":
        rows = [list(r) for r in rows]
        if not rows:
            return cls(0, 0, ())
        cols = len(rows[0])
        if any(len(r) != cols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), cols, [x for r in rows for x in r])

    @classmethod
    def identity(cls, n: int) -> "DenseMatrix":
        return cls(n, n, [ONE if r == c else ZERO for r in range(n) for c in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DenseMatrix":
        return cls(rows, cols, [ZERO] * (rows * cols))

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def entries(self) -> tuple:
        return self._e

    @property
    def is_square(self) -> bool:
        return self._rows == self._cols

    def __getitem__(self, key) -> GaussianRational:
        r, c = key
        if not (0 <= r < self._rows and 0 <= c < self._cols):
            raise IndexError(f"({r}, {c}) out of range for {self._rows}x{self._cols}")
        return self._e[r * self._cols + c]

    def row_list(self, r: int) -> list:
        if not 0 <= r < self._rows:
            raise IndexError(f"row {r} out of range")
        return list(self._e[r * self._cols : (r + 1) * self._cols])

    def to_lists(self) -> list:
        return [self.row_list(r) for r in range(self._rows)]

    def diagonal(self) -> list:
        return [self[k, k] for k in range(min(self._rows, self._cols))]

    def transpose(self) -> "DenseMatrix":
        e = self._e
        c = self._cols
        return DenseMatrix(
            c, self._rows, [e[r * c + j] for j in range(c) for r in range(self._rows)]
        )

    def scale(self, factor) -> "DenseMatrix":
        f = as_gaussian(factor)
        return DenseMatrix(self._rows, self._cols, [f * x for x in self._e])

    def __add__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise ValueError("shape mismatch")
        return DenseMatrix(
            self._rows, self._cols, [a + b for a, b in zip(self._e, other._e)]
        )

    def __sub__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return self + other.scale(-1)

    def entrywise_product(self, other: "DenseMatrix") -> "DenseMatrix":
        if (self._rows, self._cols) != (other._rows, other._cols):
            raise ValueError("shape mismatch")
        return DenseMatrix(
            self._rows, self._cols, [a * b for a, b in zip(self._e, other._e)]
        )

    def __matmul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return mat_mul(self, other)

    def __eq__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        return (
            self._rows == other._rows
            and self._cols == other._cols
            and self._e == other._e
        )

    def __hash__(self):
        return hash((self._rows, self._cols, self._e))

    def __repr__(self):
        return f"DenseMatrix({self._rows}x{self._cols})"

    def is_diagonal(self) -> bool:
        return all(
            not self._e[r * self._cols + c]
            for r in range(self._rows)
            for c in range(self._cols)
            if r != c
        )

    def is_upper_triangular(self) -> bool:
        return all(
            not self._e[r * self._cols + c]
            for r in range(self._rows)
            for c in range(min(r, self._cols))
        )

    def is_unit_lower_triangular(self) -> bool:
        if not self.is_square:
            return False
        for r in range(self._rows):
            if self._e[r * self._cols + r] != ONE:
                return False
            for c in range(r + 1, self._cols):
                if self._e[r * self._cols + c]:
                    return False
        return True

    def to_csv(self) -> str:
        """One line per row, cells in canonical Gaussian form."""
        return "\n".join(",".join(map(format_gaussian, row)) for row in self.to_lists())


def mat_mul(a: DenseMatrix, b: DenseMatrix) -> DenseMatrix:
    """a times b, summed on Gaussian-integer pairs over one common denominator."""
    if a.cols != b.rows:
        raise ValueError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    a_re, a_im, a_scale = _as_int_pairs(a)
    b_re, b_im, b_scale = _as_int_pairs(b)
    # the nonzero (column, re, im) triples of each row of b, read once
    b_rows = [
        [(c, u, v) for c, u, v in zip(range(b.cols), *row) if u or v]
        for row in zip(b_re, b_im)
    ]
    re, im = [], []
    for a_row in zip(a_re, a_im):
        row_re, row_im = [0] * b.cols, [0] * b.cols
        for x, y, b_row in zip(*a_row, b_rows):
            if x or y:
                for c, u, v in b_row:
                    row_re[c] += x * u - y * v
                    row_im[c] += x * v + y * u
        re += row_re
        im += row_im
    return DenseMatrix(a.rows, b.cols, _from_int_parts(re, im, a_scale * b_scale))


def rref(m: DenseMatrix) -> tuple[DenseMatrix, int, tuple[int, ...]]:
    """Reduced row echelon form: (R, rank, pivot_columns).

    The rows of m go into a :class:`SpanBasis`, which stores them in echelon
    form with unit pivots. Adding those rows again, last pivot first, to a
    second basis reduces each against the rows below it, which clears every
    entry above a pivot; zero rows pad R to the shape of m. The RREF of a
    matrix is unique, so the order of elimination does not show in R.
    """
    echelon = SpanBasis(m.cols)
    for r in range(m.rows):
        echelon.add(m.row_list(r))
    reduced = SpanBasis(m.cols)
    for vec in reversed(echelon.vectors()):
        reduced.add(vec)
    entries = [x for vec in reduced.vectors() for x in vec]
    entries += [ZERO] * (m.rows * m.cols - len(entries))
    return DenseMatrix(m.rows, m.cols, entries), reduced.dim, reduced.pivots


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


def det_field(m: DenseMatrix) -> GaussianRational:
    """Determinant by field elimination through a :class:`SpanBasis`.

    Each row's residual against the rows before it is the row minus a
    combination of them, so the determinant is unchanged; a zero residual
    means it is 0. Sorted by pivot the residuals are upper triangular with
    their leading entries on the diagonal, and each stored pivot after a new
    one is an inversion of the pivot order, one sign flip.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    basis = SpanBasis(m.cols)
    det = ONE
    for r in range(m.rows):
        v = basis.reduce(m.row_list(r))
        pivot = next((idx for idx, x in enumerate(v) if x), None)
        if pivot is None:
            return ZERO
        flips = sum(p > pivot for p in basis.pivots)
        det = det * (-v[pivot] if flips % 2 else v[pivot])
        basis.add(v)
    return det


def _int_parts(values) -> tuple[list[int], list[int], int]:
    """Real and imaginary parts of L*x for each value x, and L, the least
    common multiple of the denominators of all parts."""
    parts = [x.integer_parts() for x in values]
    scale = math.lcm(*{d for _, _, d in parts})
    re = [a * (scale // d) for a, _, d in parts]
    im = [b * (scale // d) for _, b, d in parts]
    return re, im, scale


def _from_int_parts(re: list, im: list, scale: int) -> list:
    """The scalars (re[j] + im[j]*i)/scale, the inverse of _int_parts; every
    zero is the one ZERO, and at scale 1 a table of small parts holds only
    the shared Gaussian integers."""
    if scale == 1:
        return _integers(re, im)
    return [_reduced(a, b, scale) if a or b else ZERO for a, b in zip(re, im)]


def _as_int_pairs(m: DenseMatrix) -> tuple[list[list[int]], list[list[int]], int]:
    re, im, scale = _int_parts(m.entries)
    rows = [slice(r * m.cols, (r + 1) * m.cols) for r in range(m.rows)]
    return [re[s] for s in rows], [im[s] for s in rows], scale


def _divide_powers(values: list, scale: int, first: int = 0) -> list:
    """values[k] / scale^(first + k); the list itself when scale is 1."""
    if scale == 1:
        return values
    return [x / scale**k for k, x in enumerate(values, first)]


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


def det_bareiss(m: DenseMatrix) -> GaussianRational:
    """Fraction-free determinant of a Q(i) matrix.

    The elimination runs on L*m in Z[i], L the least common multiple of the
    denominators, and det(L*m) is divided by L^n. Row swaps are allowed
    (with sign tracking) so singular and generic inputs are both fine.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    re, im, scale = _as_int_pairs(m)
    sign = 1
    pr, pi = 1, 0
    for k in range(n - 1):
        if re[k][k] == 0 and im[k][k] == 0:
            for r in range(k + 1, n):
                if re[r][k] or im[r][k]:
                    re[k], re[r] = re[r], re[k]
                    im[k], im[r] = im[r], im[k]
                    sign = -sign
                    break
            else:
                return ZERO
        dr, di = re[k][k], im[k][k]
        _bareiss_step(re, im, k, n, dr, di, pr, pi)
        pr, pi = dr, di
    det = GaussianRational(sign * re[n - 1][n - 1], sign * im[n - 1][n - 1])
    return det if scale == 1 else det / scale**n


def bareiss_leading_minors(m: DenseMatrix) -> list[GaussianRational]:
    """All leading principal minors of a Q(i) matrix, fraction-free.

    Returns [det of 0x0, det of 1x1, ..., det of nxn]. Both routes run in
    Z[i] on L*m, L the least common multiple of the denominators, and divide
    the order-k minor by L^k. A Hankel input, entry (s, t) equal to c(s + t)
    for 2n-1 values c, takes the O(n^2) recurrence of :func:`_hankel_minors`,
    which returns each block of vanishing minors as zeros. Any other input
    takes one O(n^3) Bareiss elimination (the pivot after step k is the
    order-(k+1) minor), which raises :class:`DegeneracyError` naming the
    order of the first vanishing minor. The tests check the recurrence
    against the elimination, :func:`det_field`, a cofactor oracle and the
    folding product.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    values = _hankel_values(m)
    if values is not None:
        return _hankel_minors(*_int_parts(values))[0]
    return _elimination_minors(m)


def hankel_recurrence(values) -> tuple[list, list]:
    """Minors D(0..n) and entries T_k(k+1) of the Hankel matrix of the Q(i)
    values c(0..2n-2), from the recurrence of _hankel_minors."""
    re, im, scale = _int_parts(values)
    minors, upper = _hankel_minors(re, im, scale)
    return minors, _divide_powers([GaussianRational(*t) for t in upper], scale, 1)


def _hankel_values(m: DenseMatrix) -> list | None:
    """c(0..2n-2) when square m has entry (s, t) == c(s + t), else None."""
    n = m.rows
    if n == 0:
        return []
    e = m.entries
    # the first row and the last column hold every value once; tuple
    # equality compares each pair by identity first, then by ==
    values = e[:n] + e[2 * n - 1 :: n]
    for s in range(1, n):
        if e[s * n : (s + 1) * n] != values[s : s + n]:
            return None
    return list(values)


def _elimination_minors(m: DenseMatrix) -> list[GaussianRational]:
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
    return tuple(v // nrm for v in _mul(x, (y[0], -y[1])))


def _hankel_minors(cur_re: list, cur_im: list, scale: int) -> tuple[list, list]:
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


class SpanBasis:
    """Incrementally built echelon basis for exact span membership.

    Rows are kept in echelon form ordered by pivot position; adding a vector
    reduces it against the stored rows first, so `add` doubles as a
    membership test.
    """

    __slots__ = ("length", "_rows")

    def __init__(self, length: int):
        self.length = length
        self._rows = []  # (pivot_index, normalized vector), sorted by pivot

    @property
    def dim(self) -> int:
        return len(self._rows)

    @property
    def pivots(self) -> tuple[int, ...]:
        return tuple(pivot for pivot, _ in self._rows)

    def reduce(self, vec) -> list:
        v = [as_gaussian(x) for x in vec]
        if len(v) != self.length:
            raise ValueError("vector length mismatch")
        for pivot, row in self._rows:
            f = v[pivot]
            if f:
                v = [x - f * y for x, y in zip(v, row)]
        return v

    def add(self, vec):
        """Insert vec's residual; returns the stored vector, or None if dependent."""
        v = self.reduce(vec)
        pivot = next((idx for idx, x in enumerate(v) if x), None)
        if pivot is None:
            return None
        lead = v[pivot]
        if lead != ONE:
            inv = ONE / lead
            v = [x * inv for x in v]
        # v vanishes at every stored pivot, so pivots are distinct and the
        # tuples compare by pivot alone
        bisect.insort(self._rows, (pivot, v))
        return v

    def vectors(self) -> list:
        return [list(row) for _, row in self._rows]
