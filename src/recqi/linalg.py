"""Dense exact linear algebra over Q(i).

One field elimination, the echelon basis :class:`SpanBasis`, gives span
membership, the reduced row echelon form and the field determinant.
Determinants have two independent routes: field elimination through that
basis (:func:`det_field`, the tests' reference) and fraction-free Bareiss
elimination (:func:`det_bareiss`, big-int kernel, no rational blowup). The
leading principal minors of a Hankel matrix come from an O(n^2)
fraction-free recurrence whose rows are the pivot rows that elimination
would produce; it steps over each square block of vanishing minors, so one
pass gives every minor, zeros included, and the J-fraction coefficients of
:mod:`recqi.jacobi`. Both fraction-free routes take any Q(i) input, so
callers never scale: Bareiss runs on each row times the least common
multiple of its own denominators and divides by their product, and the
recurrence runs on L times the values, L the least common multiple of their
denominators, and divides an order-k minor by L^k. Pivoting always takes
the first nonzero candidate, so every result is bit-reproducible.
"""

from __future__ import annotations

import bisect
import math

from .gaussian import (
    ZERO,
    ONE,
    GaussianRational,
    as_gaussian,
    format_gaussian,
    from_parts,
    to_parts,
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
    def _of_scalars(cls, rows: int, cols: int, entries) -> "DenseMatrix":
        # library code that holds rows * cols scalars already: no type scan
        self = object.__new__(cls)
        self._rows, self._cols, self._e = rows, cols, tuple(entries)
        return self

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
        return DenseMatrix._of_scalars(
            c, self._rows, [e[r * c + j] for j in range(c) for r in range(self._rows)]
        )

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
        return self.is_upper_triangular() and self.transpose().is_upper_triangular()

    def is_upper_triangular(self) -> bool:
        c, e = self._cols, self._e
        return not any(any(e[r * c : r * c + min(r, c)]) for r in range(self._rows))

    def is_unit_lower_triangular(self) -> bool:
        return (
            self.is_square
            and all(x == ONE for x in self.diagonal())
            and self.transpose().is_upper_triangular()
        )

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
    entries = from_parts(re, im, a_scale * b_scale)
    return DenseMatrix._of_scalars(a.rows, b.cols, entries)


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


def _as_int_pairs(m: DenseMatrix) -> tuple[list[list[int]], list[list[int]], int]:
    re, im, scale = to_parts(m.entries)
    rows = [slice(r * m.cols, (r + 1) * m.cols) for r in range(m.rows)]
    return [re[s] for s in rows], [im[s] for s in rows], scale


def _divide_powers(values: list, scale: int, first: int = 0) -> list:
    """values[k] / scale^(first + k); the list itself when scale is 1."""
    if scale == 1:
        return values
    return [x / scale**k for k, x in enumerate(values, first)]


def det_bareiss(m: DenseMatrix) -> GaussianRational:
    """Fraction-free determinant of a Q(i) matrix.

    The elimination runs in Z[i] on m with each row times the least common
    multiple of its own denominators, and the determinant of that is divided
    by the product of those multiples. Row swaps are allowed (with sign
    tracking) so singular and generic inputs are both fine.
    """
    if not m.is_square:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return ONE
    re, im, scales = map(list, zip(*(to_parts(m.row_list(r)) for r in range(n))))
    scale = math.prod(scales)
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
        # rows and columns beyond k updated in place, divided exactly by the
        # previous pivot (pr, pi) through its conjugate
        dr, di = re[k][k], im[k][k]
        nrm = pr * pr + pi * pi
        rk_re, rk_im = re[k], im[k]
        for r in range(k + 1, n):
            rr_re, rr_im = re[r], im[r]
            ar, ai = rr_re[k], rr_im[k]
            for c in range(k + 1, n):
                br, bi = rk_re[c], rk_im[c]
                xr, xi = rr_re[c], rr_im[c]
                tr = dr * xr - di * xi - ar * br + ai * bi
                ti = dr * xi + di * xr - ar * bi - ai * br
                rr_re[c] = (tr * pr + ti * pi) // nrm
                rr_im[c] = (ti * pr - tr * pi) // nrm
        pr, pi = dr, di
    det = GaussianRational(sign * re[n - 1][n - 1], sign * im[n - 1][n - 1])
    return det if scale == 1 else det / scale


def bareiss_leading_minors(m: DenseMatrix) -> list[GaussianRational]:
    """All leading principal minors of a Q(i) Hankel matrix, fraction-free.

    Returns [det of 0x0, ..., det of nxn] for square m with entry (s, t)
    equal to c(s + t), from the O(n^2) recurrence of :func:`_hankel_minors`
    on the 2n-1 values c, each block of vanishing minors as zeros; raises
    ValueError on any other matrix. The tests check it against a Bareiss
    elimination, :func:`det_field`, a cofactor oracle and the folding product.
    """
    if not m.is_square:
        raise ValueError("leading minors of a non-square matrix")
    values = _hankel_values(m)
    if values is None:
        raise ValueError("leading minors of a matrix that is not Hankel")
    return _hankel_minors(*to_parts(values))[0]


def hankel_recurrence(values) -> tuple[list, list]:
    """Minors D(0..n) and entries T_k(k+1) of the Hankel matrix of the Q(i)
    values c(0..2n-2), from the recurrence of _hankel_minors."""
    re, im, scale = to_parts(values)
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


def _hankel_minors(re: list, im: list, scale: int) -> tuple[list, list]:
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
    back substitution; at h = 1, the Chebyshev (qd) recurrence. Every T is a
    minor of a Gaussian-integer matrix, so the division is exact in Z[i]: a
    product with the divisor's conjugate, folded into the row coefficients
    a_j = s q_j g and c = s tau^(h+1) g (g the conjugate of D(k)^h T_p(k-1),
    each less a factor common to all of them and the norm |g|^2), then a
    division by that norm.

    Each row T_k is 2^sigma_k T'_k, and T'_k is two ints that hold its real
    and imaginary parts by Kronecker substitution: slot j, w bits wide, holds
    the entry at index k + j plus a bias of 2^(w-1), so no slot borrows from
    the next, and only the valid entries k..2n-2-k are stored. The scalars of
    a step are read from the low slots and work on T' alone: the same system
    on T'_k and T'_p gives q' = q / 2^(h sigma_k + sigma_p), so with
    D(k) = 2^delta D', T_{k+h} is 2^((h+1) sigma_k - h delta) times
    s (sum_j q'_j T'_k(l+j) - tau'^(h+1) T'_p(l)) / (D'^h T'_p(k-1)), and
    every scalar stays about as small as the slots. The row itself is
    whole-row int arithmetic: cut the h+1 shifted rows of T'_k and the row
    of T'_p that the numerator reads (a shift and a mask, then the bias
    off), sum a_j T'_k(l+j) - c T'_p(l) on them, and divide the whole int by
    the odd part of the norm. The numerator's slots may overflow into each
    other, but the int is still sum_l N_l 2^(w l), and as the odd part
    divides every N_l, the quotient is sum_l (N_l / odd) 2^(w l) exactly.
    Its slots can be read back once each provably lies below 2^(w-1): that
    follows from the 1-norm of the coefficients and the bound 2^e on each
    stored row's slots, each new row's e the bit length of the bound that
    made it. Only when a step's bound reaches 2^(w-1) are both rows measured
    by biased mask tests, and only if the measured bound does too are they
    packed again at a larger w. The norm's power of two and the power of two
    common to every slot (the low bits of the biased slots show it) go into
    sigma, so the rows of the paper's tables, whose entries carry ever more
    factors of 2, stay a few bits a slot. Returns D(0..n) of c, D(k) of L*c
    divided by L^k, and the int pairs of T_k(k+1) of L*c for k <= n-2 while
    D(1..k) != 0.
    """
    size = len(re)
    n = (size + 1) // 2
    # every stored slot, less its bias, lies in [-2^e, 2^e)
    e_cur = max(map(int.bit_length, re + im), default=0)
    w = _slot_width(e_cur + 1)
    half, slot = 1 << w - 1, (1 << w) - 1
    zero = bias = _pack([0] * size, w)
    cur_re, cur_im = _pack(re, w), _pack(im, w)
    prev_re = prev_im = bias  # T_-1 = 0, held as the row at 0
    p = sig_prev = e_prev = sig_cur = 0
    # D(k) = 2^delta (dr + di i) and T_p(k-1) = 2^sig_prev (er + ei i)
    dr, di, delta, er, ei = 1, 0, 0, 1, 0
    minors_re, minors_im = [1] + [0] * n, [0] * (n + 1)
    upper = []
    k = 0
    while k < n:
        # a slot xor its bias is 0 exactly for a zero entry, so the lowest
        # set bit lies in the slot of the first nonzero one
        lowest = (cur_re ^ zero) | (cur_im ^ zero)
        m = min(k + ((lowest & -lowest).bit_length() - 1) // w, n) if lowest else n
        h = m - k + 1
        # the slots of T_k(k..m+h), where T_k(k+1) and tau = T_k(m) are
        cut = (1 << 2 * h * w) - 1
        lo_re, lo_im = cur_re & cut, cur_im & cut
        if len(upper) == k < n - 1:
            xr = (lo_re >> w & slot) - half << sig_cur
            upper.append((xr, (lo_im >> w & slot) - half << sig_cur))
        if m == n:
            break
        # tau and every entry read below are stored ones: tau' and T'
        tr = (lo_re >> w * (h - 1) & slot) - half
        ti = (lo_im >> w * (h - 1) & slot) - half
        s = -1 if h % 4 > 1 else 1
        # D(k+h) = s tau^h / D(k)^(h-1) = 2^x (nr + ni i): the odd part of
        # the divisor's norm divides, its power of two comes off x
        xr, xi, yr, yi = tr, ti, 1, 0
        for _ in range(h - 1):
            xr, xi = xr * tr - xi * ti, xr * ti + xi * tr
            yr, yi = yr * dr - yi * di, yr * di + yi * dr
        nrm = yr * yr + yi * yi
        nu = (nrm & -nrm).bit_length() - 1
        nr = s * (xr * yr + xi * yi) // (nrm >> nu)
        ni = s * (xi * yr - xr * yi) // (nrm >> nu)
        x = h * sig_cur - (h - 1) * delta - nu
        if x < 0:
            nr, ni, x = nr >> -x, ni >> -x, 0
        minors_re[m + 1], minors_im[m + 1] = nr << x, ni << x
        if m + 1 == n:
            break
        # g = s times the conjugate of D'^h T'_p(k-1), and its norm
        yr, yi = yr * dr - yi * di, yr * di + yi * dr
        gr, gi = yr * er - yi * ei, yr * ei + yi * er
        nrm = gr * gr + gi * gi
        gr, gi = s * gr, -s * gi
        # c = tau^(h+1) g, a_h = tau^h T'_p(k-1) g and, for i = 1..h,
        # a_(h-i) = (c T'_p(k-1+i) - sum_t a_(h-i+t) T'_k(m+t)) / tau, exact
        # as every a_j is a Gaussian integer
        yr, yi = xr * gr - xi * gi, xr * gi + xi * gr
        cr, ci = yr * tr - yi * ti, yr * ti + yi * tr
        ar, ai = [yr * er - yi * ei], [yr * ei + yi * er]
        tn = tr * tr + ti * ti
        shift = w * (k - p)
        pv_re = (prev_re & (1 << shift + w * h) - 1) >> shift
        pv_im = (prev_im & (1 << shift + w * h) - 1) >> shift
        for i in range(h):
            yr = (pv_re >> w * i & slot) - half
            yi = (pv_im >> w * i & slot) - half
            zr, zi = cr * yr - ci * yi, cr * yi + ci * yr
            for j in range(i + 1):
                yr = (lo_re >> w * (h + j) & slot) - half
                yi = (lo_im >> w * (h + j) & slot) - half
                zr -= ar[i - j] * yr - ai[i - j] * yi
                zi -= ar[i - j] * yi + ai[i - j] * yr
            ar.append((zr * tr + zi * ti) // tn)
            ai.append((zi * tr - zr * ti) // tn)
        # a factor common to the coefficients and the norm leaves every
        # quotient as it is and exact, so divide it out
        g = math.gcd(nrm, cr, ci, *ar, *ai)
        nrm //= g
        nu = (nrm & -nrm).bit_length() - 1
        odd = nrm >> nu
        # no quotient slot exceeds bound in absolute value
        size_a = sum(map(abs, ar + ai)) // g
        size_c = (abs(cr) + abs(ci)) // g
        bound = ((size_a << e_cur) + (size_c << e_prev)) // odd
        if bound >> (w - 1):
            prev = prev_re, prev_im, bias >> w * 2 * p, e_prev
            e_cur, e_prev = _slot_bits(w, (cur_re, cur_im, zero, e_cur), prev)
            bound = ((size_a << e_cur) + (size_c << e_prev)) // odd
        if bound >> (w - 1):
            w2 = _slot_width(bound.bit_length() + 1)
            cur_re, cur_im, prev_re, prev_im = (
                _pack(_unpack(row, w, size - 2 * j), w2)
                for row, j in ((cur_re, k), (cur_im, k), (prev_re, p), (prev_im, p))
            )
            w, bias = w2, _pack([0] * size, w2)
            half, slot = 1 << w - 1, (1 << w) - 1
        zero = bias >> w * 2 * (k + h)
        mask = (1 << w * (size - 2 * (k + h))) - 1
        # the numerator on the rows cut from T'_k and T'_p, the bias off
        xr, xi = cr // g, ci // g
        yr = (prev_re >> w * (k + h - p) & mask) - zero
        yi = (prev_im >> w * (k + h - p) & mask) - zero
        num_re, num_im = xi * yi - xr * yr, -xr * yi - xi * yr
        for j in range(h + 1):
            xr, xi = ar[h - j] // g, ai[h - j] // g
            yr = (cur_re >> w * (h + j) & mask) - zero
            yi = (cur_im >> w * (h + j) & mask) - zero
            num_re += xr * yr - xi * yi
            num_im += xr * yi + xi * yr
        if odd != 1:
            num_re //= odd
            num_im //= odd
        # the power of two common to every slot: 2^t divides an entry,
        # t < w - 1, exactly when bits 0..t-1 of its biased slot are clear
        new_re, new_im = num_re + zero, num_im + zero
        low = new_re | new_im
        t = 0
        while t < w - 1 and not low & zero >> (w - 1 - t):
            t += 1
        if t:
            new_re, new_im = (num_re >> t) + zero, (num_im >> t) + zero
        prev_re, prev_im, cur_re, cur_im = cur_re, cur_im, new_re, new_im
        # a zero row has every power of two, so any sigma serves it
        sig_prev, sig_cur = sig_cur, max((h + 1) * sig_cur - h * delta - nu + t, 0)
        e_prev, e_cur = e_cur, (bound >> t).bit_length()
        p, k, dr, di, delta, er, ei = k, k + h, nr, ni, x, tr, ti
    return _divide_powers(from_parts(minors_re, minors_im), scale), upper


def _slot_width(bits: int) -> int:
    """A slot width in whole bytes for entries of the given bit length and
    their sign, with about a quarter to spare, so that rows are seldom
    repacked."""
    return (bits + bits // 4 + 15) & ~7


def _pack(values: list, w: int) -> int:
    """values in biased slots of w bits, each |value| < 2^(w-1)."""
    half, size = 1 << (w - 1), w // 8
    return int.from_bytes(
        b"".join([(v + half).to_bytes(size, "little") for v in values]), "little"
    )


def _unpack(x: int, w: int, count: int) -> list:
    """The values in the count biased slots of x, the inverse of _pack."""
    half, size = 1 << (w - 1), w // 8
    data = x.to_bytes(count * size, "little")
    return [
        int.from_bytes(data[j : j + size], "little") - half
        for j in range(0, len(data), size)
    ]


def _slot_bits(w: int, *rows):
    """Yields, for each row, given as the biased ints r and i, their own bias
    and a bound hi that holds, the least e <= hi with every slot in
    [-2^e, 2^e), by bisection: at e <= w - 2 a slot is in range exactly
    when, with 2^e in place of its bias, its bits e+1..w-1 are clear."""
    for r, i, bias, hi in rows:
        ones = bias >> (w - 1)
        top, lo = ones << w, 0
        while lo < hi:
            e = (lo + hi) // 2
            shifted = bias - (ones << e)
            if ((r - shifted) | (i - shifted)) & top - (ones << e + 1):
                lo = e + 1
            else:
                hi = e
        yield lo


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
        v = list(vec)
        if {*map(type, v)} - {GaussianRational}:  # coerce all but scalars
            v = [as_gaussian(x) for x in v]
        if len(v) != self.length:
            raise ValueError("vector length mismatch")
        for pivot, row in self._rows:
            f = v[pivot]
            if f:
                v = [x - f * y if y else x for x, y in zip(v, row)]
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
