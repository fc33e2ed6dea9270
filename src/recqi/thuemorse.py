"""Binary digit sums, folding sequences, and the series they generate.

The central objects: tau(n) = number of 1 bits of n, the moment sequence
i^tau(n), the regular folding sequence f (with optional fold-direction
signs), and truncations of the product series prod_k (1 + s_k * i * x^(2^k))
whose coefficients are exactly the moments. Hankel matrices and their
determinant tables are built here because every verification needs them.
"""

from __future__ import annotations

from typing import Callable

from .errors import ParseError
from .gaussian import (
    ZERO,
    ONE,
    I,
    GaussianRational,
    as_gaussian,
    pow_i,
)
from .linalg import DenseMatrix, bareiss_leading_minors


def tau(n: int) -> int:
    """Binary digit sum of n >= 0."""
    if n < 0:
        raise ValueError("tau is defined on nonnegative integers")
    return n.bit_count()


class SignSequence:
    """An infinite +-1 sequence: an explicit finite prefix, then +1 forever.

    Text form is one character per position, "+" or "-", position 0 first;
    the empty string is the all-plus sequence.
    """

    __slots__ = ("_prefix",)

    def __init__(self, prefix=()):
        pf = tuple(prefix)
        if any(v not in (1, -1) for v in pf):
            raise ValueError("signs must be +1 or -1")
        self._prefix = pf

    @classmethod
    def from_string(cls, text: str) -> "SignSequence":
        signs = []
        for pos, ch in enumerate(text):
            if ch == "+":
                signs.append(1)
            elif ch == "-":
                signs.append(-1)
            else:
                raise ParseError("expected '+' or '-'", pos)
        return cls(signs)

    def __getitem__(self, k: int) -> int:
        if k < 0:
            raise IndexError("sign index must be nonnegative")
        if k < len(self._prefix):
            return self._prefix[k]
        return 1

    def __eq__(self, other):
        if not isinstance(other, SignSequence):
            return NotImplemented
        return self._prefix == other._prefix

    def __hash__(self):
        return hash(self._prefix)

    def __str__(self):
        return "".join("+" if v == 1 else "-" for v in self._prefix)

    def __repr__(self):
        return f"SignSequence({str(self)!r})"


ALL_PLUS = SignSequence()


def fold(k: int, sigma: SignSequence | None = None) -> int:
    """Value of the folding sequence at k >= 1.

    The plain sequence has f(2^n) = 1 and f(2^n + a) = -f(2^n - a) for
    0 < a < 2^n. With signs, the power values become f(2^n) = sigma[n + 1]
    and the reflection rule is unchanged.
    """
    if k < 1:
        raise ValueError("folding sequence starts at index 1")
    sign = 1
    while True:
        n = k.bit_length() - 1
        if k == 1 << n:
            base = 1 if sigma is None else sigma[n + 1]
            return sign * base
        k = (1 << (n + 1)) - k
        sign = -sign


def folding_product(n: int, sigma: SignSequence | None = None) -> GaussianRational:
    """prod_{k=1}^{n} (1 + i*f(k)); the empty product (n = 0) is 1.

    As 1 - i = -i(1 + i), it is (1 + i)^n (-i)^((n - S)/2) for the partial
    sum S = f(1) + ... + f(n), and S(n) = f(2^j) + S(2^(j+1) - 1 - n) for
    2^j <= n < 2^(j+1) by the reflection rule, one step per bit of n.
    """
    if n < 0:
        raise ValueError("product length must be nonnegative")
    total = 0
    k = n
    while k:
        j = k.bit_length() - 1
        total += 1 if sigma is None else sigma[j + 1]
        k = (2 << j) - 1 - k
    # (1 + i)^2 = 2i
    half, odd = divmod(n, 2)
    re, im = ((1, 0), (0, 1), (-1, 0), (0, -1))[(half - (n - total) // 2) % 4]
    re, im = re << half, im << half
    if odd:
        re, im = re - im, re + im
    return GaussianRational(re, im)


class SeriesTruncation:
    """A power series known exactly through x^N: coefficients 0..N.

    Reads beyond the truncation order raise IndexError rather than returning
    a guess; arithmetic stays within the common known range.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs):
        self._coeffs = tuple(as_gaussian(x) for x in coeffs)
        if not self._coeffs:
            raise ValueError("a truncation holds at least the constant term")

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple:
        return self._coeffs

    def coefficient(self, n: int) -> GaussianRational:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self._coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, SeriesTruncation):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __repr__(self):
        return f"SeriesTruncation(order={self.order})"


def series_product(sigma: SignSequence | None, order: int) -> SeriesTruncation:
    """Truncation of prod_{2^k <= order} (1 + sigma[k]*i*x^(2^k)).

    With sigma = None (all plus) the coefficient of x^n is i^tau(n).
    """
    if order < 0:
        raise ValueError("truncation order must be nonnegative")
    coeffs = [ZERO] * (order + 1)
    coeffs[0] = ONE
    k = 0
    while (1 << k) <= order:
        step = 1 << k
        s = 1 if sigma is None else sigma[k]
        factor = I if s == 1 else -I
        for n in range(order, step - 1, -1):
            low = coeffs[n - step]
            if low:
                coeffs[n] = coeffs[n] + factor * low
        k += 1
    return SeriesTruncation(coeffs)


_INV_I_MINUS_ONE = ONE / (I - ONE)  # -1/2 - 1/2 i


def _difference(order: int, lag: int) -> SeriesTruncation:
    # (c_n - c_(n-lag)) / (i - 1), with c_n alone below the lag
    c = series_product(None, order).coefficients
    diff = [x - c[n - lag] if n >= lag else x for n, x in enumerate(c)]
    return SeriesTruncation([x * _INV_I_MINUS_ONE for x in diff])


def beta_coeffs(order: int) -> SeriesTruncation:
    """First difference of the all-plus product series, divided by (i - 1).

    beta_n = (c_n - c_(n-1)) / (i - 1); index 0 carries c_0 / (i - 1).
    """
    return _difference(order, 1)


def gamma_coeffs(order: int) -> SeriesTruncation:
    """Second-step difference: gamma_n = (c_n - c_(n-2)) / (i - 1)."""
    return _difference(order, 2)


def moment(n: int) -> GaussianRational:
    """The n-th moment i^tau(n)."""
    return pow_i(tau(n))


def hankel(
    seq: Callable[[int], GaussianRational], offset: int, order: int
) -> DenseMatrix:
    """order x order Hankel matrix with entry (s, t) = seq(offset + s + t)."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    count = max(0, 2 * order - 1)
    vals = [as_gaussian(seq(offset + k)) for k in range(count)]
    entries = []
    for s in range(order):
        entries += vals[s : s + order]
    return DenseMatrix._of_scalars(order, order, entries)


def hankel_det_table(
    seq: Callable[[int], GaussianRational], offset: int, max_order: int
) -> list[GaussianRational]:
    """[det of order 0, ..., det of order max_order] Hankel determinants.

    One pass of the leading-minor recurrence gives every determinant at
    once, for Gaussian-integer and rational values alike; it steps over
    each run of vanishing minors and returns them as zeros.
    """
    return bareiss_leading_minors(hankel(seq, offset, max_order))
