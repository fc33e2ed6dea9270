"""Exact arithmetic in Q(i).

Every quantity in this package is a Gaussian rational: a pair of arbitrary
precision rationals (re, im) representing re + im*i. Values are immutable,
stored reduced, and print in a canonical text form that parses back
bit-exactly:

    gaussian := real | imag | real sign imag
    real     := rat
    imag     := rat "i" | sign "i"
    rat      := ["-"] digits ["/" digits]

Zero prints as "0", denominators of 1 are omitted, and a zero imaginary
part is omitted entirely, so there is exactly one spelling per value
("1+1i", "-1/2-1/2i", "2i", "0"). A bare "i" is not in the grammar; "+i"
and "-i" are.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError


class GaussianRational:
    """An element of Q(i). Immutable, exact, hashable."""

    __slots__ = ("_re", "_im")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("floats are not exact; pass int or Fraction")
        self._re = Fraction(re)
        self._im = Fraction(im)

    @classmethod
    def _raw(cls, re: Fraction, im: Fraction) -> "GaussianRational":
        # internal fast path: components are already reduced Fractions
        self = object.__new__(cls)
        self._re = re
        self._im = im
        return self

    @property
    def re(self) -> Fraction:
        return self._re

    @property
    def im(self) -> Fraction:
        return self._im

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(self._re + other._re, self._im + other._im)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(self._re - other._re, self._im - other._im)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational._raw(other._re - self._re, other._im - self._im)

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, d = self._re, self._im, other._re, other._im
        return GaussianRational._raw(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        c, d = other._re, other._im
        n = c * c + d * d
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self._re, self._im
        return GaussianRational._raw((a * c + b * d) / n, (b * c - a * d) / n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return GaussianRational._raw(-self._re, -self._im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._re == other._re and self._im == other._im

    def __hash__(self):
        # keep hash(x) == hash(int(x)) when the value is rational real,
        # since __eq__ accepts int and Fraction
        if not self._im:
            return hash(self._re)
        return hash((self._re, self._im))

    def __bool__(self):
        return bool(self._re) or bool(self._im)

    def conjugate(self) -> "GaussianRational":
        return GaussianRational._raw(self._re, -self._im)

    def norm(self) -> Fraction:
        """re^2 + im^2, the multiplicative norm down to Q."""
        return self._re * self._re + self._im * self._im

    def __str__(self) -> str:
        return format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianRational({str(self)!r})"


def _coerce(value) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, int) or isinstance(value, Fraction):
        return GaussianRational._raw(Fraction(value), _FR_ZERO)
    return None


_FR_ZERO = Fraction(0)

ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

#: the four units of Z[i]; membership tests for determinant tables
GAUSSIAN_UNITS = (ONE, GaussianRational(-1), I, GaussianRational(0, -1))

_POW_I = (ONE, I, GaussianRational(-1), GaussianRational(0, -1))


def as_gaussian(value) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational; reject anything else."""
    g = _coerce(value)
    if g is None:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return g


def pow_i(k: int) -> GaussianRational:
    """i**k for any integer k (negative included)."""
    return _POW_I[k % 4]


def _format_fraction(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def format_gaussian(value: GaussianRational) -> str:
    """Canonical text form; inverse of :func:`parse_gaussian`."""
    re, im = value._re, value._im
    if not im:
        return _format_fraction(re)
    if not re:
        return _format_fraction(im) + "i"
    sign = "+" if im > 0 else "-"
    return _format_fraction(re) + sign + _format_fraction(abs(im)) + "i"


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the canonical grammar, strictly.

    Raises :class:`ParseError` (with character position) on anything outside
    the grammar: bare "i", leading "+", zero denominators, trailing junk.
    """
    s = text
    n = len(s)
    if n == 0:
        raise ParseError("empty input", 0)

    def scan_unsigned(pos: int) -> tuple[Fraction, int]:
        start = pos
        while pos < n and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise ParseError("expected digits", start)
        num = int(s[start:pos])
        if pos < n and s[pos] == "/":
            pos += 1
            dstart = pos
            while pos < n and s[pos].isdigit():
                pos += 1
            if pos == dstart:
                raise ParseError("expected digits after '/'", dstart)
            den = int(s[dstart:pos])
            if den == 0:
                raise ParseError("zero denominator", dstart)
            return Fraction(num, den), pos
        return Fraction(num), pos

    def scan_rat(pos: int) -> tuple[Fraction, int]:
        if s[pos] == "-":
            value, pos = scan_unsigned(pos + 1)
            return -value, pos
        return scan_unsigned(pos)

    if s == "+i":
        return I
    if s == "-i":
        return GaussianRational(0, -1)

    value, pos = scan_rat(0)
    if pos == n:
        return GaussianRational(value, 0)
    ch = s[pos]
    if ch == "i":
        if pos + 1 != n:
            raise ParseError("trailing characters after 'i'", pos + 1)
        return GaussianRational(0, value)
    if ch in "+-":
        sign = 1 if ch == "+" else -1
        pos += 1
        if pos < n and s[pos] == "i":
            if pos + 1 != n:
                raise ParseError("trailing characters after 'i'", pos + 1)
            return GaussianRational(value, sign)
        mag, pos = scan_unsigned(pos)
        if pos >= n or s[pos] != "i":
            raise ParseError("expected 'i'", pos)
        if pos + 1 != n:
            raise ParseError("trailing characters after 'i'", pos + 1)
        return GaussianRational(value, sign * mag)
    raise ParseError("unexpected character", pos)
