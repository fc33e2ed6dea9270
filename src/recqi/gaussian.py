"""Exact arithmetic in Q(i).

Every quantity in this package is a Gaussian rational, stored as three
arbitrary precision ints (a, b, d) representing (a + b*i)/d over one common
denominator d > 0, reduced so that gcd(a, b, d) == 1; sums and products of
Gaussian integers (d == 1) take no gcd. The int kernels of linalg and recmat
read scalars through to_parts and write lists through from_parts; single
results such as a determinant or a minor come from the constructor. Values
are immutable, so each small Gaussian integer (both parts within
SHARED_BOUND) has one shared object, which the constants, the parser,
from_parts and every result that takes a gcd hand out. Values print in a
canonical text form that parses back bit-exactly:

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

import math
from fractions import Fraction
from operator import getitem

from .errors import ParseError


class GaussianRational:
    """An element of Q(i): three ints (a, b, d) meaning (a + b*i)/d, with
    d > 0 and gcd(a, b, d) == 1, so each value has one representation and
    equality compares fields. Immutable, exact, hashable."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        if isinstance(re, float) or isinstance(im, float):
            raise TypeError("floats are not exact; pass int or Fraction")
        if not (isinstance(re, (int, Fraction)) and isinstance(im, (int, Fraction))):
            raise TypeError(f"pass int or Fraction parts, not {re!r} and {im!r}")
        # lcm of two coprime-form denominators leaves gcd(a, b, d) == 1
        d = math.lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def integer_parts(self) -> tuple[int, int, int]:
        """(a, b, d) with self == (a + b*i)/d, d > 0 and gcd(a, b, d) == 1."""
        return self._a, self._b, self._d

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, f = self._d, other._d
        if d == f:
            a, b = self._a + other._a, self._b + other._b
            return _new(a, b, 1) if d == 1 else _reduced(a, b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        d, f = self._d, other._d
        if d == f:
            a, b = self._a - other._a, self._b - other._b
            return _new(a, b, 1) if d == 1 else _reduced(a, b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        d = self._d * other._d
        if d == 1:
            return _new(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        # times the conjugate (c - e*i)/f over the norm (c^2 + e^2)/f^2
        c, e, f = other._a, other._b, other._d
        n = c * c + e * e
        if not n:
            raise ZeroDivisionError("division by zero in Q(i)")
        a, b = self._a, self._b
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __pos__(self):
        return self

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self):
        # keep hash(x) == hash(int(x)) when the value is rational real,
        # since __eq__ accepts int and Fraction
        if not self._b:
            return hash(self._a) if self._d == 1 else hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self._a or self._b)

    def __str__(self) -> str:
        return format_gaussian(self)

    def __repr__(self) -> str:
        return f"GaussianRational({str(self)!r})"


def _new(a: int, b: int, d: int) -> GaussianRational:
    # (a + b*i)/d, already canonical
    self = object.__new__(GaussianRational)
    self._a, self._b, self._d = a, b, d
    return self


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    # (a + b*i)/d for any d > 0, a small Gaussian integer as its shared
    # object; math.gcd stops once it reaches 1, so d goes first, and d == 1
    # costs no gcd of the parts
    g = math.gcd(d, a, b)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    if d == 1 and a in _SHARED_PARTS and b in _SHARED_PARTS:
        return _SHARED[a][b]
    return _new(a, b, d)


def _coerce(value) -> GaussianRational | None:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return _new(value.numerator, 0, value.denominator)
    return None


#: every a + b*i with |a|, |b| <= SHARED_BOUND exists once, in _SHARED[a][b];
#: the unfoldings of the builtins but diag1plusn stay within it at any depth
SHARED_BOUND = 8
# negative indices wrap, so index k of a row or a column holds part k
_WRAP = [*range(SHARED_BOUND + 1), *range(-SHARED_BOUND, 0)]
_SHARED = [[_new(a, b, 1) for b in _WRAP] for a in _WRAP]
_SHARED_PARTS = frozenset(_WRAP)

ZERO = _SHARED[0][0]
ONE = _SHARED[1][0]
I = _SHARED[0][1]

#: the four units of Z[i]; membership tests for determinant tables
GAUSSIAN_UNITS = (ONE, _SHARED[-1][0], I, _SHARED[0][-1])

_POW_I = (ONE, I, _SHARED[-1][0], _SHARED[0][-1])


def to_parts(values) -> tuple[list[int], list[int], int]:
    """(re, im, L) with values[j] == (re[j] + im[j]*i)/L, L the least common
    multiple of the denominators: the Z[i] list form the kernels sum on."""
    scale = math.lcm(*{x._d for x in values})
    re = [x._a * (scale // x._d) for x in values]
    im = [x._b * (scale // x._d) for x in values]
    return re, im, scale


def from_parts(re: list, im: list, scale: int = 1) -> list:
    """The scalars (re[j] + im[j]*i)/scale, the inverse of to_parts; each
    value that reduces to a small Gaussian integer is its shared object, at
    any scale and whatever else the lists hold. At scale 1 with every part
    within SHARED_BOUND that is one table lookup per value, else one gcd per
    nonzero value; from CPython 3.11 on the range scan stops at the first
    part out of range, so large values pay little for it."""
    if scale == 1 and _SHARED_PARTS.issuperset(re) and _SHARED_PARTS.issuperset(im):
        return list(map(getitem, map(_SHARED.__getitem__, re), im))
    return [_reduced(a, b, scale) if a or b else ZERO for a, b in zip(re, im)]


def as_gaussian(value) -> GaussianRational:
    """Coerce an int, Fraction, or GaussianRational; reject anything else."""
    g = _coerce(value)
    if g is None:
        raise TypeError(f"cannot interpret {value!r} as a Gaussian rational")
    return g


def pow_i(k: int) -> GaussianRational:
    """i**k for any integer k (negative included)."""
    return _POW_I[k % 4]


def _format_ratio(n: int, d: int) -> str:
    g = math.gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def format_gaussian(value: GaussianRational) -> str:
    """Canonical text form; inverse of :func:`parse_gaussian`."""
    a, b, d = value._a, value._b, value._d
    if d == 1:
        if not b:
            return str(a)
        return f"{b}i" if not a else f"{a}{b:+}i"
    if not b:
        return _format_ratio(a, d)
    if not a:
        return _format_ratio(b, d) + "i"
    sign = "+" if b > 0 else "-"
    return _format_ratio(a, d) + sign + _format_ratio(abs(b), d) + "i"


#: longest digit run a value takes: CPython's default int-conversion limit
#: from 3.11 on, which 3.10, with no limit, keeps here too
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS


def check_digits(values, what: str) -> None:
    """Raises ValueError when format_gaussian would spell one of values with
    a run of more than MAX_DIGITS digits, which parse_gaussian refuses."""
    b = _DIGITS_BOUND
    for x in [x for x in values if abs(x._a) >= b or abs(x._b) >= b or x._d >= b]:
        # each part prints as its reduced ratio
        for n in (x._a, x._b):
            if max(abs(n), x._d) // math.gcd(n, x._d) >= b:
                raise ValueError(f"{what} has a value of more than {MAX_DIGITS} digits")


def _scan_digits(s: str, start: int, expected: str) -> tuple[int, int]:
    # (value, end position) of the run of ASCII digits at start
    pos, n = start, len(s)
    while pos < n and s[pos] in "0123456789":
        pos += 1
    if pos == start:
        raise ParseError(expected, start)
    if pos - start > MAX_DIGITS:
        raise ParseError(f"more than {MAX_DIGITS} digits", start)
    return int(s[start:pos]), pos


def _scan_unsigned(s: str, pos: int) -> tuple[int, int, int]:
    # (numerator, denominator, end position) of digits ["/" digits] at pos,
    # unreduced
    num, pos = _scan_digits(s, pos, "expected digits")
    if pos < len(s) and s[pos] == "/":
        dstart = pos + 1
        den, pos = _scan_digits(s, dstart, "expected digits after '/'")
        if den == 0:
            raise ParseError("zero denominator", dstart)
        return num, den, pos
    return num, 1, pos


def _scan_rat(s: str, pos: int) -> tuple[int, int, int]:
    # a rat of the grammar at pos, as _scan_unsigned returns it
    if s[pos] == "-":
        num, den, pos = _scan_unsigned(s, pos + 1)
        return -num, den, pos
    return _scan_unsigned(s, pos)


def parse_gaussian(text: str) -> GaussianRational:
    """Parse the canonical grammar, strictly.

    Raises :class:`ParseError` (with character position) on anything outside
    the grammar: bare "i", leading "+", zero denominators, trailing junk.
    """
    s = text
    n = len(s)
    if n == 0:
        raise ParseError("empty input", 0)
    if s == "+i":
        return I
    if s == "-i":
        return _SHARED[0][-1]

    num, den, pos = _scan_rat(s, 0)
    if pos == n:
        return _reduced(num, 0, den)
    ch = s[pos]
    if ch == "i":
        if pos + 1 != n:
            raise ParseError("trailing characters after 'i'", pos + 1)
        return _reduced(0, num, den)
    if ch in "+-":
        sign = 1 if ch == "+" else -1
        pos += 1
        if pos < n and s[pos] == "i":
            if pos + 1 != n:
                raise ParseError("trailing characters after 'i'", pos + 1)
            return _reduced(num, sign * den, den)
        im_num, im_den, pos = _scan_unsigned(s, pos)
        if pos >= n or s[pos] != "i":
            raise ParseError("expected 'i'", pos)
        if pos + 1 != n:
            raise ParseError("trailing characters after 'i'", pos + 1)
        return _reduced(num * im_den, sign * im_num * den, den * im_den)
    raise ParseError("unexpected character", pos)
