"""Jacobi-type continued fractions from moment sequences.

A series c(x) = sum c_n x^n with nonvanishing Hankel determinants expands as

    c(x) = c_0 / (1 - u_0 x - v_1 x^2 / (1 - u_1 x - v_2 x^2 / ...))

The coefficients come out of the same fraction-free Chebyshev recurrence
that gives the leading Hankel minors (:mod:`recqi.linalg`); a vanishing
minor raises :class:`DegeneracyError`; the series re-expands along Motzkin paths.

For the digit-sum moments i^tau(n) the coefficients follow closed forms:
u_n = (-1)^n * i, and v_n obeys a base-2 self-similar recursion starting
from the table v_1..v_7 = 1+i, 1, -i, i, 1, -i, 1 (see :func:`v_formula`).
"""

from __future__ import annotations

from .errors import DegeneracyError
from .gaussian import ZERO, ONE, I, GaussianRational, as_gaussian
from .linalg import hankel_recurrence
from .thuemorse import SeriesTruncation


class JFraction:
    """Continued-fraction coefficients u_0..u_(depth-1) and v_1..v_depth."""

    __slots__ = ("_u", "_v")

    def __init__(self, u, v):
        self._u = tuple(as_gaussian(x) for x in u)
        self._v = tuple(as_gaussian(x) for x in v)
        if len(self._u) != len(self._v):
            raise ValueError("expected as many u as v coefficients")

    @property
    def depth(self) -> int:
        return len(self._v)

    @property
    def u(self) -> tuple:
        return self._u

    @property
    def v(self) -> tuple:
        return self._v

    def u_coeff(self, n: int) -> GaussianRational:
        if not 0 <= n < len(self._u):
            raise IndexError(f"u index {n} outside 0..{len(self._u) - 1}")
        return self._u[n]

    def v_coeff(self, n: int) -> GaussianRational:
        if not 1 <= n <= len(self._v):
            raise IndexError(f"v index {n} outside 1..{len(self._v)}")
        return self._v[n - 1]

    def __eq__(self, other):
        if not isinstance(other, JFraction):
            return NotImplemented
        return self._u == other._u and self._v == other._v

    def __repr__(self):
        return f"JFraction(depth={self.depth})"


def jfraction_from_moments(moments, depth: int) -> JFraction:
    """Extract u_0..u_(depth-1), v_1..v_depth from 2*depth + 1 moments.

    With D(k) the order-k Hankel minor and T_k(k+1) the entry the Chebyshev
    recurrence of :func:`~recqi.linalg.hankel_recurrence` reads next to it,

        u_k = T_k(k+1)/D(k+1) - T_(k-1)(k)/D(k),  v_k = D(k+1) D(k-1) / D(k)^2.

    The recurrence clears the denominators of rational moments itself and
    gives vanishing minors as 0; the first, D(k) with k <= depth + 1, raises
    DegeneracyError(level=k). The result is re-expanded along Motzkin paths
    and compared against every moment through index 2*depth; that match
    fixes u and v uniquely, so it checks each of them.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    c = [as_gaussian(x) for x in moments]
    if len(c) < 2 * depth + 1:
        raise ValueError(f"need {2 * depth + 1} moments for depth {depth}")
    c = c[: 2 * depth + 1]
    if depth == 0:
        return JFraction((), ())
    minors, upper = hankel_recurrence(c)
    if ZERO in minors:
        k = minors.index(ZERO)
        raise DegeneracyError(f"leading principal minor of order {k} vanishes", level=k)
    ratios = [ZERO] + [t / d for t, d in zip(upper, minors[1:])]
    u = [b - a for a, b in zip(ratios, ratios[1:])]
    v = [
        minors[k + 1] * minors[k - 1] / (minors[k] * minors[k])
        for k in range(1, depth + 1)
    ]
    jf = JFraction(u, v)
    expansion = jfraction_to_series(jf, c[0], 2 * depth)
    if expansion.coefficients != tuple(c):
        raise ArithmeticError("re-expansion disagrees with the moments")
    return jf


def jfraction_to_series(jf: JFraction, c0, order: int) -> SeriesTruncation:
    """Taylor coefficients 0..order of the continued fraction times c0.

    Coefficient n is c0 times the weight of the Motzkin paths of length n
    from height 0 back to 0 (Flajolet 1980): an up step weighs 1, a level
    step at height k u_k and a down step from height k v_k. The unknown tail
    below level `depth` is replaced by 1, which leaves every coefficient
    through x^(2*depth) untouched: no step is taken at height `depth`.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    c0 = as_gaussian(c0)
    u, v = jf.u + (ZERO,), jf.v + (ZERO,)  # v[k]: the step down to height k
    series, w = [c0], [ONE]  # w[k]: weight of the paths so far ending at k
    for n in range(1, order + 1):
        below = [ZERO] + w + [ZERO, ZERO]  # w[k - 1] at index k
        w = []
        # paths above order - n cannot get back to 0 by step order
        for k in range(min(n, order - n, jf.depth) + 1):
            acc = below[k]
            if below[k + 1]:
                acc = acc + u[k] * below[k + 1]
            if below[k + 2]:
                acc = acc + v[k] * below[k + 2]
            w.append(acc)
        series.append(c0 * w[0])
    return SeriesTruncation(series)


def u_formula(n: int) -> GaussianRational:
    """Closed form for the digit-sum moments: u_n = (-1)^n * i."""
    if n < 0:
        raise ValueError("u is indexed from 0")
    return I if n % 2 == 0 else -I


_V_TABLE = {
    1: ONE + I,
    2: ONE,
    3: -I,
    4: I,
    5: ONE,
    6: -I,
    7: ONE,
}


def v_formula(n: int) -> GaussianRational:
    """Self-similar closed form for v_n, n >= 1.

    Base table for n <= 7; for n = 2^l + a with 0 <= a < 2^l and l >= 3:
    a in {0, 2^(l-1) + 1} gives i, a in {1, 2^(l-1)} gives 1, and anything
    else recurses to v_a.
    """
    if n < 1:
        raise ValueError("v is indexed from 1")
    while n >= 8:
        l = n.bit_length() - 1
        a = n - (1 << l)
        half = 1 << (l - 1)
        if a == 0 or a == half + 1:
            return I
        if a == 1 or a == half:
            return ONE
        n = a
    return _V_TABLE[n]
