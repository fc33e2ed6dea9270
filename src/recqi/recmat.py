"""Linear presentations of finite-complexity functions on word pairs.

A function A maps pairs of equal-length words (U, W) over alphabets of size
p and q to Q(i). A presentation lists dim generator functions (A is the
first), their values at the empty pair (init), and for each letter pair
(s, t) a dim x dim shift matrix expressing every shifted generator
(U, W) -> A_j(Us, Wt) back in the generator basis. Shift matrices act by
columns: entry (k, j) of shift(s, t) is the weight of generator k in the
shift of generator j.

Words are written letter 1 first. When word pairs are laid out as matrix
indices (unfold), letter 1 is the least significant base-p / base-q digit,
so unfolding the Hankel builtin at depth n gives the top-left 2^n block of
the full Hankel array.

The binary operations of the category Rec(K) (sum, matrix product, Hadamard
product, convolution) write each shift of their result as a sum of Kronecker
products of the operands' shifts placed as blocks, built by one routine.
"""

from __future__ import annotations

import math
import re
from itertools import chain

from .errors import ParseError
from .gaussian import (
    MAX_DIGITS,
    ZERO,
    ONE,
    I,
    GaussianRational,
    as_gaussian,
    check_digits,
    format_gaussian,
    from_parts,
    parse_gaussian,
    to_parts,
)
from .linalg import DenseMatrix, SpanBasis, mat_mul, rref


class WordPair:
    """Two equal-length words over alphabets {0..p-1} and {0..q-1}."""

    __slots__ = ("p", "q", "row_word", "col_word")

    def __init__(self, p: int, q: int, row_word, col_word):
        rw = tuple(row_word)
        cw = tuple(col_word)
        if len(rw) != len(cw):
            raise ValueError("the two words must have equal length")
        if any(not 0 <= s < p for s in rw):
            raise ValueError(f"row letters must lie in 0..{p - 1}")
        if any(not 0 <= t < q for t in cw):
            raise ValueError(f"column letters must lie in 0..{q - 1}")
        self.p = p
        self.q = q
        self.row_word = rw
        self.col_word = cw

    @classmethod
    def from_strings(cls, p: int, q: int, row_text: str, col_text: str) -> "WordPair":
        """Words as digit strings, letter 1 leftmost; empty strings allowed."""

        def decode(text, bound, name):
            letters = []
            for pos, ch in enumerate(text):
                if ch not in "0123456789":
                    raise ParseError(f"{name} word letter must be a digit", pos)
                d = int(ch)
                if d >= bound:
                    raise ParseError(f"{name} word letter {d} out of range", pos)
                letters.append(d)
            return letters

        return cls(p, q, decode(row_text, p, "row"), decode(col_text, q, "column"))

    def __len__(self):
        return len(self.row_word)

    def letters(self):
        return zip(self.row_word, self.col_word)

    def __eq__(self, other):
        if not isinstance(other, WordPair):
            return NotImplemented
        return (self.p, self.q, self.row_word, self.col_word) == (
            other.p,
            other.q,
            other.row_word,
            other.col_word,
        )

    def __hash__(self):
        return hash((self.p, self.q, self.row_word, self.col_word))

    def __repr__(self):
        rw = "".join(map(str, self.row_word))
        cw = "".join(map(str, self.col_word))
        return f"WordPair({rw!r}, {cw!r})"


class Presentation:
    """A finite presentation; the represented function is generator 0.

    Equality is structural on (p, q, dim, init, shifts); labels are
    bookkeeping only and never influence the represented function.
    """

    __slots__ = ("_p", "_q", "_dim", "_labels", "_init", "_shifts")

    def __init__(self, p: int, q: int, init, shifts, labels=None):
        if p < 1 or q < 1:
            raise ValueError("alphabet sizes must be at least 1")
        init = tuple(as_gaussian(x) for x in init)
        dim = len(init)
        if labels is None:
            labels = tuple(f"g{k}" for k in range(dim))
        else:
            labels = tuple(str(x) for x in labels)
            if len(labels) != dim:
                raise ValueError("one label per generator")
        shifts = dict(shifts)
        # the count first: p * q letter pairs may be far too many to list
        pairs = ((s, t) for s in range(p) for t in range(q))
        if len(shifts) != p * q or not all(pair in shifts for pair in pairs):
            raise ValueError("need exactly one shift matrix per letter pair")
        for key, m in shifts.items():
            if not isinstance(m, DenseMatrix) or m.rows != dim or m.cols != dim:
                raise ValueError(f"shift {key} must be a {dim}x{dim} matrix")
        self._p = p
        self._q = q
        self._dim = dim
        self._labels = labels
        self._init = init
        self._shifts = shifts

    @property
    def p(self) -> int:
        return self._p

    @property
    def q(self) -> int:
        return self._q

    @property
    def dim(self) -> int:
        return self._dim

    @property
    def labels(self) -> tuple:
        return self._labels

    @property
    def init(self) -> tuple:
        return self._init

    def shift(self, s: int, t: int) -> DenseMatrix:
        return self._shifts[(s, t)]

    def shift_items(self):
        return sorted(self._shifts.items())

    def __eq__(self, other):
        if not isinstance(other, Presentation):
            return NotImplemented
        return (
            self._p == other._p
            and self._q == other._q
            and self._dim == other._dim
            and self._init == other._init
            and self._shifts == other._shifts
        )

    def __repr__(self):
        return f"Presentation(p={self._p}, q={self._q}, dim={self._dim})"

    # -- JSON interchange ---------------------------------------------------

    def to_json_dict(self) -> dict:
        entries = chain(self._init, *(m.entries for m in self._shifts.values()))
        check_digits(entries, "the presentation")
        return {
            "p": self._p,
            "q": self._q,
            "dim": self._dim,
            "labels": list(self._labels),
            "init": [format_gaussian(x) for x in self._init],
            "shifts": {
                f"{s},{t}": [list(map(format_gaussian, row)) for row in m.to_lists()]
                for (s, t), m in self._shifts.items()
            },
        }

    def to_json_text(self) -> str:
        import json

        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json_dict(cls, data) -> "Presentation":
        if not isinstance(data, dict):
            raise ParseError("presentation must be a JSON object")
        required = {"p", "q", "dim", "labels", "init", "shifts"}
        extra = set(data) - required
        if extra:
            raise ParseError(f"unknown presentation fields: {sorted(extra)}")
        missing = required - set(data)
        if missing:
            raise ParseError(f"missing presentation fields: {sorted(missing)}")
        p, q, dim = data["p"], data["q"], data["dim"]
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (p, q, dim)):
            raise ParseError("p, q, dim must be integers")
        labels = data["labels"]
        init = data["init"]
        if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
            raise ParseError("labels must be a list of strings")
        if not isinstance(init, list) or len(init) != dim:
            raise ParseError("init must list one value per generator")
        if not all(isinstance(x, str) for x in init):
            raise ParseError("init entries must be strings")
        if len(labels) != dim:
            raise ParseError("labels must list one name per generator")
        shifts_raw = data["shifts"]
        if not isinstance(shifts_raw, dict):
            raise ParseError("shifts must be an object keyed by 's,t'")
        shifts = {}
        for key, rows in shifts_raw.items():
            if not _SHIFT_KEY.fullmatch(key):
                raise ParseError(f"bad shift key {key!r}")
            s, t = (_int_of_digits(x, "a shift key letter") for x in key.split(","))
            if (s, t) in shifts:
                raise ParseError(f"shift key {key!r} repeats letter pair {s},{t}")
            if not isinstance(rows, list) or len(rows) != dim:
                raise ParseError(f"shift {key!r} must have {dim} rows")
            entries = []
            for row in rows:
                if not isinstance(row, list) or len(row) != dim:
                    raise ParseError(f"shift {key!r} rows must have {dim} entries")
                for cell in row:
                    if not isinstance(cell, str):
                        raise ParseError(f"shift {key!r} entries must be strings")
                    entries.append(parse_gaussian(cell))
            shifts[(s, t)] = DenseMatrix(dim, dim, entries)
        if p < 1 or q < 1:
            raise ParseError("alphabet sizes must be at least 1")
        # distinct keys in range, p * q of them, are exactly the letter pairs
        if len(shifts) != p * q or any(s >= p or t >= q for s, t in shifts):
            raise ParseError("shifts must cover exactly the letter pairs")
        return cls(p, q, [parse_gaussian(x) for x in init], shifts, labels)

    @classmethod
    def from_json_text(cls, text: str) -> "Presentation":
        import json

        def json_int(digits):
            return _int_of_digits(digits, "a JSON integer")

        try:
            data = json.loads(text, object_pairs_hook=_unique_keys, parse_int=json_int)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        except RecursionError:
            raise ParseError("JSON nested too deeply to read") from None
        return cls.from_json_dict(data)


_SHIFT_KEY = re.compile(r"[0-9]+,[0-9]+")


def _int_of_digits(text: str, what: str) -> int:
    """int(text) of an optional "-" and ASCII digits; ParseError past
    MAX_DIGITS digits, which CPython from 3.11 on refuses to convert."""
    if len(text.removeprefix("-")) > MAX_DIGITS:
        raise ParseError(f"{what} has more than {MAX_DIGITS} digits")
    return int(text)


def _unique_keys(pairs) -> dict:
    data = {}
    for key, value in pairs:
        if key in data:
            raise ParseError(f"repeated JSON key {key!r}")
        data[key] = value
    return data


def zero_presentation(p: int = 2, q: int = 2) -> Presentation:
    """The zero function: no generators at all."""
    shifts = {(s, t): DenseMatrix(0, 0, ()) for s in range(p) for t in range(q)}
    return Presentation(p, q, (), shifts, ())


# -- evaluation and unfolding ---------------------------------------------


def _sparse_rows(rows) -> list:
    """Nonzero entries [(k, x), ...] of each row of a matrix given as lists."""
    return [[(k, x) for k, x in enumerate(row) if x] for row in rows]


def _apply_action(rows, vec):
    """The one shift action: the matrix of _sparse_rows(rows) times vec,
    out[r] = sum_k m[r, k] * vec[k]; with the rows of m's transpose, the row
    vector vec times m."""
    out = []
    for row in rows:
        terms = [w * vec[k] for k, w in row if vec[k]]
        out.append(sum(terms[1:], terms[0]) if terms else ZERO)
    return out


# largest part, in bits, of a vector that `evaluate` or `minimize` computes
# or of a level that `unfold_levels` holds: builtin compositions stay under
# 2^8 bits, dense entries double every 2 dims in an orbit and grow by a fixed
# amount per letter in `evaluate`; the cap keeps every value far below
# CPython's 4300-digit limit on int-to-str
MAX_ORBIT_BITS = 2**12
# cap on cells x generators x bits of a level `unfold_levels` builds, about
# 48 MB of parts: builtins stay under 2^23 at the CLI's depth caps, shifts
# [[0, d], [1/d, 0]] under 2^28 at depth 9 with a 460-bit d; a 2,040-bit d
# reaches 2^29 at depth 8 (the CLI held 64 MB) and 2^30 at 9 (350 MB)
MAX_UNFOLD_BITS = 3 * 2**27
# cap on the largest part's bits times the length of a vector in a `minimize`
# orbit, which each reduction against the span costs together: sparse random
# files of dim 60 reach 566 bits, builtin compositions at most 224 bits x 52
MAX_ORBIT_SIZE = 2**14
# cap on the nonzero values times the bits of their common denominator, which
# `evaluate` and `unfold_levels` scale each of them by: a dense dim-256 file
# with p = q = 2 and every entry 1/256 needs 2^18 x 9 bits
MAX_LIFT_SIZE = 2**22
# cap on the letters of a word times the terms of a letter in `evaluate`:
# a dense dim-256 shift over a small denominator takes words of 15 letters,
# about 2 s at 1.7 us a term on a 2-vCPU guest
MAX_EVAL_TERMS = 2**20


def _check_bits(largest: int, what: str) -> int:
    """The bits of largest; raises ValueError past MAX_ORBIT_BITS."""
    bits = largest.bit_length()
    if bits > MAX_ORBIT_BITS:
        raise ValueError(
            f"{what} has an entry of {bits} bits, more than the cap of {MAX_ORBIT_BITS}"
        )
    return bits


def _bounded(level, scale: int, bits: int, what: str) -> tuple[list, int, int]:
    """A level of (re, im) int lists over scale, its largest part or scale of
    at most `bits` bits. Past MAX_ORBIT_BITS, the content of the parts and the
    scale is divided out, so a value that stays bounded keeps small parts, and
    the bits are measured: ValueError when they still pass the cap."""
    if bits <= MAX_ORBIT_BITS:
        return level, scale, bits
    level, scale, largest = _divided(level, scale)
    return level, scale, _check_bits(largest, what)


def _divided(level, scale) -> tuple[list, int, int]:
    """A level of (re, im) int lists over scale with the content of the parts
    and the scale divided out; the new scale; and the largest part or scale."""
    parts = [z for x_re, x_im in level for z in x_re + x_im]
    g = math.gcd(scale, *parts)
    level = [([x // g for x in x_re], [y // g for y in x_im]) for x_re, x_im in level]
    return level, scale // g, max(scale, max(map(abs, parts))) // g


def evaluate(pres: Presentation, pair: WordPair) -> GaussianRational:
    """Value of the represented function at a word pair.

    Raises ValueError before it starts when the letters times the terms of
    the largest shift pass MAX_EVAL_TERMS, and once the vector after a letter
    has a part of more than MAX_ORBIT_BITS bits."""
    if pair.p != pres.p or pair.q != pres.q:
        raise ValueError("word pair alphabets do not match the presentation")
    actions, lift, growth = _int_actions(pres)
    # a letter combines each generator from the nonzero entries of its shift,
    # times L, and parts of up to MAX_ORBIT_BITS bits, then may take the gcd of
    # every part: each entry and each generator is one term, weighted by the
    # square of the parts' bits, L's included, over MAX_ORBIT_BITS
    terms = max(sum(map(len, cols)) for cols in actions) + pres.dim
    terms *= (lift.bit_length() + MAX_ORBIT_BITS) ** 2 // MAX_ORBIT_BITS**2
    if len(pair) * terms > MAX_EVAL_TERMS:
        raise ValueError(
            f"a word of {len(pair)} letters on shifts of up to {terms} terms:"
            f" {len(pair)} x {terms} is more than the cap of {MAX_EVAL_TERMS}"
        )
    level, scale, bits = _init_level(pres)
    for k, (s, t) in enumerate(pair.letters(), 1):
        level = [_combine(col, level) for col in actions[s * pres.q + t]]
        what = f"the vector after letter {k}"
        level, scale, bits = _bounded(level, scale * lift, bits + growth, what)
    return from_parts(*level[0], scale)[0]


def _lifted(values, what: str) -> tuple[list, list, int]:
    """to_parts(values), refused with ValueError before any value is scaled
    when the nonzero values times the bits of their common denominator pass
    MAX_LIFT_SIZE."""
    denominators = [x.integer_parts()[2] for x in values if x]
    lift = 1
    for d in set(denominators):
        lift = math.lcm(lift, d)
        n, bits = len(denominators), lift.bit_length()
        if n * bits > MAX_LIFT_SIZE:
            raise ValueError(
                f"{what} have {n} nonzero entries over a common denominator of"
                f" at least {bits} bits: {n} x {bits} is more than the cap of"
                f" {MAX_LIFT_SIZE}"
            )
    return to_parts(values)


def _int_actions(pres: Presentation) -> tuple[list, int, int]:
    """The shifts as int lists: per shift s * q + t and column j, the
    (k, re, im) of each nonzero L * shift(s, t)[k, j], with L the lcm of the
    denominators of every shift entry; L; and the bits by which one step can
    grow the largest part or scale of a level, those of L or of the largest
    column 1-norm, |re| + |im| summed."""
    dim = pres.dim
    entries = [x for _, m in pres.shift_items() for x in m.entries]
    w_re, w_im, lift = _lifted(entries, "the shifts")
    # with no generators, one that every shift kills stands for the zero function
    actions = [[[] for _ in range(dim)] or [[]] for _ in range(pres.p * pres.q)]
    for e, (a, b) in enumerate(zip(w_re, w_im)):
        if a or b:
            actions[e // (dim * dim)][e % dim].append((e // dim % dim, a, b))
    norms = [sum(abs(a) + abs(b) for _, a, b in c) for cols in actions for c in cols]
    return actions, lift, max(lift, *norms).bit_length()


def _init_level(pres: Presentation) -> tuple[list, int, int]:
    """Level 0, each generator's init value as one-element (re, im) lists over
    their common denominator; that scale; and its or the largest part's bits."""
    re, im, scale = _lifted(pres.init, "the initial values")
    level = [([x], [y]) for x, y in zip(re, im)] or [([0], [0])]
    return level, scale, max([scale, *map(abs, re + im)]).bit_length()


def unfold_levels(pres: Presentation, depth: int):
    """Yield unfold(pres, n) for n = 0..depth from one pass over the levels.

    Level n holds the real and the imaginary parts of each generator at
    every cell, row-major, as ints over one scale: the lcm of the
    denominators of init, times L, the lcm of those of the shifts, a level.
    Shift (s, t) maps whole lists by int combinations to the (s, t) block of
    level n + 1; the last level takes column 0 of each shift alone. Only
    yields build scalars. As in `evaluate`, the content of a level whose
    bound passes MAX_ORBIT_BITS is divided out, and one that still passes it
    raises ValueError; so does a level whose cells times generators times
    bound passes MAX_UNFOLD_BITS, before it is built.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    q = pres.q
    actions, lift, growth = _int_actions(pres)
    level, scale, bits = _init_level(pres)
    pr, qc = 1, 1
    for n in range(depth):
        yield DenseMatrix(pr, qc, from_parts(*level[0], scale))
        if n == depth - 1:
            actions = [cols[:1] for cols in actions]
        gens, cells = len(actions[0]), pr * qc * pres.p * q
        what = f"the level at depth {n + 1}"
        level, scale, bits = _sized(level, scale, bits, growth, cells, gens, what)
        level = [
            _row_major([_combine(cols[j], level) for cols in actions], q, qc)
            for j in range(gens)
        ]
        pr, qc = pr * pres.p, qc * q
        level, scale, bits = _bounded(level, scale * lift, bits + growth, what)
    yield DenseMatrix(pr, qc, from_parts(*level[0], scale))


def _sized(level, scale, bits, growth, cells, gens, what) -> tuple[list, int, int]:
    """A level as `_bounded` returns it, checked before the next level of
    cells x gens values grows from it by growth bits. Past MAX_UNFOLD_BITS by
    the running bound, which may be loose, its content is divided out and its
    bits are measured: ValueError when the next level still passes the cap."""
    if cells * gens * (bits + growth) > MAX_UNFOLD_BITS:
        level, scale, largest = _divided(level, scale)
        bits = largest.bit_length()
        if cells * gens * (bits + growth) > MAX_UNFOLD_BITS:
            raise ValueError(
                f"{what}: {cells} cells x {gens} generators x {bits + growth} bits"
                f" is more than the cap of {MAX_UNFOLD_BITS}"
            )
    return level, scale, bits


def _combine(col, level) -> tuple[list, list]:
    """Sum over (k, a, b) in col of (a + b*i) times generator k of level."""
    out_re = out_im = [0] * len(level[0][0])
    for k, a, b in col:
        x_re, x_im = level[k]
        out_re = [o + a * x - b * y for o, x, y in zip(out_re, x_re, x_im)]
        out_im = [o + a * y + b * x for o, x, y in zip(out_im, x_re, x_im)]
    return out_re, out_im


def _row_major(blocks, q, qc) -> tuple[list, list]:
    """A generator's parts at the next level from its blocks, listed in
    (s, t) order: row r + s * pr is row r of blocks (s, 0), ..., (s, q - 1)."""
    re, im = [], []
    for first in range(0, len(blocks), q):
        for r in range(0, len(blocks[0][0]), qc):
            for b_re, b_im in blocks[first : first + q]:
                re += b_re[r : r + qc]
                im += b_im[r : r + qc]
    return re, im


def unfold(pres: Presentation, depth: int) -> DenseMatrix:
    """p^depth x q^depth matrix of values, words encoded as digit indices:
    the last level of :func:`unfold_levels`."""
    for matrix in unfold_levels(pres, depth):
        pass
    return matrix


# -- the four products and transpose ----------------------------------------


def _assemble(p, q, dim, init, labels, blocks) -> Presentation:
    """The presentation whose shift (s, t) is the dim x dim sum, over the
    entries (row, col, M, N) of blocks(s, t), of the Kronecker product M (x) N
    of two rectangular matrices placed with its top-left entry at (row, col).
    """
    shifts = {}
    for s in range(p):
        for t in range(q):
            out = [None] * (dim * dim)
            for row, col, ma, mb in blocks(s, t):
                n1, n2, eb = mb.rows, mb.cols, mb.entries
                # entry (l, j) of N lands at offset l * dim + j of each block
                nonzero = [(e // n2 * dim + e % n2, y) for e, y in enumerate(eb) if y]
                for e, x in enumerate(ma.entries):
                    if x:
                        k, i = divmod(e, ma.cols)
                        base = (row + k * n1) * dim + col + i * n2
                        for off, y in nonzero:
                            at = base + off
                            out[at] = x * y if out[at] is None else out[at] + x * y
            entries = [ZERO if x is None else x for x in out]
            shifts[(s, t)] = DenseMatrix(dim, dim, entries)
    return Presentation(p, q, init, shifts, labels)


def rec_product(pa: Presentation, pb: Presentation) -> Presentation:
    """Matrix product: C[U, W] = sum_V A[U, V] * B[V, W] over the inner words.

    Shift rule: shift_C(s, t) = sum_v shift_A(s, v) (x) shift_B(v, t), acting
    on generators A_i.B_j indexed row-major.
    """
    if pa.q != pb.p:
        raise ValueError("inner alphabets do not match")

    def blocks(s, t):
        return [(0, 0, pa.shift(s, v), pb.shift(v, t)) for v in range(pa.q)]

    init = [x * y for x in pa.init for y in pb.init]
    labels = [f"{x}.{y}" for x in pa.labels for y in pb.labels]
    return _assemble(pa.p, pb.q, pa.dim * pb.dim, init, labels, blocks)


def rec_hadamard(pa: Presentation, pb: Presentation) -> Presentation:
    """Entrywise product: generators A_i.B_j, shifts the Kronecker squares."""
    if pa.p != pb.p or pa.q != pb.q:
        raise ValueError("alphabets do not match")

    def blocks(s, t):
        return [(0, 0, pa.shift(s, t), pb.shift(s, t))]

    init = [x * y for x in pa.init for y in pb.init]
    labels = [f"{x}*{y}" for x in pa.labels for y in pb.labels]
    return _assemble(pa.p, pa.q, pa.dim * pb.dim, init, labels, blocks)


def rec_scale(factor, pres: Presentation) -> Presentation:
    """Scalar multiple: same shifts, scaled initial values."""
    f = as_gaussian(factor)
    return Presentation(
        pres.p,
        pres.q,
        [f * x for x in pres.init],
        dict(pres.shift_items()),
        pres.labels,
    )


def rec_sum(pa: Presentation, pb: Presentation) -> Presentation:
    """Pointwise sum with the sum itself as generator 0.

    The generators are C_0 = A_0 + B_0, C_k = A_k for 0 < k < a and
    C_(a+k) = B_k, so A_0 = C_0 - C_a. In this basis shift (s, t) is the
    direct sum of A(s, t) and B(s, t), plus column 0 of B(s, t) at (a, 0)
    (the shift of B_0 inside that of C_0), minus row 0 of A(s, t) at (a, 0)
    (each A_0 term rewritten as C_0 - C_a).
    """
    if pa.p != pb.p or pa.q != pb.q:
        raise ValueError("alphabets do not match")
    a, b = pa.dim, pb.dim
    if a == 0:
        return pb
    if b == 0:
        return pa
    one, minus_one = DenseMatrix.identity(1), DenseMatrix(1, 1, [-ONE])

    def blocks(s, t):
        ma, mb = pa.shift(s, t), pb.shift(s, t)
        return [
            (0, 0, ma, one),
            (a, a, mb, one),
            (a, 0, DenseMatrix(b, 1, mb.entries[::b]), one),
            (a, 0, DenseMatrix(1, a, ma.entries[:a]), minus_one),
        ]

    init = [pa.init[0] + pb.init[0], *pa.init[1:], *pb.init]
    labels = [f"{pa.labels[0]}+{pb.labels[0]}", *pa.labels[1:], *pb.labels]
    return _assemble(pa.p, pa.q, a + b, init, labels, blocks)


def rec_transpose(pres: Presentation) -> Presentation:
    """Swap the word roles: T[U, W] = A[W, U]; shift(s, t) becomes shift(t, s)."""
    shifts = {(t, s): m for (s, t), m in pres.shift_items()}
    return Presentation(pres.q, pres.p, pres.init, shifts, pres.labels)


def rec_convolution(pa: Presentation, pb: Presentation) -> Presentation:
    """Convolution over splittings:

        (A * B)[U, W] = sum over U = U1 U2, W = W1 W2 with |U1| = |W1|
                        of A[U1, W1] * B[U2, W2].

    Shifting by one letter either extends B's block (term (shift B)) or
    closes it at length zero and starts shifting A (term (shift A) * B[empty]),
    so the generator space is {A_i * B_j} plus a copy of {A_i}, and shift
    (s, t) is [[I_a (x) B(s, t), 0], [A(s, t) (x) init_B^T, A(s, t)]].
    """
    if pa.p != pb.p or pa.q != pb.q:
        raise ValueError("alphabets do not match")
    a, b = pa.dim, pb.dim
    if a == 0 or b == 0:
        return zero_presentation(pa.p, pa.q)
    eye_a, one = DenseMatrix.identity(a), DenseMatrix.identity(1)
    init_b_row = DenseMatrix(1, b, pb.init)

    def blocks(s, t):
        ma = pa.shift(s, t)
        return [
            (0, 0, eye_a, pb.shift(s, t)),
            (a * b, 0, ma, init_b_row),
            (a * b, a * b, ma, one),
        ]

    init = [x * y for x in pa.init for y in pb.init] + list(pa.init)
    labels = [f"{x}~{y}" for x in pa.labels for y in pb.labels] + list(pa.labels)
    return _assemble(pa.p, pa.q, a * b + a, init, labels, blocks)


# -- minimization ----------------------------------------------------------


def _orbit_span(seed, actions) -> SpanBasis:
    """Span of seed and of its images under every word over the actions:
    the reachable span takes the rows of the shifts, the observation span
    (the orbit of the init row) those of their transposes.
    Raises ValueError past MAX_ORBIT_BITS or MAX_ORBIT_SIZE."""
    span = SpanBasis(len(seed))
    first = span.add(seed)
    work = [] if first is None else [first]
    while work:
        vec = work.pop()
        largest = max(abs(z) for x in vec for z in x.integer_parts())
        bits = _check_bits(largest, "an orbit vector")
        if bits * len(vec) > MAX_ORBIT_SIZE:
            raise ValueError(
                f"an orbit vector of length {len(vec)} has an entry of {bits} bits:"
                f" {bits} x {len(vec)} is more than the cap of {MAX_ORBIT_SIZE}"
            )
        for cols in actions:
            added = span.add(_apply_action(cols, vec))
            if added is not None:
                work.append(added)
    return span


def minimize(pres: Presentation) -> Presentation:
    """Smallest presentation of the same function; generator 0 is the function.

    The generators are the forward-orbit vectors, e0 first, whose pairings
    with the observation orbit are independent of those before: independence
    modulo what no observation sees. One `rref` of the pairings of every
    observation with them and with their images gives every induced shift.
    """
    mats = [(key, mat.to_lists()) for key, mat in pres.shift_items()]
    forward = [_sparse_rows(rows) for _, rows in mats]
    # the orbit's first stored vector is its seed e0, the only one of pivot 0
    e0 = [ONE if k == 0 else ZERO for k in range(pres.dim)]
    fwd = _orbit_span(e0, forward).vectors()
    backward = [_sparse_rows(zip(*rows)) for _, rows in mats]
    obs = _orbit_span(list(pres.init), backward).vectors()
    # the rows of obs times v pair v with each observation
    pair_obs = _sparse_rows(obs)
    kept = SpanBasis(len(obs))
    chosen, columns = [], []
    for cand in fwd:
        column = _apply_action(pair_obs, cand)
        if kept.add(column) is not None:
            chosen.append(cand)
            columns.append(column)
    m = len(chosen)
    # shift(s, t) u_j minus its coordinates x in the chosen vectors pairs to 0
    # with every observation, so pairings x = image pairings; the chosen
    # columns are independent and span every image column, so the unique
    # RREF of [pairings | image pairings] is [I | x] over zero rows
    images = [_apply_action(action, u) for action in forward for u in chosen]
    pair_images = _sparse_rows(images)
    rows = [[*r, *_apply_action(pair_images, o)] for o, r in zip(obs, zip(*columns))]
    reduced, _, pivots = rref(DenseMatrix.from_rows(rows))
    if pivots != tuple(range(m)):
        raise AssertionError("pairing block is not invertible")
    solved = [reduced.row_list(k) for k in range(m)]
    new_shifts = {
        key: DenseMatrix(m, m, [x for row in solved for x in row[m * n : m * (n + 1)]])
        for n, (key, _) in enumerate(mats, 1)
    }
    new_init = _apply_action(_sparse_rows(chosen), pres.init)
    labels = [f"m{k}" for k in range(m)]
    return Presentation(pres.p, pres.q, new_init, new_shifts, labels)


def same_function(pa: Presentation, pb: Presentation) -> bool:
    """Exact equality of represented functions: the difference is zero
    exactly when every vector of its observation orbit is 0 at generator 0,
    that is, when no stored echelon vector has its pivot there."""
    if pa.p != pb.p or pa.q != pb.q:
        return False
    diff = rec_sum(pa, rec_scale(-1, pb))
    backward = [_sparse_rows(zip(*m.to_lists())) for _, m in diff.shift_items()]
    obs = _orbit_span(list(diff.init), backward)
    return 0 not in obs.pivots


# -- automata and builtin presentations --------------------------------------


def from_automaton(lam, mu, gamma) -> Presentation:
    """The presentation of a weighted automaton that reads letter 1 first,
    with value lam . mu(s1, t1) ... mu(sn, tn) . gamma at (s1..sn, t1..tn):
    lam and gamma list a weight per state, and mu maps each letter pair to
    its transition matrix as a list of rows; p and q come from its keys.

    With A = I - (gamma - e0) e0^T, so that A gamma = e0, the shifts are
    A mu A^-1 and init is lam A^-1, where A^-1 = I + (gamma - e0) e0^T.
    Raises ValueError unless gamma[0] == 1, which that basis change needs.
    """
    gamma = [as_gaussian(x) for x in gamma]
    if not gamma or gamma[0] != ONE:
        raise ValueError("the final weight of state 0 must be 1")
    n = len(gamma)
    a, a_inv = (
        DenseMatrix(
            n,
            n,
            [
                ONE if r == c else sign * g if c == 0 else ZERO
                for r, g in enumerate(gamma)
                for c in range(n)
            ],
        )
        for sign in (-1, 1)
    )
    shifts = {
        key: mat_mul(mat_mul(a, DenseMatrix.from_rows(rows)), a_inv)
        for key, rows in mu.items()
    }
    p, q = (1 + max(key[k] for key in mu) for k in (0, 1))
    return Presentation(p, q, mat_mul(DenseMatrix(1, n, lam), a_inv).entries, shifts)


def _mat(dim, rows):
    return DenseMatrix(dim, dim, [as_gaussian(x) for row in rows for x in row])


def _builtin_hankel() -> Presentation:
    i = I
    shifts = {
        (0, 0): _mat(2, [[1, i], [0, 0]]),
        (0, 1): _mat(2, [[0, -i], [1, ONE + i]]),
        (1, 0): _mat(2, [[0, -i], [1, ONE + i]]),
        (1, 1): _mat(2, [[i, i], [0, 0]]),
    }
    return Presentation(2, 2, [ONE, i], shifts, ["H0", "H1"])


def _builtin_lower() -> Presentation:
    i = I
    shifts = {
        (0, 0): _mat(4, [[1, i, 1, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0]]),
        (0, 1): _mat(4, [[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 1, 0, 1]]),
        (1, 0): _mat(
            4,
            [
                [0, -i, -ONE + i, -i],
                [1, ONE + i, -i, 1],
                [0, 0, 0, 0],
                [0, 0, 0, 0],
            ],
        ),
        (1, 1): _mat(
            4,
            [[0, 0, 0, 0], [0, 0, 0, 0], [1, ONE + i, 1, i], [0, i, 0, i]],
        ),
    }
    return Presentation(2, 2, [ONE, i, ONE, ZERO], shifts, ["L0", "L1", "L2", "L3"])


def _builtin_diag() -> Presentation:
    shifts = {
        (0, 0): _mat(3, [[1, 0, 0], [0, 0, 0], [0, 1, 1]]),
        (0, 1): DenseMatrix.zeros(3, 3),
        (1, 0): DenseMatrix.zeros(3, 3),
        (1, 1): _mat(3, [[0, 2, 0], [1, 1, 1], [0, -2, 0]]),
    }
    one_plus_i = ONE + I
    return Presentation(2, 2, [ONE, one_plus_i, one_plus_i], shifts, ["D0", "D1", "D2"])


def _builtin_one_state(label: str, weights) -> Presentation:
    """p = q = 2, dim 1, init 1: shift (s, t) is the 1x1 matrix weights[s][t]."""
    shifts = {(s, t): _mat(1, [[weights[s][t]]]) for s in range(2) for t in range(2)}
    return Presentation(2, 2, [ONE], shifts, [label])


def _builtin_diag_one_plus_n() -> Presentation:
    """Diagonal function 1 + |U| on (U, U), zero elsewhere.

    Second generator is the diagonal indicator; shifting along a diagonal
    letter adds the indicator, any off-diagonal letter kills both.
    """
    grow = _mat(2, [[1, 0], [1, 1]])
    shifts = {
        (0, 0): grow,
        (1, 1): grow,
        (0, 1): DenseMatrix.zeros(2, 2),
        (1, 0): DenseMatrix.zeros(2, 2),
    }
    return Presentation(2, 2, [ONE, ONE], shifts, ["N0", "N1"])


_BUILTIN_FACTORIES = {
    "H": _builtin_hankel,
    "L": _builtin_lower,
    "D": _builtin_diag,
    "I": lambda: _builtin_one_state("I0", [[1, 0], [0, 1]]),
    "E": lambda: _builtin_one_state("E0", [[0, 0], [0, 0]]),
    "ones": lambda: _builtin_one_state("J0", [[1, 1], [1, 1]]),
    "zero": zero_presentation,
    "diag1plusn": _builtin_diag_one_plus_n,
    "U": lambda: rec_product(_builtin_diag(), rec_transpose(_builtin_lower())),
}


def builtin(name: str) -> Presentation:
    """Named example presentations; "U" is the diagonal times transposed lower."""
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        known = sorted(_BUILTIN_FACTORIES)
        raise ValueError(f"unknown builtin {name!r}; known: {', '.join(known)}") from None
    return factory()
