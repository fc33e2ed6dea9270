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

import json
import re

from .errors import ParseError
from .gaussian import (
    ZERO,
    ONE,
    I,
    GaussianRational,
    as_gaussian,
    format_gaussian,
    parse_gaussian,
)
from .linalg import DenseMatrix, SpanBasis, kernel_basis, rref
from .linalg import _from_int_parts, _int_parts


def index_to_word(index: int, base: int, length: int) -> tuple[int, ...]:
    """Digits of index in the given base, least significant first."""
    if index < 0 or index >= base**length:
        raise ValueError(f"index {index} out of range for length {length}")
    word = []
    for _ in range(length):
        word.append(index % base)
        index //= base
    return tuple(word)


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
                if not ch.isdigit():
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


def word_pairs(p: int, q: int, length: int):
    """All pairs of the given length, ordered by (row index, column index)."""
    for r in range(p**length):
        rw = index_to_word(r, p, length)
        for c in range(q**length):
            yield WordPair(p, q, rw, index_to_word(c, q, length))


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
        return {
            "p": self._p,
            "q": self._q,
            "dim": self._dim,
            "labels": list(self._labels),
            "init": [format_gaussian(x) for x in self._init],
            "shifts": {
                f"{s},{t}": [
                    [format_gaussian(m[r, c]) for c in range(self._dim)]
                    for r in range(self._dim)
                ]
                for (s, t), m in self._shifts.items()
            },
        }

    def to_json_text(self) -> str:
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
        if len(labels) != dim:
            raise ParseError("labels must list one name per generator")
        shifts_raw = data["shifts"]
        if not isinstance(shifts_raw, dict):
            raise ParseError("shifts must be an object keyed by 's,t'")
        shifts = {}
        for key, rows in shifts_raw.items():
            if not _SHIFT_KEY.fullmatch(key):
                raise ParseError(f"bad shift key {key!r}")
            s, t = map(int, key.split(","))
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
        try:
            data = json.loads(text, object_pairs_hook=_unique_keys)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON: {exc}") from None
        return cls.from_json_dict(data)


_SHIFT_KEY = re.compile(r"[0-9]+,[0-9]+")


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


def _columns(m: DenseMatrix) -> list:
    """Nonzero entries [(k, m[k, j]), ...] of each column j of square m."""
    d = m.rows
    e = m.entries
    return [[(k, e[k * d + j]) for k in range(d) if e[k * d + j]] for j in range(d)]


def _apply_action(cols, vec):
    """The one shift action: row vector vec times the matrix of _columns(m),
    out[j] = sum_k m[k, j] * vec[k]; with _columns(m.transpose()), m times vec."""
    out = []
    for col in cols:
        terms = [w * vec[k] for k, w in col if vec[k]]
        out.append(sum(terms[1:], terms[0]) if terms else ZERO)
    return out


def evaluate(pres: Presentation, pair: WordPair) -> GaussianRational:
    """Value of the represented function at a word pair."""
    if pair.p != pres.p or pair.q != pres.q:
        raise ValueError("word pair alphabets do not match the presentation")
    if pres.dim == 0:
        return ZERO
    actions = {key: _columns(m) for key, m in pres.shift_items()}
    vec = list(pres.init)
    for s, t in pair.letters():
        vec = _apply_action(actions[(s, t)], vec)
    return vec[0]


def unfold_levels(pres: Presentation, depth: int):
    """Yield unfold(pres, n) for n = 0..depth from one pass over the levels.

    Level n holds the real and the imaginary parts of each generator at
    every cell, row-major, as ints over one scale L0 * L^n (L0, L: the lcm
    of the denominators of init and of the shifts). Shift (s, t) maps whole
    lists by int combinations to the (s, t) block of level n + 1; the last
    level takes column 0 of each shift alone. Only yields build scalars.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    q, dim = pres.q, pres.dim
    w_re, w_im, lift = _int_parts([x for _, m in pres.shift_items() for x in m.entries])
    # column j of shift s * q + t: (k, re, im) of its nonzero L * (k, j); with
    # no generators, one that every shift kills stands for the zero function
    actions = [[[] for _ in range(dim)] or [[]] for _ in range(pres.p * q)]
    for e, (a, b) in enumerate(zip(w_re, w_im)):
        if a or b:
            actions[e // (dim * dim)][e % dim].append((e // dim % dim, a, b))
    re, im, scale = _int_parts(pres.init)
    level = [([x], [y]) for x, y in zip(re, im)] or [([0], [0])]
    pr, qc = 1, 1
    for n in range(depth):
        yield DenseMatrix(pr, qc, _from_int_parts(*level[0], scale))
        if n == depth - 1:
            actions = [cols[:1] for cols in actions]
        level = [
            _row_major([_combine(cols[j], level) for cols in actions], q, qc)
            for j in range(len(actions[0]))
        ]
        pr, qc, scale = pr * pres.p, qc * q, scale * lift
    yield DenseMatrix(pr, qc, _from_int_parts(*level[0], scale))


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


def _dot(xs, ys) -> GaussianRational:
    terms = [x * y for x, y in zip(xs, ys) if y]
    return sum(terms[1:], terms[0]) if terms else ZERO


# builtin compositions stay under 2^8 bits; dense entries double every 2 dims
MAX_ORBIT_BITS = 2**12


def _orbit_span(seed, actions) -> SpanBasis:
    """Span of seed and of its images under every word over the actions:
    the reachable span takes the columns of the transposed shifts, the
    observation span (the orbit of the init row) those of the shifts.
    Raises ValueError past MAX_ORBIT_BITS."""
    span = SpanBasis(len(seed))
    first = span.add(seed)
    work = [] if first is None else [first]
    while work:
        vec = work.pop()
        bits = max(abs(z) for x in vec for z in x.integer_parts()).bit_length()
        if bits > MAX_ORBIT_BITS:
            raise ValueError(
                f"an orbit vector has an entry of {bits} bits,"
                f" more than the cap of {MAX_ORBIT_BITS}"
            )
        for cols in actions:
            added = span.add(_apply_action(cols, vec))
            if added is not None:
                work.append(added)
    return span


def observation_kernel(pres: Presentation) -> list:
    """Vectors x with (init row) . (any shift word) . x = 0.

    A generator combination lies here exactly when the combined function
    vanishes identically; computed from the observation orbit.
    """
    obs = _orbit_span(list(pres.init), [_columns(m) for _, m in pres.shift_items()])
    rows = [x for vec in obs.vectors() for x in vec]
    return kernel_basis(DenseMatrix(obs.dim, pres.dim, rows))


def minimize(pres: Presentation) -> Presentation:
    """Smallest presentation of the same function.

    Restrict to the forward orbit of the represented coordinate, then quotient
    by the subspace the observation orbit cannot see. The first generator of
    the result is the function itself.
    """
    d = pres.dim
    if d == 0:
        return zero_presentation(pres.p, pres.q)
    mats = pres.shift_items()
    forward = [_columns(mat.transpose()) for _, mat in mats]
    e0 = [ONE] + [ZERO] * (d - 1)
    fwd = _orbit_span(e0, forward).vectors()
    obs = _orbit_span(list(pres.init), [_columns(mat) for _, mat in mats])
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


def complexity(pres: Presentation) -> int:
    """Dimension of a minimal presentation of the represented function."""
    return minimize(pres).dim


def same_function(pa: Presentation, pb: Presentation) -> bool:
    """Exact equality of represented functions (minimize the difference)."""
    if pa.p != pb.p or pa.q != pb.q:
        return False
    return minimize(rec_sum(pa, rec_scale(-1, pb))).dim == 0


# -- builtin presentations ---------------------------------------------------


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
}


def builtin(name: str) -> Presentation:
    """Named example presentations; "U" is the diagonal times transposed lower."""
    if name == "U":
        return rec_product(_builtin_diag(), rec_transpose(_builtin_lower()))
    try:
        factory = _BUILTIN_FACTORIES[name]
    except KeyError:
        known = sorted([*_BUILTIN_FACTORIES, "U"])
        raise ValueError(f"unknown builtin {name!r}; known: {', '.join(known)}") from None
    return factory()
