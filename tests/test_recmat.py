"""Presentations: evaluation, unfolding, the product calculus, minimization."""

import hashlib
import random
import tracemalloc
from fractions import Fraction

import pytest

from recqi import recmat
from recqi import (
    ONE,
    ZERO,
    DenseMatrix,
    GaussianRational,
    I,
    ParseError,
    Presentation,
    WordPair,
    builtin,
    complexity,
    evaluate,
    hankel,
    index_to_word,
    minimize,
    moment,
    observation_kernel,
    pow_i,
    rec_convolution,
    rec_hadamard,
    rec_product,
    rec_scale,
    rec_sum,
    rec_transpose,
    rref,
    same_function,
    tau,
    unfold,
    word_pairs,
    zero_presentation,
)
from oracles import (
    convolution_oracle,
    random_presentation,
    restriction_kernel,
    saturation_level,
    spans_equal,
)


H = builtin("H")
L = builtin("L")
D = builtin("D")
U = builtin("U")
IDENT = builtin("I")
DELTA = builtin("E")
ONES = builtin("ones")


def pair_of(row_text, col_text, p=2, q=2):
    return WordPair.from_strings(p, q, row_text, col_text)


def test_word_encoding():
    assert index_to_word(3, 2, 2) == (1, 1)
    assert index_to_word(6, 2, 3) == (0, 1, 1)
    with pytest.raises(ValueError):
        index_to_word(8, 2, 3)
    with pytest.raises(ValueError):
        index_to_word(-1, 2, 3)


def test_word_pair_validation():
    wp = WordPair(2, 3, (1, 0), (2, 1))
    assert len(wp) == 2
    assert list(wp.letters()) == [(1, 2), (0, 1)]
    with pytest.raises(ValueError):
        WordPair(2, 2, (0,), (0, 1))
    with pytest.raises(ValueError):
        WordPair(2, 2, (2,), (0,))
    with pytest.raises(ValueError):
        WordPair(2, 2, (0,), (2,))


def test_word_pair_from_strings():
    wp = pair_of("10", "01")
    assert wp.row_word == (1, 0)
    assert wp.col_word == (0, 1)
    assert pair_of("", "").row_word == ()
    with pytest.raises(ParseError) as info:
        pair_of("1x", "00")
    assert info.value.position == 1
    with pytest.raises(ParseError) as info:
        pair_of("10", "02")
    assert info.value.position == 1


def test_word_pairs_ordering():
    pairs = list(word_pairs(2, 2, 1))
    assert [(p.row_word, p.col_word) for p in pairs] == [
        ((0,), (0,)),
        ((0,), (1,)),
        ((1,), (0,)),
        ((1,), (1,)),
    ]
    assert len(list(word_pairs(2, 3, 2))) == 4 * 9


def test_presentation_validation():
    z = DenseMatrix.zeros(1, 1)
    good = {(s, t): z for s in range(2) for t in range(2)}
    Presentation(2, 2, [ONE], good)
    with pytest.raises(ValueError):
        Presentation(0, 2, [ONE], good)
    with pytest.raises(ValueError):
        Presentation(2, 2, [ONE], {(0, 0): z})
    with pytest.raises(ValueError):
        Presentation(2, 2, [ONE, ONE], good)  # 1x1 shifts for dim 2
    with pytest.raises(ValueError):
        Presentation(2, 2, [ONE], good, labels=["a", "b"])


def test_presentation_equality_ignores_labels():
    z = DenseMatrix.zeros(1, 1)
    shifts = {(s, t): z for s in range(2) for t in range(2)}
    a = Presentation(2, 2, [ONE], shifts, labels=["x"])
    b = Presentation(2, 2, [ONE], shifts, labels=["y"])
    assert a == b
    assert a.labels != b.labels


def test_builtin_contracts():
    assert H.init == (ONE, I)
    assert H.dim == 2 and (H.p, H.q) == (2, 2)
    assert L.init == (ONE, I, ONE, ZERO)
    assert D.shift(0, 1) == DenseMatrix.zeros(3, 3)
    assert D.shift(1, 0) == DenseMatrix.zeros(3, 3)
    assert U.dim == 12
    assert builtin("zero").dim == 0
    assert evaluate(builtin("diag1plusn"), pair_of("11", "11")) == GaussianRational(3)
    with pytest.raises(ValueError) as info:
        builtin("nope")
    assert "D, E, H, I, L, U, diag1plusn, ones, zero" in str(info.value)


def test_evaluate_simple_fixtures():
    for text in ("", "0", "1", "01", "111"):
        wp = pair_of(text, text)
        assert evaluate(IDENT, wp) == ONE
        assert evaluate(ONES, wp) == ONE
        assert evaluate(DELTA, wp) == (ONE if text == "" else ZERO)
    assert evaluate(IDENT, pair_of("01", "00")) == ZERO
    assert evaluate(ONES, pair_of("01", "00")) == ONE
    assert evaluate(zero_presentation(), pair_of("01", "00")) == ZERO
    with pytest.raises(ValueError):
        evaluate(H, WordPair(3, 3, (2,), (2,)))


def test_letter_one_is_least_significant():
    # row "11" is the number 3, column "01" is the number 2; the represented
    # value is the moment at 3 + 2
    assert evaluate(H, pair_of("11", "01")) == -ONE
    assert moment(5) == -ONE


def test_moment_presentation_matches_digit_sums():
    for s in range(64):
        for t in range(64):
            wp = WordPair(2, 2, index_to_word(s, 2, 6), index_to_word(t, 2, 6))
            assert evaluate(H, wp) == pow_i(tau(s + t))


def test_unfold_is_truncated_value_table():
    assert unfold(H, 0) == DenseMatrix.from_rows([[ONE]])
    for depth in range(7):
        assert unfold(H, depth) == hankel(moment, 0, 2**depth)
    with pytest.raises(ValueError):
        unfold(H, -1)
    assert unfold(zero_presentation(), 2) == DenseMatrix.zeros(4, 4)


def test_unfold_agrees_with_evaluate():
    rng = random.Random(60)
    for _ in range(12):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        pres = random_presentation(rng, p, q)
        depth = rng.randint(0, 3)
        table = unfold(pres, depth)
        for r in range(p**depth):
            for c in range(q**depth):
                wp = WordPair(
                    p, q, index_to_word(r, p, depth), index_to_word(c, q, depth)
                )
                assert table[r, c] == evaluate(pres, wp)


def test_product_matches_matrix_product_of_unfoldings():
    rng = random.Random(61)
    for _ in range(12):
        p, r, q = rng.randint(1, 3), rng.randint(1, 3), rng.randint(1, 3)
        pa = random_presentation(rng, p, r)
        pb = random_presentation(rng, r, q)
        prod = rec_product(pa, pb)
        assert (prod.p, prod.q) == (p, q)
        for depth in range(4):
            assert unfold(prod, depth) == unfold(pa, depth) @ unfold(pb, depth)
    with pytest.raises(ValueError):
        rec_product(random_presentation(rng, 2, 3), random_presentation(rng, 2, 3))


def test_sum_hadamard_scale_transpose_unfoldings():
    rng = random.Random(62)
    for _ in range(12):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        pa = random_presentation(rng, p, q)
        pb = random_presentation(rng, p, q)
        total = rec_sum(pa, pb)
        had = rec_hadamard(pa, pb)
        scaled = rec_scale(I, pa)
        flipped = rec_transpose(pa)
        for depth in range(4):
            ua, ub = unfold(pa, depth), unfold(pb, depth)
            assert unfold(total, depth) == ua + ub
            assert unfold(had, depth) == ua.entrywise_product(ub)
            assert unfold(scaled, depth) == ua.scale(I)
            assert unfold(flipped, depth) == ua.transpose()
    with pytest.raises(ValueError):
        rec_sum(random_presentation(rng, 2, 2), random_presentation(rng, 2, 3))
    with pytest.raises(ValueError):
        rec_hadamard(random_presentation(rng, 2, 2), random_presentation(rng, 3, 2))


def test_sum_with_zero_passes_through():
    z = zero_presentation()
    assert rec_sum(z, H) == H
    assert rec_sum(H, z) == H
    assert rec_convolution(z, H).dim == 0
    assert rec_convolution(H, z).dim == 0


def test_identity_fixtures_under_product():
    for depth in range(4):
        assert unfold(rec_product(IDENT, H), depth) == unfold(H, depth)
        assert unfold(rec_product(H, IDENT), depth) == unfold(H, depth)
    # the all-ones table squares to 2^n times itself
    sq = rec_product(ONES, ONES)
    for depth in range(5):
        assert unfold(sq, depth) == unfold(ONES, depth).scale(2**depth)


def test_convolution_against_brute_force():
    rng = random.Random(63)
    for _ in range(8):
        p, q = rng.randint(1, 2), rng.randint(1, 2)
        pa = random_presentation(rng, p, q)
        pb = random_presentation(rng, p, q)
        conv = rec_convolution(pa, pb)
        assert conv.dim == pa.dim * pb.dim + pa.dim
        for length in range(4):
            for wp in word_pairs(p, q, length):
                assert evaluate(conv, wp) == convolution_oracle(pa, pb, wp)


def test_convolution_delta_is_neutral():
    for conv in (rec_convolution(DELTA, H), rec_convolution(H, DELTA)):
        for length in range(5):
            for wp in word_pairs(2, 2, length):
                assert evaluate(conv, wp) == evaluate(H, wp)


def test_convolution_of_moments_with_itself():
    conv = rec_convolution(H, H)
    for length in range(4):
        for wp in word_pairs(2, 2, length):
            assert evaluate(conv, wp) == convolution_oracle(H, H, wp)


def test_sums_start_at_their_first_product(monkeypatch):
    adds = []
    add = GaussianRational.__add__

    def counting(x, y):
        adds.append((x, y))
        return add(x, y)

    monkeypatch.setattr(GaussianRational, "__add__", counting)
    # columns with one, three and no nonzero terms: 0 + 2 + 0 additions
    m = DenseMatrix.from_rows([[1, 2, 0], [0, I, 0], [0, 3, 0]])
    vec = [ONE, I, GaussianRational(5)]
    out = recmat._apply_action(recmat._columns(m), vec)
    assert out == [ONE, GaussianRational(16), ZERO]
    assert len(adds) == 2
    # each shift of ones . ones is 1 * 1 + 1 * 1: one addition per letter pair
    adds.clear()
    prod = rec_product(ONES, ONES)
    assert len(adds) == 4
    assert all(m.entries == (GaussianRational(2),) for _, m in prod.shift_items())
    # minimize's dot products: two terms are one addition, none are ZERO
    adds.clear()
    assert recmat._dot([ONE, I, GaussianRational(7)], [I, GaussianRational(3), ZERO]) == 4 * I
    assert recmat._dot([ONE], [ZERO]) is ZERO
    assert len(adds) == 1


def test_unfolded_small_values_are_shared():
    # H at depth 8 has 65,536 cells and four distinct values: one scalar
    # object per cell would hold 3.5 MB beside the 0.5 MB tuple of entries
    unfold(H, 2)
    tracemalloc.start()
    try:
        table = unfold(H, 8)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held < 1 << 20 and peak < 4 << 20, (held, peak)
    assert len(table.entries) == 4**8 and len(set(map(id, table.entries))) == 4


def test_minimize_preserves_function_and_shrinks():
    rng = random.Random(64)
    for _ in range(15):
        p, q = rng.randint(1, 3), rng.randint(1, 3)
        pres = random_presentation(rng, p, q)
        small = minimize(pres)
        assert small.dim <= pres.dim
        for depth in range(4):
            assert unfold(small, depth) == unfold(pres, depth)
        again = minimize(small)
        assert again.dim == small.dim


def test_minimize_fixtures():
    assert minimize(zero_presentation()).dim == 0
    assert minimize(DELTA).dim == 1
    assert minimize(H).dim == 2
    assert complexity(rec_scale(0, H)) == 0
    # two copies summed still need only the original dimension
    assert complexity(rec_sum(H, H)) == 2


def test_minimize_first_generator_is_the_function():
    rng = random.Random(65)
    for _ in range(10):
        pres = random_presentation(rng, 2, 2)
        small = minimize(pres)
        if small.dim == 0:
            assert unfold(pres, 2) == DenseMatrix.zeros(4, 4)
            continue
        for length in range(4):
            for wp in word_pairs(2, 2, length):
                assert evaluate(small, wp) == evaluate(pres, wp)


def test_triangular_factorization_of_moment_table():
    prod = rec_product(L, U)
    assert prod.dim == 48
    for depth in range(6):
        assert unfold(prod, depth) == unfold(H, depth)
    small = minimize(prod)
    assert small.dim == 2
    for depth in range(6):
        assert unfold(small, depth) == unfold(H, depth)


def test_factor_unfoldings_are_triangular():
    for depth in range(5):
        lo = unfold(L, depth)
        up = unfold(U, depth)
        assert lo.is_unit_lower_triangular()
        assert up.is_upper_triangular()
        assert lo @ up == unfold(H, depth)
        assert unfold(D, depth).is_diagonal()
        assert up.diagonal() == unfold(D, depth).diagonal()


def test_complexity_of_product_is_at_most_product():
    rng = random.Random(66)
    for _ in range(10):
        p, r, q = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        pa = random_presentation(rng, p, r)
        pb = random_presentation(rng, r, q)
        assert complexity(rec_product(pa, pb)) <= complexity(pa) * complexity(pb)


def test_same_function():
    assert same_function(H, minimize(H))
    assert same_function(rec_sum(H, DELTA), rec_sum(DELTA, H))
    assert not same_function(H, DELTA)
    assert not same_function(H, rec_scale(I, H))
    assert not same_function(H, builtin("L"))
    # different alphabets never represent the same function
    assert not same_function(H, random_presentation(random.Random(0), 2, 3))


def test_saturation_levels():
    assert saturation_level(zero_presentation(), 3) == 0
    assert saturation_level(DELTA, 3) == 0
    lvl = saturation_level(H, 4)
    assert lvl == 1
    assert lvl <= 2
    assert saturation_level(builtin("diag1plusn"), 3) == 1
    # a cap below the saturation point reports nothing
    assert saturation_level(builtin("diag1plusn"), 0) is None
    with pytest.raises(ValueError):
        saturation_level(H, -1)


def test_restriction_kernel_stabilizes_at_saturation():
    rng = random.Random(67)
    cases = [H, L, D, builtin("diag1plusn")]
    for _ in range(6):
        cases.append(random_presentation(rng, 2, 2))
    for pres in cases:
        lvl = saturation_level(pres, 6)
        assert lvl is not None
        deps_at_level = restriction_kernel(pres, lvl)
        deps = observation_kernel(pres)
        assert spans_equal(deps_at_level, deps, pres.dim)


def test_duplicated_generator_is_detected():
    # H with its first generator listed twice: shifted copies expand exactly
    # like the original, so g0 - g2 vanishes everywhere
    rows = {}
    for (s, t), m in H.shift_items():
        rows[(s, t)] = DenseMatrix.from_rows(
            [
                [m[0, 0], m[0, 1], m[0, 0]],
                [m[1, 0], m[1, 1], m[1, 0]],
                [ZERO, ZERO, ZERO],
            ]
        )
    dup = Presentation(2, 2, [ONE, I, ONE], rows)
    for depth in range(5):
        assert unfold(dup, depth) == unfold(H, depth)
    assert complexity(dup) == 2
    deps = observation_kernel(dup)
    assert spans_equal(deps, [[ONE, ZERO, -ONE]], 3)
    lvl = saturation_level(dup, 4)
    assert lvl == 1
    assert spans_equal(restriction_kernel(dup, lvl), deps, 3)


def test_unobservable_presentation_has_the_identity_kernel():
    # a zero init row leaves the observation span empty: every combination
    # of generators vanishes
    assert observation_kernel(rec_scale(0, H)) == [[ONE, ZERO], [ZERO, ONE]]
    assert observation_kernel(zero_presentation()) == []


# SHA-256 of the JSON text of each builtin, one entry per name builtin knows
BUILTIN_DIGESTS = {
    "D": "7905b402f2f486ba1bf10d5a93530dc149fd9e9422cba768b3e0b33c339eb5b7",
    "E": "7636442cf35fd26b62878b66d6465a96fd6805d86e59818d936797ec32385286",
    "H": "2862cbebea3a82934e0a97612e1a0f51fd739de72c5a1dd01b442c032a8ef32b",
    "I": "310761b1b1bf417f3421d27499ce7704c359b730b653b19ee9d24f9704ba1fcd",
    "L": "ebfe60ccdcb63298d356a12fe89876c84ac1226ce51e103a82733cb6aceeb7bf",
    "U": "14a0b233b7339802c87df2efbb399fe4a2c9b42b3f3e4ba52ad732d661bbeb93",
    "diag1plusn": "2ad340bc78840aa14abbf6498450d76a3fd5c95a1ee67f17f9e7c74066b110fb",
    "ones": "62b366f9bdd3dc9f17c11908f5bcda8faa8efc2308bfa800866c653c68a229ab",
    "zero": "cfd47fcccca2c67c8ba2b1a3c17b50f00c0af0bf74fbff5133ad9b6e36d79f28",
}


@pytest.mark.parametrize("name", sorted(BUILTIN_DIGESTS))
def test_builtin_bytes_are_pinned(name):
    text = builtin(name).to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == BUILTIN_DIGESTS[name]


def test_builtin_digests_cover_every_name():
    with pytest.raises(ValueError) as exc:
        builtin("nope")
    assert str(exc.value).endswith("known: " + ", ".join(sorted(BUILTIN_DIGESTS)))


# SHA-256 of the minimize JSON text of each builtin: the orbits, the
# quotient basis and the induced shifts all show in these bytes
MINIMIZE_DIGESTS = {
    "H": "627875a58720e4b5e74012ac89f11a795446277d7cdf1ba556d17b91e46bb456",
    "L": "a1d558d5784a05de35f67d8991d7b4c94f0a1cc26be8e3d14200cb6441a2d7f1",
    "D": "4242af2cd29a2c09b54634d102f11ac6adc589b5db0f24636d4aad3a12b81fa8",
    "I": "275b67ed152c5d765f586f77f2cf510bfcfdc63c7d85e1f973bfef4cf6d33a41",
    "E": "cf1da8d290b307feca81ccf825faa3754431c62c38f9a35d7ad547cbae0f96e7",
    "ones": "eff16bcc36fd9ad6e0b95af1890c5d70630972ffc327662dadbfb8ca2c948741",
    "zero": "cfd47fcccca2c67c8ba2b1a3c17b50f00c0af0bf74fbff5133ad9b6e36d79f28",
    "diag1plusn": "27d23b0f23f5d9c247db718cd0a281f4b0d262b28035ca1824b0b6c20755d3c9",
    "U": "2077ff1cb1a0f00b2ad73a8bc4ffcb321c1e5860a62bb5ea08f4fa93319c2374",
}


@pytest.mark.parametrize("name", sorted(MINIMIZE_DIGESTS))
def test_minimize_bytes_are_pinned(name):
    text = minimize(builtin(name)).to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == MINIMIZE_DIGESTS[name]


# SHA-256 of the JSON text of each binary operation on builtin pairs: the
# dim-0 operands, the row and column blocks of the sum and the rectangular
# init block of the convolution all show in these bytes
BINARY_OPS = {
    "sum": rec_sum,
    "product": rec_product,
    "hadamard": rec_hadamard,
    "convolve": rec_convolution,
}
BINARY_OP_DIGESTS = {
    ("sum", "H", "D"): "e2c7634d41eae1498eef8ff101126bb007b61de7fd3d883b18154d2669cefe95",
    ("sum", "L", "U"): "15b1fcb2700970f19060196f02469ce8a9ca56c12f8a375e7067b64de49c044e",
    ("sum", "E", "H"): "f3344c280c3f7dcff37863c8d590c30fb1a4e3d47c6e80fa6c320d9297be6ae6",
    ("sum", "H", "zero"): "2862cbebea3a82934e0a97612e1a0f51fd739de72c5a1dd01b442c032a8ef32b",
    ("sum", "zero", "H"): "2862cbebea3a82934e0a97612e1a0f51fd739de72c5a1dd01b442c032a8ef32b",
    ("sum", "diag1plusn", "ones"): "e65fa69ce21f1ffed8bd45442b7de4492cef4edff8cb7b0bd0302347165b9ede",
    ("product", "H", "D"): "1c66c59dad19989593474c64ef8d1df60b9b648aebe950cbd69c15e9aff9b721",
    ("product", "L", "U"): "05516d120747648f3b8985333a923bcf37da3fecb2a3ca77c3df112ba95d0e1d",
    ("product", "E", "H"): "846bc39a86b2e7a511478f54b0d6c835e81056da53d3cf6eab4740cb18cd5f12",
    ("product", "H", "zero"): "cfd47fcccca2c67c8ba2b1a3c17b50f00c0af0bf74fbff5133ad9b6e36d79f28",
    ("product", "zero", "H"): "cfd47fcccca2c67c8ba2b1a3c17b50f00c0af0bf74fbff5133ad9b6e36d79f28",
    ("product", "diag1plusn", "ones"): "53022ef9922e9debc38f47b9f423e7b7aba2853f415841bf86cc9a3865faf4a6",
    ("hadamard", "H", "D"): "d17a94df0dccdd646e98751da2f997b0fa8f0eb614e7b8d0858ee80e8c76066d",
    ("hadamard", "L", "U"): "2051cf2696bc310f2bb8725ac98cf6a3b37e37c3928da6993fcd0f7198e2e399",
    ("hadamard", "E", "H"): "3d2c5726ce2c109e10b000e483d9e586c75b766e78d78fe2d84e6eb15c03a1cb",
    ("hadamard", "H", "zero"): "cfd47fcccca2c67c8ba2b1a3c17b50f00c0af0bf74fbff5133ad9b6e36d79f28",
    ("hadamard", "zero", "H"): "cfd47fcccca2c67c8ba2b1a3c17b50f00c0af0bf74fbff5133ad9b6e36d79f28",
    ("hadamard", "diag1plusn", "ones"): "36b001da6e73386cbba5adafd4855e2010dc4c64a7d2bbfde764b3071b229a99",
    ("convolve", "H", "D"): "7a1603ddb62c7a8ba3a8345f8d131e570419abfec7839760e8f1a09329d2faae",
    ("convolve", "L", "U"): "cdc8afefc5a97bc774eb2c7438f59e16a56964258e957a5e3f3b0748990664f7",
    ("convolve", "E", "H"): "8a83d89adaa87735ffc07de4386350a7337385e46d29d933a95ea3e6d69f78e9",
    ("convolve", "H", "zero"): "cfd47fcccca2c67c8ba2b1a3c17b50f00c0af0bf74fbff5133ad9b6e36d79f28",
    ("convolve", "zero", "H"): "cfd47fcccca2c67c8ba2b1a3c17b50f00c0af0bf74fbff5133ad9b6e36d79f28",
    ("convolve", "diag1plusn", "ones"): "c3d540218275b4a28168e9836bdba63cbd1eda6797c25824a1ad06f74082dbbb",
}


@pytest.mark.parametrize("op, left, right", sorted(BINARY_OP_DIGESTS))
def test_binary_op_bytes_are_pinned(op, left, right):
    text = BINARY_OPS[op](builtin(left), builtin(right)).to_json_text()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == BINARY_OP_DIGESTS[(op, left, right)]


def test_minimize_bytes_of_the_lu_product():
    # L.U represents H, and its minimal presentation has the same bytes
    text = minimize(rec_product(L, builtin("U"))).to_json_text()
    assert hashlib.sha256(text.encode()).hexdigest() == MINIMIZE_DIGESTS["H"]


def test_json_round_trip():
    for pres in (H, L, D, zero_presentation(), builtin("diag1plusn")):
        back = Presentation.from_json_text(pres.to_json_text())
        assert back == pres
        assert back.labels == pres.labels
    # byte-stable serialization
    assert H.to_json_text() == H.to_json_text()


def test_json_rejects_malformed_input():
    good = H.to_json_dict()
    with pytest.raises(ParseError):
        Presentation.from_json_text("{not json")
    with pytest.raises(ParseError) as info:
        Presentation.from_json_dict({**good, "extra": 1})
    assert "unknown presentation fields" in str(info.value)
    missing = dict(good)
    del missing["init"]
    with pytest.raises(ParseError) as info:
        Presentation.from_json_dict(missing)
    assert "missing presentation fields" in str(info.value)
    with pytest.raises(ParseError):
        Presentation.from_json_dict({**good, "p": True})
    with pytest.raises(ParseError):
        Presentation.from_json_dict({**good, "init": ["1"]})
    bad_shifts = {**good, "shifts": {**good["shifts"], "x,y": good["shifts"]["0,0"]}}
    with pytest.raises(ParseError):
        Presentation.from_json_dict(bad_shifts)
    short_row = dict(good)
    short_row["shifts"] = {**good["shifts"], "0,0": [["1"], ["0"]]}
    with pytest.raises(ParseError):
        Presentation.from_json_dict(short_row)
    with pytest.raises(ParseError):
        Presentation.from_json_dict([1, 2])


def test_diagonal_length_function():
    pres = builtin("diag1plusn")
    for length in range(5):
        for wp in word_pairs(2, 2, length):
            expected = (
                GaussianRational(1 + length)
                if wp.row_word == wp.col_word
                else ZERO
            )
            assert evaluate(pres, wp) == expected
    for depth in range(7):
        assert unfold(pres, depth) == DenseMatrix.identity(2**depth).scale(1 + depth)


def test_diagonal_reciprocal_has_unbounded_restriction_rank():
    # unfold(diag1plusn, j) is (1 + j) I, so its inverse table has the value
    # 1/(1 + |U|) on the diagonal
    for j in range(5):
        recip = GaussianRational(Fraction(1, 1 + j))
        inv = DenseMatrix.identity(2**j).scale(recip)
        assert inv @ unfold(builtin("diag1plusn"), j) == DenseMatrix.identity(2**j)
    # restricting that reciprocal table by a diagonal prefix of length m gives
    # the function U -> 1/(1 + m + |U|); sample the restrictions on all
    # diagonal pairs of length <= d. Any presentation of dimension D would
    # bound the rank of this matrix by D for every d, but the rank is d + 1
    # and keeps growing, so no presentation of the reciprocal exists.
    def restriction_rank(d):
        rows = []
        for m in range(6):
            row = []
            for length in range(d + 1):
                value = GaussianRational(Fraction(1, 1 + m + length))
                row.extend([value] * (2**length))
            rows.append(row)
        return rref(DenseMatrix.from_rows(rows))[1]

    ranks = [restriction_rank(d) for d in range(6)]
    assert ranks == [1, 2, 3, 4, 5, 6]
