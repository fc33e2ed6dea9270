"""Acceptance gate: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines. Every
comparison is exact equality; the only tolerances anywhere are the two wall
clock budgets, and those are generous.
"""

import contextlib
import io
import random
import time

from recqi import (
    GAUSSIAN_UNITS,
    GaussianRational,
    WordPair,
    bareiss_leading_minors,
    beta_coeffs,
    builtin,
    det_field,
    evaluate,
    folding_product,
    gamma_coeffs,
    hankel,
    hankel_det_table,
    jfraction_from_moments,
    mat_mul,
    minimize,
    moment,
    pow_i,
    rec_convolution,
    rec_hadamard,
    rec_product,
    rec_sum,
    rec_transpose,
    tau,
    u_formula,
    unfold,
    v_formula,
)
from recqi.cli import main
from oracles import (
    convolution_oracle,
    det_cofactor,
    entrywise_product,
    entrywise_sum,
    hankel_ratio_check,
    index_to_word,
    leading_minors_by_elimination,
    moment_sequence,
    random_presentation,
    word_pairs,
)


def report(number: int, ok: bool, detail: str) -> bool:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def test_criterion_1_determinant_identity():
    start = time.monotonic()
    minors = bareiss_leading_minors(hankel(moment, 0, 301))
    ok = all(minors[n + 1] == folding_product(n) for n in range(301))
    for n in range(9):
        ok = ok and det_field(hankel(moment, 0, n + 1)) == folding_product(n)
    for n in range(4):
        ok = ok and det_cofactor(hankel(moment, 0, n + 1)) == folding_product(n)
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120.0
    assert report(
        1,
        ok,
        "Hankel det of order n+1 equals the folding product for n <= 300, "
        f"with field and cofactor spot checks, in {elapsed:.1f}s",
    )


def test_criterion_2_moment_table_fidelity():
    h = builtin("H")
    table = unfold(h, 8)
    ok = all(
        table[s, t] == pow_i(tau(s + t)) for s in range(256) for t in range(256)
    )
    rng = random.Random(801)
    for _ in range(200):
        depth = rng.randint(0, 10)
        s = rng.randrange(2**depth)
        t = rng.randrange(2**depth)
        wp = WordPair(2, 2, index_to_word(s, 2, depth), index_to_word(t, 2, depth))
        ok = ok and evaluate(h, wp) == pow_i(tau(s + t))
    for n in range(7):
        ok = ok and unfold(h, n) == hankel(moment, 0, 2**n)
    assert report(
        2,
        ok,
        "builtin moment table evaluates to i^tau(s+t) for all s,t < 256 and "
        "unfolds to the Hankel blocks for depths <= 6",
    )


def test_criterion_3_triangular_decomposition():
    from recqi.cli import lu_report

    rep = lu_report(6)
    ok = rep.all_match and rep.total == 7
    assert report(
        3,
        ok,
        "lower times upper equals the moment table through size 64 with "
        "exact shapes and diagonal product equal to det and folding product",
    )


def test_criterion_4_presentation_calculus():
    small = minimize(rec_product(builtin("L"), builtin("U")))
    ok = small.dim == 2
    for depth in range(6):
        ok = ok and unfold(small, depth) == unfold(builtin("H"), depth)

    rng = random.Random(404)
    used = 0
    for _ in range(25):
        p, q, r = rng.randint(1, 2), rng.randint(1, 2), rng.randint(1, 2)
        pa = random_presentation(rng, p, q)
        pb = random_presentation(rng, p, q)
        pc = random_presentation(rng, q, r)
        pd = random_presentation(rng, q, r)
        used += 4
        total = rec_sum(pa, pb)
        had = rec_hadamard(pa, pb)
        flip = rec_transpose(pa)
        prod_one = rec_product(pa, pc)
        prod_two = rec_product(pb, pd)
        for depth in range(5):
            ua, ub = unfold(pa, depth), unfold(pb, depth)
            ok = ok and unfold(total, depth) == entrywise_sum(ua, ub)
            ok = ok and unfold(had, depth) == entrywise_product(ua, ub)
            ok = ok and unfold(flip, depth) == ua.transpose()
            ok = ok and unfold(prod_one, depth) == mat_mul(ua, unfold(pc, depth))
            ok = ok and unfold(prod_two, depth) == mat_mul(ub, unfold(pd, depth))

    for _ in range(10):
        pa = random_presentation(rng, 2, 2, max_dim=2)
        pb = random_presentation(rng, 2, 2, max_dim=2)
        conv = rec_convolution(pa, pb)
        for length in range(4):
            for wp in word_pairs(2, 2, length):
                ok = ok and evaluate(conv, wp) == convolution_oracle(pa, pb, wp)

    assert report(
        4,
        ok,
        "triangular product minimizes to dimension 2 with the moment-table "
        f"unfoldings; homomorphism suite over {used} random presentations at "
        "depths <= 4 and convolution oracle at depths <= 3 all exact",
    )


def test_criterion_5_continued_fraction_forms():
    start = time.monotonic()
    depth = 256
    jf = jfraction_from_moments(moment_sequence(2 * depth + 1), depth)
    ok = all(jf.u_coeff(n) == u_formula(n) for n in range(100))
    ok = ok and all(jf.v_coeff(n) == v_formula(n) for n in range(1, 257))
    # the dets come from the elimination, not the recurrence that gives v
    dets = leading_minors_by_elimination(hankel(moment, 0, 66))
    pairs = hankel_ratio_check(dets, jfraction_from_moments(moment_sequence(131), 65))
    ok = ok and len(pairs) >= 64
    ok = ok and all(v == ratio for v, ratio in pairs[:64])
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    assert report(
        5,
        ok,
        "continued-fraction u matches (-1)^n i for n < 100, v matches its "
        "self-similar form through 256, determinant ratios agree through "
        f"order 64, in {elapsed:.1f}s",
    )


def test_criterion_6_difference_hankel_units():
    allowed = {GaussianRational(a, b) for a in (-1, 0, 1) for b in (-1, 0, 1)}
    beta = beta_coeffs(1024)
    gamma = gamma_coeffs(1024)
    ok = all(beta.coefficient(n) in allowed for n in range(1, 1025))
    ok = ok and all(gamma.coefficient(n) in allowed for n in range(2, 1025))
    beta_long = beta_coeffs(1 + 2 * 64)
    gamma_long = gamma_coeffs(2 + 2 * 64)
    beta_dets = hankel_det_table(beta_long.coefficient, 1, 64)
    gamma_dets = hankel_det_table(gamma_long.coefficient, 2, 64)
    ok = ok and all(d in GAUSSIAN_UNITS for d in beta_dets[1:])
    ok = ok and all(d in GAUSSIAN_UNITS for d in gamma_dets[1:])
    assert report(
        6,
        ok,
        "difference coefficients stay in {0,±1,±i,±1±i} "
        "through index 1024; Hankel determinants of orders 1..64 are units "
        "at start offsets 1 and 2 (offsets are an interpretation)",
    )


def test_criterion_7_sign_prefix_identity():
    from recqi import SignSequence
    from recqi.cli import determinant_report

    rng = random.Random(0)
    ok = True
    for _ in range(20):
        sigma = SignSequence([rng.choice((1, -1)) for _ in range(10)])
        ok = ok and determinant_report(128, sigma).all_match
    assert report(
        7,
        ok,
        "determinant identity holds for n <= 128 under 20 random sign "
        "prefixes of length 10 (conjecture evidence, not proof)",
    )


def run_captured(argv, tmp_path, outputs):
    # run one command with stdout/stderr captured and any -o files collected
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = tuple((tmp_path / name).read_bytes() for name in outputs)
    for name in outputs:
        (tmp_path / name).unlink()
    return code, out.getvalue(), err.getvalue(), files


def test_criterion_8_cli_determinism(tmp_path):
    commands = [
        (["verify-det", "--max-n", "24"], []),
        (["verify-det", "--max-n", "16", "--sigma=-+-"], []),
        (["verify-lu", "--depth", "4"], []),
        (["jfraction", "--count", "24"], []),
        (["beta-hankel", "--max-order", "16"], []),
        (["gamma-hankel", "--max-order", "16"], []),
        (
            [
                "conjecture-check",
                "--trials",
                "4",
                "--prefix-len",
                "6",
                "--max-n",
                "32",
                "--seed",
                "3",
            ],
            [],
        ),
        (["recmat", "eval", "builtin:H", "11", "01"], []),
        (["recmat", "eval", "builtin:H", "11", "01", "--format", "json"], []),
        (["recmat", "unfold", "builtin:H", "--depth", "3"], []),
        (["recmat", "unfold", "builtin:L", "--depth", "2", "--format", "json"], []),
        (["recmat", "sum", "builtin:H", "builtin:E"], []),
        (["recmat", "hadamard", "builtin:H", "builtin:H"], []),
        (["recmat", "convolve", "builtin:E", "builtin:H"], []),
        (["recmat", "transpose", "builtin:L"], []),
        (["recmat", "product", "builtin:L", "builtin:U", "-o", "prod.json"], ["prod.json"]),
        (["recmat", "minimize", "builtin:U", "-o", "min.json"], ["min.json"]),
    ]
    ok = True
    for argv, outputs in commands:
        resolved = [
            a if not a.endswith(".json") or a.startswith("builtin:") else str(tmp_path / a)
            for a in argv
        ]
        first = run_captured(resolved, tmp_path, outputs)
        second = run_captured(resolved, tmp_path, outputs)
        ok = ok and first == second
    assert report(
        8,
        ok,
        f"all {len(commands)} command invocations produced byte-identical "
        "stdout, stderr, exit codes, and output files across two runs",
    )
