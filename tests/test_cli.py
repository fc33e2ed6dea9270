"""End-to-end command tests: exit codes, table contents, file outputs."""

import hashlib
import json
import os
import random
import re
import resource
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from recqi import (
    ONE,
    DegeneracyError,
    DenseMatrix,
    GaussianRational,
    Presentation,
    WordPair,
    builtin,
    evaluate,
    rec_convolution,
    rec_product,
    same_function,
)
from recqi import cli, jacobi, recmat, thuemorse
from recqi.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_det_small_table(capsys):
    code, out, err = run_cli(capsys, "verify-det", "--max-n", "3")
    assert code == 0
    assert out.splitlines() == [
        "n,det_order_n_plus_1,folding_product,match",
        "0,1,1,yes",
        "1,1+1i,1+1i,yes",
        "2,2i,2i,yes",
        "3,2+2i,2+2i,yes",
    ]
    assert err.strip() == "4/4 rows match"


def test_verify_det_with_sign_prefix(capsys):
    # leading-minus prefixes need the = form, or argparse reads them as flags
    code, out, err = run_cli(capsys, "verify-det", "--max-n", "8", "--sigma=-+-")
    assert code == 0
    assert len(out.splitlines()) == 10
    assert err.strip() == "9/9 rows match"
    code, out, err = run_cli(capsys, "verify-det", "--max-n", "8", "--sigma", "+-")
    assert code == 0
    assert err.strip() == "9/9 rows match"


def test_verify_det_rejects_bad_arguments(capsys):
    code, out, err = run_cli(capsys, "verify-det", "--max-n", "3", "--sigma", "+x")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv, lines, summary",
    [
        (
            ["verify-det", "--max-n", "0"],
            ["n,det_order_n_plus_1,folding_product,match", "0,1,1,yes"],
            "1/1 rows match",
        ),
        (
            ["beta-hankel", "--max-order", "0"],
            ["order,beta_det,expected,match"],
            "0/0 rows match",
        ),
        (
            ["gamma-hankel", "--max-order", "0"],
            ["order,gamma_det,expected,match"],
            "0/0 rows match",
        ),
        (
            ["jfraction", "--count", "0"],
            ["n,u_computed,u_formula,v_computed,v_formula,match", "0,1i,1i,,,yes"],
            "1/1 rows match",
        ),
        (
            ["conjecture-check", "--trials", "0"],
            ["trial,sigma,checked_n,match"],
            "0/0 rows match",
        ),
    ],
)
def test_smallest_tables(capsys, argv, lines, summary):
    # one row or none: the header, the summary and exit 0 still come out
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == "\n".join(lines) + "\n"
    assert err == summary + "\n"


def test_verify_lu_table(capsys):
    code, out, err = run_cli(capsys, "verify-lu", "--depth", "3")
    assert code == 0
    assert out.splitlines() == [
        "n,diag_product,folding_product,match",
        "0,1,1,yes",
        "1,1+1i,1+1i,yes",
        "2,2+2i,2+2i,yes",
        "3,8+8i,8+8i,yes",
    ]
    assert err.strip() == "4/4 rows match"


@pytest.mark.parametrize(
    "argv, summary, digest",
    [
        (
            ("verify-lu", "--depth", "8"),
            "9/9 rows match\n",
            "ea12fafbb34b0fc7a1a2224e2f99d66bbc6aa57c3010e5e557072bbbeb1344b9",
        ),
        (
            ("recmat", "unfold", "builtin:U", "--depth", "7"),
            "",
            "0f1f5b0727cc474c5deb49de41bb58566a47b38ab980a0431674dcaea54a8d4d",
        ),
    ],
    ids=["verify-lu", "unfold-U"],
)
def test_presentation_commands_keep_their_bytes(capsys, argv, summary, digest):
    # digests recorded when unfolding and mat_mul summed GaussianRational
    # scalars one product at a time
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == summary
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_lu_depth_contract(capsys):
    code, out, err = run_cli(capsys, "verify-lu", "--depth", "9")
    assert (code, out, err) == (2, "", "error: --depth 9 is more than the cap of 8\n")


def test_jfraction_table(capsys, monkeypatch):
    code, out, err = run_cli(capsys, "jfraction", "--count", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,u_computed,u_formula,v_computed,v_formula,match"
    assert lines[1] == "0,1i,1i,,,yes"
    assert lines[2] == "1,-1i,-1i,1+1i,1+1i,yes"
    assert lines[4] == "3,-1i,-1i,-1i,-1i,yes"
    assert lines[9] == "8,1i,1i,1i,1i,yes"
    assert err.strip() == "9/9 rows match"

    # the digit-sum moments never degenerate, but a degenerate table exits 1
    def degenerate(moments, depth):
        raise DegeneracyError("leading principal minor of order 3 vanishes", level=3)

    monkeypatch.setattr(jacobi, "jfraction_from_moments", degenerate)
    code, out, err = run_cli(capsys, "jfraction", "--count", "8")
    message = "degenerate: leading principal minor of order 3 vanishes\n"
    assert (code, out, err) == (1, "", message)


def test_jfraction_at_the_count_cap(capsys):
    # digest recorded when the re-expansion went through the convergents
    code, out, err = run_cli(capsys, "jfraction", "--count", "1000")
    assert code == 0
    assert err == "1001/1001 rows match\n"
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "bf0b5e8252c9e4484d4cfab85070e8271b66180c3834a12491dd6e1ab9dfe9cd"
    )


def test_beta_hankel_table(capsys):
    code, out, err = run_cli(capsys, "beta-hankel", "--max-order", "6")
    assert code == 0
    assert out.splitlines() == [
        "order,beta_det,expected,match",
        "1,1,unit,yes",
        "2,1i,unit,yes",
        "3,1i,unit,yes",
        "4,-1,unit,yes",
        "5,-1,unit,yes",
        "6,-1i,unit,yes",
    ]


def test_beta_hankel_offset_zero_is_not_unit(capsys):
    code, out, err = run_cli(capsys, "beta-hankel", "--max-order", "1", "--offset", "0")
    assert code == 1
    assert out.splitlines() == [
        "order,beta_det,expected,match",
        "1,-1/2-1/2i,unit,no",
    ]
    assert err.strip() == "0/1 rows match"


@pytest.mark.parametrize(
    "command, summary, digest",
    [
        (
            "beta-hankel",
            "11/80 rows match",
            "530850df03eddb16d64e817e91bf3b8daff4e3c51b1c230c7d81033ca76cccb2",
        ),
        (
            "gamma-hankel",
            "0/80 rows match",
            "064ca951bb76791c0073746f4c859483dcb164da8cbc29bbe0d453134ecc638f",
        ),
    ],
    ids=["beta", "gamma"],
)
def test_degenerate_tables_keep_their_bytes(capsys, command, summary, digest):
    # offset 0 has vanishing minors; the digests were recorded when each order
    # from the first of them on took its own fraction-free determinant
    code, out, err = run_cli(capsys, command, "--max-order", "80", "--offset", "0")
    assert code == 1
    assert err == summary + "\n"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_gamma_hankel_table(capsys):
    code, out, err = run_cli(capsys, "gamma-hankel", "--max-order", "4")
    assert code == 0
    assert out.splitlines() == [
        "order,gamma_det,expected,match",
        "1,1,unit,yes",
        "2,1,unit,yes",
        "3,1i,unit,yes",
        "4,1i,unit,yes",
    ]


def test_conjecture_check_fixed_seed(capsys):
    code, out, err = run_cli(
        capsys,
        "conjecture-check",
        "--trials",
        "2",
        "--prefix-len",
        "4",
        "--max-n",
        "16",
        "--seed",
        "7",
    )
    assert code == 0
    assert out.splitlines() == [
        "trial,sigma,checked_n,match",
        "0,-+-+,16,yes",
        "1,++-+,16,yes",
    ]
    assert err.strip() == "2/2 rows match"


def test_eval_builtin(capsys):
    code, out, err = run_cli(capsys, "recmat", "eval", "builtin:H", "11", "01")
    assert code == 0
    assert out == "-1\n"


def test_eval_json_format(capsys):
    code, out, err = run_cli(
        capsys, "recmat", "eval", "builtin:H", "11", "01", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"value": "-1"}


def test_eval_rejects_bad_word(capsys):
    code, out, err = run_cli(capsys, "recmat", "eval", "builtin:H", "12", "00")
    assert code == 2
    assert err.startswith("error:")


def test_eval_rejects_non_ascii_digits(capsys):
    # Arabic-Indic "10" once read as the word 10
    code, out, err = run_cli(
        capsys, "recmat", "eval", "builtin:H", "\u0661\u0660", "01"
    )
    assert (code, out) == (2, "")
    assert err == "error: row word letter must be a digit (position 0)\n"


def test_eval_refuses_vector_parts_past_the_cap(capsys, tmp_path):
    # dim 12, p = q = 1, every init and shift entry a/b + (c/d)i with a, c in
    # 1..9 and b, d in 2..9: the parts grow by about 15 bits a letter, so
    # without the cap 1000 letters ran for minutes and then hit CPython's
    # 4300-digit limit on int-to-str
    rng = random.Random(5)

    def entry():
        re_ = Fraction(rng.randint(1, 9), rng.randint(2, 9))
        return GaussianRational(re_, Fraction(rng.randint(1, 9), rng.randint(2, 9)))

    dim = 12
    init = [entry() for _ in range(dim)]
    shift = DenseMatrix(dim, dim, [entry() for _ in range(dim * dim)])
    path = tmp_path / "dense.json"
    path.write_text(Presentation(1, 1, init, {(0, 0): shift}).to_json_text())
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "recmat", "eval", str(path), "0" * 1000, "0" * 1000)
    assert time.perf_counter() - start < 5
    assert (code, out) == (2, "")
    assert re.fullmatch(
        r"error: the vector after letter \d+ has an entry of \d+ bits,"
        r" more than the cap of 4096\n",
        err,
    )
    # a value that stays bounded passes any length: 1/2 in every entry keeps
    # the vector at (1, 1)
    half = DenseMatrix(2, 2, [Fraction(1, 2)] * 4)
    path.write_text(Presentation(1, 1, [ONE, ONE], {(0, 0): half}).to_json_text())
    word = "0" * 20000
    assert run_cli(capsys, "recmat", "eval", str(path), word, word) == (0, "1\n", "")
    # p = 2, q = 1, dim 1, shifts 1/2 and 1/3: n zeros give 1/2^n, whose
    # denominator has n + 1 bits; the content 3 divided out of each letter
    # hides none of them from the cap
    shifts = {(0, 0): DenseMatrix(1, 1, [Fraction(1, 2)])}
    shifts[1, 0] = DenseMatrix(1, 1, [Fraction(1, 3)])
    path.write_text(Presentation(2, 1, [ONE], shifts).to_json_text())
    code, out, err = run_cli(capsys, "recmat", "eval", str(path), "0" * 4095, "0" * 4095)
    assert (code, out, err) == (0, f"1/{2**4095}\n", "")
    code, out, err = run_cli(capsys, "recmat", "eval", str(path), "0" * 4096, "0" * 4096)
    assert (code, out) == (2, "")
    assert err == (
        "error: the vector after letter 4096 has an entry of 4097 bits,"
        " more than the cap of 4096\n"
    )


def big_odd(rng, bits):
    """A random odd int of exactly `bits` bits."""
    return rng.getrandbits(bits) | 1 << (bits - 1) | 1


def test_unfold_refuses_levels_past_the_cap(capsys, tmp_path):
    # p = q = 2, dim 2, every shift entry 1/d with a distinct 3,000-bit d:
    # depths 2-5 ran 0.3-84 s, then hit CPython's 4300-digit limit on
    # int-to-str, and depth 6 ran for minutes
    rng = random.Random(11)
    shifts = {
        (s, t): DenseMatrix(2, 2, [Fraction(1, big_odd(rng, 3000)) for _ in range(4)])
        for s in range(2)
        for t in range(2)
    }
    path = tmp_path / "recip.json"
    path.write_text(Presentation(2, 2, [1, 1], shifts).to_json_text())
    for depth in ("1", "6"):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "recmat", "unfold", str(path), "--depth", depth)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert re.fullmatch(
            r"error: the level at depth 1 has an entry of \d+ bits,"
            r" more than the cap of 4096\n",
            err,
        )


def test_unfold_divides_the_content_of_its_levels(capsys, tmp_path):
    # shifts that square to the identity: generator 0 is 1 at even lengths
    # and 2^-460 at odd ones, but the lcm of the shift denominators is 2^460,
    # so without the content divided out depth 9 reaches a 4140-bit scale
    d = 2**460
    swap = DenseMatrix(2, 2, [0, d, Fraction(1, d), 0])
    pres = Presentation(2, 2, [1, 1], {(s, t): swap for s in range(2) for t in range(2)})
    path = tmp_path / "swap.json"
    path.write_text(pres.to_json_text())
    code, out, err = run_cli(capsys, "recmat", "unfold", str(path), "--depth", "9")
    assert (code, err) == (0, "")
    assert out == (",".join([f"1/{d}"] * 512) + "\n") * 512
    code, out, err = run_cli(capsys, "recmat", "unfold", str(path), "--depth", "8")
    assert (code, out, err) == (0, (",".join(["1"] * 256) + "\n") * 256, "")


def test_unfold_refuses_levels_past_the_size_cap(capsys, tmp_path):
    # the file above with a 2,040-bit d: depth 9 ran 4.3 s and held 350 MB,
    # depth 8 held 64 MB; the level below each refusal, measured, holds ints
    # of up to 4080 bits
    d = big_odd(random.Random(13), 2040)
    swap = DenseMatrix(2, 2, [0, d, Fraction(1, d), 0])
    pres = Presentation(2, 2, [1, 1], {(s, t): swap for s in range(2) for t in range(2)})
    path = tmp_path / "swap.json"
    path.write_text(pres.to_json_text())
    for depth, gens in (("9", 2), ("8", 1)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "recmat", "unfold", str(path), "--depth", depth)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert re.fullmatch(
            rf"error: the level at depth 8: 65536 cells x {gens} generators x 81\d\d bits"
            rf" is more than the cap of {recmat.MAX_UNFOLD_BITS}\n",
            err,
        )
    code, out, err = run_cli(capsys, "recmat", "unfold", str(path), "--depth", "7")
    assert (code, err) == (0, "")
    assert out == (",".join([f"1/{d}"] * 128) + "\n") * 128


def test_every_builtin_unfolds_to_the_depth_caps():
    # the deepest level the cell and value caps admit: U to 8, the others to 9
    for name in ("D", "E", "H", "I", "L", "U", "diag1plusn", "ones", "zero"):
        pres = builtin(name)
        depth = 9 if 4**9 * max(pres.dim, 1) <= cli.MAX_UNFOLD_VALUES else 8
        assert depth == (8 if name == "U" else 9)
        assert recmat.unfold(pres, depth).rows == 2**depth


def test_eval_and_unfold_refuse_lifts_past_the_cap(capsys, tmp_path):
    # dim 64, every entry 1, eight diagonal entries 1/d with distinct
    # 13,000-bit d: every entry scaled by their lcm peaked at 70 MB
    rng = random.Random(12)
    entries = [1] * 64 * 64
    for k in range(8):
        entries[k * 65] = Fraction(1, big_odd(rng, 13000))
    pres = Presentation(1, 1, [1] * 64, {(0, 0): DenseMatrix(64, 64, entries)})
    path = tmp_path / "lift.json"
    path.write_text(pres.to_json_text())
    # the lcm is refused at its first denominator of 13,000 bits
    message = (
        "error: the shifts have 4096 nonzero entries over a common denominator"
        " of at least 13000 bits: 4096 x 13000 is more than the cap of 4194304\n"
    )
    for argv in (("eval", str(path), "0", "0"), ("unfold", str(path), "--depth", "1")):
        start = time.perf_counter()
        assert run_cli(capsys, "recmat", *argv) == (2, "", message)
        assert time.perf_counter() - start < 1
    # the same cap on the initial values, which `evaluate` scales as well
    init = [Fraction(1, big_odd(rng, 13000)) for _ in range(8)] + [1] * 320
    pres = Presentation(1, 1, init, {(0, 0): DenseMatrix.identity(328)})
    with pytest.raises(ValueError, match="^the initial values have 328 nonzero"):
        evaluate(pres, WordPair(1, 1, [0], [0]))


def test_eval_refuses_words_past_the_term_cap(capsys, tmp_path):
    # p = q = 1, dense dim 256, every entry 1/256: M^2 = M and every value is
    # 1, but each letter costs 65,536 products, about 0.1 s
    avg = DenseMatrix(256, 256, [Fraction(1, 256)] * 256**2)
    path = tmp_path / "avg.json"
    path.write_text(Presentation(1, 1, [1] * 256, {(0, 0): avg}).to_json_text())
    assert run_cli(capsys, "recmat", "eval", str(path), "00", "00") == (0, "1\n", "")
    word = "0" * 16
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "recmat", "eval", str(path), word, word)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        "error: a word of 16 letters on shifts of up to 65792 terms:"
        " 16 x 65792 is more than the cap of 1048576\n"
    )
    # a large common denominator L weighs every term: two 2-cycles d, 1/d and
    # e, 1/e, with 2000- and 3000-bit d and e, keep generator 0 at 1 and 1/d,
    # but L = d * e has 5000 bits, so 4 entries and 4 generators weigh
    # (5000 + 4096)^2 // 4096^2 = 4 times
    rng = random.Random(13)
    d, e = big_odd(rng, 2000), big_odd(rng, 3000)
    entries = [0, d, 0, 0, Fraction(1, d), 0, 0, 0]
    entries += [0, 0, 0, e, 0, 0, Fraction(1, e), 0]
    pres = Presentation(1, 1, [1, 1, 0, 0], {(0, 0): DenseMatrix(4, 4, entries)})
    assert evaluate(pres, WordPair(1, 1, [0] * 2, [0] * 2)) == 1
    with pytest.raises(ValueError, match="^a word of 32769 letters on shifts of up to 32 "):
        evaluate(pres, WordPair(1, 1, [0] * 32769, [0] * 32769))


def test_eval_term_cap_admits_long_words(capsys, tmp_path):
    # the longest admitted builtin:U word, and a cyclic permutation of dim 256
    # (256 entries and 256 generators: 2048 letters) at the cap
    word = "1" * (recmat.MAX_EVAL_TERMS // 42)
    assert run_cli(capsys, "recmat", "eval", "builtin:U", word, word) == (0, "1-1i\n", "")
    word += "1"
    assert run_cli(capsys, "recmat", "eval", "builtin:U", word, word) == (
        2,
        "",
        "error: a word of 24967 letters on shifts of up to 42 terms:"
        " 24967 x 42 is more than the cap of 1048576\n",
    )
    dim = 256
    shift = [int(r == (c + 1) % dim) for r in range(dim) for c in range(dim)]
    pres = Presentation(1, 1, [1] + [0] * (dim - 1), {(0, 0): DenseMatrix(dim, dim, shift)})
    path = tmp_path / "cycle.json"
    path.write_text(pres.to_json_text())
    for n, value in ((2048, "1\n"), (2047, "0\n")):
        assert run_cli(capsys, "recmat", "eval", str(path), "0" * n, "0" * n) == (0, value, "")
    assert run_cli(capsys, "recmat", "eval", str(path), "0" * 2049, "0" * 2049) == (
        2,
        "",
        "error: a word of 2049 letters on shifts of up to 512 terms:"
        " 2049 x 512 is more than the cap of 1048576\n",
    )


def test_values_past_the_digit_cap_are_refused_with_a_position(capsys, tmp_path):
    pres = json.loads(builtin("H").to_json_text())
    pres["shifts"]["1,0"][1][0] = "3/" + "7" * 5000
    path = tmp_path / "digits.json"
    path.write_text(json.dumps(pres))
    for argv in (
        ("eval", str(path), "1", "0"),
        ("unfold", str(path), "--depth", "1"),
        ("minimize", str(path)),
    ):
        code, out, err = run_cli(capsys, "recmat", *argv)
        assert (code, out, err) == (2, "", "error: more than 4300 digits (position 2)\n")


def reader_refusals(tmp_path):
    """(path, message) of presentation files the reader refuses."""
    text = builtin("H").to_json_text()
    big = "9" * 5000
    cases = {
        "p.json": (text.replace('"p": 2', f'"p": {big}'), "a JSON integer has"),
        "key.json": (text.replace('"0,1"', f'"0,{big}"'), "a shift key letter has"),
    }
    for name, (changed, subject) in cases.items():
        (tmp_path / name).write_text(changed)
        yield str(tmp_path / name), f"{subject} more than 4300 digits"
    (tmp_path / "deep.json").write_text("[" * 200_000)
    yield str(tmp_path / "deep.json"), "JSON nested too deeply to read"
    for init in ([1, "1i"], ["1", None]):
        data = {**json.loads(text), "init": init}
        (tmp_path / "init.json").write_text(json.dumps(data))
        yield str(tmp_path / "init.json"), "init entries must be strings"


def test_reader_refusals_exit_two_at_once(capsys, tmp_path):
    # each once ended in a traceback, exit 1, or in CPython's message on its
    # 4300-digit limit for int conversion
    for path, message in reader_refusals(tmp_path):
        for argv in (
            ("eval", path, "1", "0"),
            ("unfold", path, "--depth", "1"),
            ("minimize", path),
        ):
            start = time.perf_counter()
            code, out, err = run_cli(capsys, "recmat", *argv)
            assert time.perf_counter() - start < 1
            assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("op", ["product", "hadamard"])
def test_results_past_the_digit_cap_are_not_written(capsys, tmp_path, op):
    # p = q = 1, dim 1, one shift entry of 4000 digits: its square has 8000
    big = "7" * 4000
    data = {"p": 1, "q": 1, "dim": 1, "labels": ["g0"], "init": ["1"]}
    data["shifts"] = {"0,0": [[big]]}
    path = tmp_path / "big.json"
    path.write_text(json.dumps(data))
    target = tmp_path / "out.json"
    start = time.perf_counter()
    argv = ("recmat", op, str(path), str(path), "-o", str(target))
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == "error: the presentation has a value of more than 4300 digits\n"
    assert not target.exists()
    code, out, err = run_cli(capsys, "recmat", "transpose", str(path))
    assert (code, json.loads(out)["shifts"], err) == (0, {"0,0": [[big]]}, "")


def test_unfold_csv_and_json(capsys):
    code, out, err = run_cli(capsys, "recmat", "unfold", "builtin:H", "--depth", "1")
    assert code == 0
    assert out == "1,1i\n1i,1i\n"
    code, out, err = run_cli(
        capsys, "recmat", "unfold", "builtin:H", "--depth", "1", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == [["1", "1i"], ["1i", "1i"]]


def test_unfold_to_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, err = run_cli(
        capsys,
        "recmat",
        "unfold",
        "builtin:H",
        "--depth",
        "2",
        "-o",
        str(target),
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "1,1i,1i,-1"


@pytest.mark.parametrize(
    "depth, cap",
    [
        pytest.param("10", 262144, id="10"),
        pytest.param("18", 262144, id="18"),
        # past depth 18 the depth cap answers before any cell count
        pytest.param("1000000000", 18, id="1000000000"),
    ],
)
def test_unfold_rejects_tables_over_the_cell_cap(capsys, depth, cap):
    # 4^10 cells would take minutes and gigabytes; the cap answers at once
    code, out, err = run_cli(capsys, "recmat", "unfold", "builtin:H", "--depth", depth)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert f"more than the cap of {cap}" in err


def test_unfold_cap_admits_depth_nine(capsys, monkeypatch):
    # 2^9 x 2^9 cells is exactly the cap; a stub stands in for the table
    monkeypatch.setattr(recmat, "unfold", lambda pres, depth: DenseMatrix.zeros(1, 1))
    code, out, err = run_cli(capsys, "recmat", "unfold", "builtin:H", "--depth", "9")
    assert code == 0
    assert out == "0\n"


def test_unfold_cap_counts_the_alphabets(capsys, tmp_path):
    # p = 513, q = 1: 513 cells at depth 1, 513^2 > 4^9 at depth 2
    data = {
        "p": 513,
        "q": 1,
        "dim": 1,
        "labels": ["a"],
        "init": ["1"],
        "shifts": {f"{s},0": [["1"]] for s in range(513)},
    }
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "recmat", "unfold", str(wide), "--depth", "1")
    assert code == 0
    assert out == "1\n" * 513
    code, out, err = run_cli(capsys, "recmat", "unfold", str(wide), "--depth", "2")
    assert code == 2
    assert out == ""
    assert "513^2 x 1^2 cells, more than the cap of 262144" in err


def test_unfold_caps_the_depth_of_one_letter_presentations(capsys, tmp_path):
    # p = q = 1 keeps one cell at every depth; the depth cap of 18 is the
    # deepest level any larger alphabet reaches under the cell cap, so it is
    # checked first, for larger alphabets too
    data = {
        "p": 1,
        "q": 1,
        "dim": 1,
        "labels": ["a"],
        "init": ["1"],
        "shifts": {"0,0": [["1+1i"]]},
    }
    one = tmp_path / "one.json"
    one.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "recmat", "unfold", str(one), "--depth", "18")
    # (1 + i)^18 = (2i)^9
    assert (code, out, err) == (0, "512i\n", "")
    for source in (str(one), "builtin:H"):
        for depth in ("19", "1000000000"):
            argv = ("recmat", "unfold", source, "--depth", depth)
            code, out, err = run_cli(capsys, *argv)
            assert (code, out) == (2, "")
            assert err == f"error: --depth {depth} is more than the cap of 18\n"


def test_unfold_cap_counts_the_generators(capsys, tmp_path):
    # 64 identity-shifted generators: 4^8 cells hold 4^11 values, over 4^10
    eye = [["1" if r == c else "0" for c in range(64)] for r in range(64)]
    data = {
        "p": 2,
        "q": 2,
        "dim": 64,
        "labels": [f"g{k}" for k in range(64)],
        "init": ["1"] * 64,
        "shifts": {f"{s},{t}": eye for s in range(2) for t in range(2)},
    }
    tall = tmp_path / "tall.json"
    tall.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "recmat", "unfold", str(tall), "--depth", "8")
    assert code == 2
    assert out == ""
    assert err == (
        "error: --depth 8 unfolds 65536 cells x 64 generators,"
        " more than the cap of 1048576 values\n"
    )
    code, out, err = run_cli(capsys, "recmat", "unfold", str(tall), "--depth", "2")
    assert code == 0
    assert out == "1,1,1,1\n" * 4


def test_unfold_value_cap_admits_the_builtins(capsys, monkeypatch):
    # builtin:U has 12 generators: 4^8 cells fit the value cap, 4^9 do not
    monkeypatch.setattr(recmat, "unfold", lambda pres, depth: DenseMatrix.zeros(1, 1))
    code, out, err = run_cli(capsys, "recmat", "unfold", "builtin:U", "--depth", "8")
    assert code == 0
    code, out, err = run_cli(capsys, "recmat", "unfold", "builtin:U", "--depth", "9")
    assert code == 2
    assert "more than the cap of 1048576 values" in err


class TableBuilt(Exception):
    pass


@pytest.fixture
def builds(monkeypatch):
    """Calls of the series builders every capped table starts from; each
    call raises TableBuilt, so no table is computed."""
    calls = []

    def stub(*args):
        calls.append(args)
        raise TableBuilt

    for name in ("series_product", "beta_coeffs", "gamma_coeffs"):
        monkeypatch.setattr(thuemorse, name, stub)
    return calls


SIZE_CAPS = [
    ("verify-det", "--max-n", cli.MAX_N),
    ("conjecture-check", "--max-n", cli.MAX_N),
    ("conjecture-check", "--trials", cli.MAX_TRIALS),
    ("conjecture-check", "--prefix-len", cli.MAX_PREFIX_LEN),
    ("jfraction", "--count", cli.MAX_COUNT),
    ("beta-hankel", "--max-order", cli.MAX_ORDER),
    ("gamma-hankel", "--max-order", cli.MAX_ORDER),
    ("beta-hankel --max-order 1", "--offset", cli.MAX_OFFSET),
    ("gamma-hankel --max-order 1", "--offset", cli.MAX_OFFSET),
    ("verify-lu", "--depth", cli.MAX_LU_DEPTH),
]


@pytest.mark.parametrize("command, flag, cap", SIZE_CAPS)
def test_size_cap_refuses_one_past_the_bound(capsys, builds, command, flag, cap):
    code, out, err = run_cli(capsys, *command.split(), flag, str(cap + 1))
    assert (code, out) == (2, "")
    assert err == f"error: {flag} {cap + 1} is more than the cap of {cap}\n"
    assert builds == []


@pytest.mark.parametrize("command, flag, cap", SIZE_CAPS)
def test_size_cap_admits_the_bound(capsys, builds, command, flag, cap):
    with pytest.raises(TableBuilt):
        run_cli(capsys, *command.split(), flag, str(cap))
    assert len(builds) == 1


# every capped flag refuses -1 with its own message
NEGATIVE_ARGUMENTS = [
    (f"{command} {flag} -1", f"{flag} must be nonnegative")
    for command, flag, _ in SIZE_CAPS
] + [
    # with no trials, no per-trial table would check --max-n
    ("conjecture-check --trials 0 --max-n -3", "--max-n must be nonnegative"),
    ("recmat unfold builtin:H --depth -1", "--depth must be nonnegative"),
]


@pytest.mark.parametrize("command, message", NEGATIVE_ARGUMENTS)
def test_negative_arguments_exit_two(capsys, builds, command, message):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert builds == []


INTEGER_FLAGS = [
    "verify-det --max-n",
    "verify-lu --depth",
    "jfraction --count",
    "beta-hankel --max-order",
    "beta-hankel --max-order 1 --offset",
    "gamma-hankel --max-order",
    "gamma-hankel --max-order 1 --offset",
    "conjecture-check --trials",
    "conjecture-check --prefix-len",
    "conjecture-check --max-n",
    "conjecture-check --seed",
    "recmat unfold builtin:H --depth",
]


@pytest.mark.parametrize("text", ["٣", "1_0", " 3", "+3", "３"])
def test_integer_flags_take_ascii_digits_only(capsys, builds, text):
    # int() reads all five as 3 or 10; the flags take the grammar of values
    for command in INTEGER_FLAGS:
        with pytest.raises(SystemExit) as info:
            main([*command.split(), text])
        assert info.value.code == 2
        flag = command.split()[-1]
        assert f"argument {flag}: invalid int value: {text!r}\n" in capsys.readouterr().err
    assert builds == []


def test_integer_flags_take_at_most_the_digits_of_a_value(capsys, builds):
    # CPython from 3.11 on refuses to convert 4301 digits and 3.10 converts
    # them; the flags refuse them on both
    for command in INTEGER_FLAGS:
        flag = command.split()[-1]
        with pytest.raises(SystemExit) as info:
            main([*command.split(), "9" * 4301])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.endswith(f"error: argument {flag}: more than 4300 digits\n")
        # 4300 digits pass the reader; every flag but the seed has a bound
        if flag == "--seed":
            with pytest.raises(TableBuilt):
                run_cli(capsys, *command.split(), "9" * 4300)
            continue
        code, out, err = run_cli(capsys, *command.split(), "9" * 4300)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {flag} ") and "digits" not in err
    assert len(builds) == 1


def test_a_negative_seed_still_runs(capsys):
    code, out, err = run_cli(capsys, "conjecture-check", "--trials", "1", "--seed=-5")
    assert (code, err) == (0, "1/1 rows match\n")
    assert out.startswith("trial,sigma,checked_n,match\n0,")


def write_presentation(path, dim, p=1, q=1):
    # p x q letter pairs, dim generators, identity shifts
    shifts = {(s, t): DenseMatrix.identity(dim) for s in range(p) for t in range(q)}
    path.write_text(Presentation(p, q, [ONE] * dim, shifts).to_json_text())
    return str(path)


def cyclic_permutation(dim):
    # p = q = 1, init e0 and a shift that takes generator c to c + 1 mod dim
    shift = [int(r == (c + 1) % dim) for r in range(dim) for c in range(dim)]
    init = [1] + [0] * (dim - 1)
    return Presentation(1, 1, init, {(0, 0): DenseMatrix(dim, dim, shift)})


@pytest.mark.parametrize(
    "op, a, b, dim",
    [("sum", 128, 129, 257), ("convolve", 1, 256, 257), ("product", 16, 17, 272)],
)
def test_result_dim_cap_refuses_one_past_the_bound(
    tmp_path, capsys, monkeypatch, op, a, b, dim
):
    built = []
    monkeypatch.setattr(recmat, cli._BINARY_OPS[op][0], lambda *args: built.append(args))
    left = write_presentation(tmp_path / "a.json", a)
    right = write_presentation(tmp_path / "b.json", b)
    code, out, err = run_cli(capsys, "recmat", op, left, right)
    assert (code, out, built) == (2, "", [])
    assert err == (
        f"error: {op} of dims {a} and {b} has dim {dim},"
        f" more than the cap of {cli.MAX_RESULT_DIM}\n"
    )


@pytest.mark.parametrize(
    "op, a, b",
    [
        ("sum", 128, 128),
        ("convolve", 1, 255),
        # a convolution with the zero function is the zero function, of dim 0;
        # the cap once counted 257 x 0 + 257 generators
        ("convolve", 257, 0),
        ("product", 16, 16),
        ("hadamard", 16, 16),
    ],
)
def test_result_dim_cap_admits_the_bound(tmp_path, capsys, monkeypatch, op, a, b):
    built = []

    def stub(left, right):
        built.append((left.dim, right.dim))
        return builtin("zero")

    monkeypatch.setattr(recmat, cli._BINARY_OPS[op][0], stub)
    left = write_presentation(tmp_path / "a.json", a)
    right = write_presentation(tmp_path / "b.json", b)
    code, out, err = run_cli(capsys, "recmat", op, left, right)
    assert (code, err, built) == (0, "", [(a, b)])


@pytest.mark.parametrize("dim", [1, 0])
def test_result_size_cap_refuses_many_letter_pairs(tmp_path, capsys, monkeypatch, dim):
    # 1000 x 1 times 1 x 1000 letters is a 1000 x 1000-letter result: without
    # the cap, 20 s and 1.1 GB at dim 1, 13 s and 0.5 GB at dim 0
    built = []
    monkeypatch.setattr(recmat, "rec_product", lambda *args: built.append(args))
    left = write_presentation(tmp_path / "left.json", dim, 1000, 1)
    right = write_presentation(tmp_path / "right.json", dim, 1, 1000)
    start = time.monotonic()
    code, out, err = run_cli(capsys, "recmat", "product", left, right)
    assert time.monotonic() - start < 1
    assert (code, out, built) == (2, "", [])
    assert err == (
        f"error: product has 1000 x 1000 letter pairs of dim {dim}, 1000000 entries,"
        f" more than the cap of {cli.MAX_RESULT_ENTRIES}\n"
    )


def test_result_size_cap_admits_the_bound(tmp_path, capsys, monkeypatch):
    built = []

    def stub(left, right):
        built.append((left.p, right.q))
        return builtin("zero")

    monkeypatch.setattr(recmat, "rec_product", stub)
    left = write_presentation(tmp_path / "left.json", 1, 1024, 1)
    right = write_presentation(tmp_path / "right.json", 1, 1, 256)
    code, out, err = run_cli(capsys, "recmat", "product", left, right)
    assert 1024 * 256 == cli.MAX_RESULT_ENTRIES
    assert (code, err, built) == (0, "", [(1024, 256)])


@pytest.mark.parametrize(
    "op, right_p, message",
    [
        ("product", 2, "inner alphabets do not match"),
        ("hadamard", 1, "alphabets do not match"),
        ("convolve", 1, "alphabets do not match"),
    ],
)
def test_result_size_cap_keeps_the_alphabet_message(
    tmp_path, capsys, op, right_p, message
):
    left = write_presentation(tmp_path / "left.json", 1, 1000, 1)
    right = write_presentation(tmp_path / "right.json", 1, right_p, 1000)
    code, out, err = run_cli(capsys, "recmat", op, left, right)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("op, dim", [("product", 144), ("convolve", 156)])
def test_result_dim_cap_admits_the_builtins(capsys, op, dim):
    # builtin:U has 12 generators; convolve U U is the largest builtin result
    code, out, err = run_cli(capsys, "recmat", op, "builtin:U", "builtin:U")
    assert (code, err) == (0, "")
    assert Presentation.from_json_text(out).dim == dim


def test_minimize_refuses_orbit_entries_past_the_cap(capsys, tmp_path):
    # dense init, 10% of the shift entries in {-2..2} + {-2..2}i: each orbit
    # vector is the image of a reduced one, so entry sizes double every two
    # dims, and without the cap this dim-24 file ran for almost two minutes
    rng = random.Random(24)
    dim = 24

    def small_nonzero():
        while True:
            a, b = rng.randint(-2, 2), rng.randint(-2, 2)
            if a or b:
                return GaussianRational(a, b)

    init = [small_nonzero() for _ in range(dim)]
    shifts = {
        (s, t): DenseMatrix(
            dim,
            dim,
            [small_nonzero() if rng.random() < 0.1 else 0 for _ in range(dim**2)],
        )
        for s in range(2)
        for t in range(2)
    }
    path = tmp_path / "dense.json"
    path.write_text(Presentation(2, 2, init, shifts).to_json_text())
    code, out, err = run_cli(capsys, "recmat", "minimize", str(path))
    assert (code, out) == (2, "")
    assert err == (
        "error: an orbit vector of length 24 has an entry of 1468 bits:"
        " 1468 x 24 is more than the cap of 16384\n"
    )


def sparse_presentation(dim):
    # p = q = 1, a random 0/1 init and a 0/1 shift with about three ones a row
    rng = random.Random(1)
    init = [rng.randint(0, 1) for _ in range(dim)]
    entries = [1 if rng.random() < 3 / dim else 0 for _ in range(dim**2)]
    return Presentation(1, 1, init, {(0, 0): DenseMatrix(dim, dim, entries)})


@pytest.mark.parametrize("dim, bits", [(60, 283), (80, 206), (100, 171)])
def test_minimize_refuses_sparse_orbits_past_the_size_cap(capsys, tmp_path, dim, bits):
    # without the cap on bits x length these files, at most 51 KB, ran 8 s,
    # 37 s and 106 s, with entries of at most 566 bits
    path = tmp_path / "sparse.json"
    path.write_text(sparse_presentation(dim).to_json_text())
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "recmat", "minimize", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err == (
        f"error: an orbit vector of length {dim} has an entry of {bits} bits:"
        f" {bits} x {dim} is more than the cap of 16384\n"
    )


def test_minimize_still_reduces_the_sparse_dim_40_file(capsys, tmp_path):
    pres = sparse_presentation(40)
    path = tmp_path / "sparse.json"
    path.write_text(pres.to_json_text())
    code, out, err = run_cli(capsys, "recmat", "minimize", str(path))
    assert (code, err) == (0, "")
    small = Presentation.from_json_text(out)
    assert small.dim <= 40
    for length in range(10):
        pair = WordPair(1, 1, [0] * length, [0] * length)
        assert evaluate(small, pair) == evaluate(pres, pair)


def test_minimize_input_dim_cap_refuses_one_past_the_bound(
    capsys, tmp_path, monkeypatch
):
    calls = []
    monkeypatch.setattr(recmat, "minimize", lambda p: calls.append(p.dim) or p)
    at_cap = write_presentation(tmp_path / "a.json", cli.MAX_RESULT_DIM)
    assert run_cli(capsys, "recmat", "minimize", at_cap)[0] == 0
    past = write_presentation(tmp_path / "b.json", cli.MAX_RESULT_DIM + 1)
    code, out, err = run_cli(capsys, "recmat", "minimize", past)
    assert (code, out, calls) == (2, "", [256])
    assert err == "error: minimize input dim 257 is more than the cap of 256\n"


def test_binary_then_unary_pipeline(tmp_path, capsys):
    prod_path = tmp_path / "prod.json"
    min_path = tmp_path / "min.json"
    code, out, err = run_cli(
        capsys,
        "recmat",
        "product",
        "builtin:L",
        "builtin:U",
        "-o",
        str(prod_path),
    )
    assert code == 0
    prod = Presentation.from_json_text(prod_path.read_text(encoding="utf-8"))
    assert prod.dim == 48
    code, out, err = run_cli(
        capsys, "recmat", "minimize", str(prod_path), "-o", str(min_path)
    )
    assert code == 0
    small = Presentation.from_json_text(min_path.read_text(encoding="utf-8"))
    assert small.dim == 2
    assert same_function(small, builtin("H"))


def test_transpose_round_trip(tmp_path, capsys):
    first = tmp_path / "t.json"
    code, out, err = run_cli(
        capsys, "recmat", "transpose", "builtin:L", "-o", str(first)
    )
    assert code == 0
    code, out, err = run_cli(capsys, "recmat", "transpose", str(first))
    assert code == 0
    assert Presentation.from_json_text(out) == builtin("L")


def test_sum_hadamard_convolve_produce_presentations(capsys):
    for op in ("sum", "hadamard", "convolve"):
        code, out, err = run_cli(capsys, "recmat", op, "builtin:H", "builtin:E")
        assert code == 0
        Presentation.from_json_text(out)


def test_unknown_builtin(capsys):
    code, out, err = run_cli(capsys, "recmat", "eval", "builtin:nope", "0", "0")
    assert code == 2
    assert "unknown builtin" in err


def test_missing_file(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "recmat", "eval", str(tmp_path / "nosuch.json"), "0", "0"
    )
    assert code == 2
    assert err.startswith("error:")


def test_malformed_presentation_file(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}", encoding="utf-8")
    code, out, err = run_cli(capsys, "recmat", "minimize", str(bad))
    assert code == 2
    assert "missing presentation fields" in err
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run_cli(capsys, "recmat", "minimize", str(bad))
    assert code == 2
    assert "invalid JSON" in err


def padded_presentation(path, size):
    # builtin:H as JSON, then trailing spaces up to exactly size bytes
    data = builtin("H").to_json_text().encode()
    path.write_bytes(data + b" " * (size - len(data)))
    return str(path)


def test_json_cap_admits_the_bound(capsys, tmp_path):
    source = padded_presentation(tmp_path / "at_cap.json", cli.MAX_JSON_BYTES)
    expected = run_cli(capsys, "recmat", "eval", "builtin:H", "11", "01")
    assert run_cli(capsys, "recmat", "eval", source, "11", "01") == expected


def test_json_cap_refuses_one_byte_past(capsys, tmp_path):
    source = padded_presentation(tmp_path / "past_cap.json", cli.MAX_JSON_BYTES + 1)
    code, out, err = run_cli(capsys, "recmat", "eval", source, "11", "01")
    assert (code, out) == (2, "")
    assert err == (
        f"error: {source} is more than the cap of {cli.MAX_JSON_BYTES} bytes\n"
    )


def test_json_newlines_read_as_in_text_mode(capsys, tmp_path):
    # "\r\n" and "\r" count as one line break in JSON error positions
    errors = []
    for newline in (b"\n", b"\r\n", b"\r"):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"p": 2,' + newline + newline + b' "q": }' + newline)
        errors.append(run_cli(capsys, "recmat", "minimize", str(bad)))
    assert errors[0][0] == 2 and "line 3 column 7" in errors[0][2]
    assert errors[0] == errors[1] == errors[2]


def test_json_cap_on_a_pipe():
    # the child stops reading at the cap, so an endless stream ends the same way
    result = subprocess.run(
        [sys.executable, "-m", "recqi", "recmat", "minimize", "/dev/stdin"],
        input=b" " * (2 * cli.MAX_JSON_BYTES),
        capture_output=True,
        env=child_env(),
    )
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr.decode() == (
        f"error: /dev/stdin is more than the cap of {cli.MAX_JSON_BYTES} bytes\n"
    )


@pytest.mark.parametrize("alias", [" 0,0", "+0,0", "0, 0", "00,0"])
def test_presentation_rejects_noncanonical_shift_keys(capsys, tmp_path, alias):
    # an alias of "0,0" used to parse as (0, 0) and replace the earlier matrix
    data = builtin("H").to_json_dict()
    data["shifts"][alias] = data["shifts"]["1,1"]
    bad = tmp_path / "alias.json"
    bad.write_text(json.dumps(data), encoding="utf-8")
    code, out, err = run_cli(capsys, "recmat", "eval", str(bad), "0", "0")
    assert code == 2
    assert out == ""
    assert "shift key" in err


def test_presentation_refuses_huge_alphabets_at_once(tmp_path):
    # p * q letter pairs are never listed, so this small file is refused at
    # once; the budget makes a regression fail with MemoryError instead of
    # filling the machine
    data = {"p": 10**9, "q": 10**9, "dim": 0, "labels": [], "init": [], "shifts": {}}
    source = tmp_path / "huge.json"
    source.write_text(json.dumps(data), encoding="utf-8")
    result = run_budgeted(["recmat", "eval", "huge.json", "", ""], tmp_path)
    assert (result.returncode, result.stdout) == (2, b"")
    assert result.stderr == b"error: shifts must cover exactly the letter pairs\n"


def test_presentation_rejects_repeated_json_keys(capsys, tmp_path):
    # json.loads alone keeps the later of two equal keys
    text = builtin("H").to_json_text()
    first = json.dumps(builtin("H").to_json_dict()["shifts"]["1,1"])
    text = text.replace('"shifts": {', '"shifts": {\n    "0,0": ' + first + ",", 1)
    bad = tmp_path / "repeated.json"
    bad.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "recmat", "eval", str(bad), "0", "0")
    assert code == 2
    assert out == ""
    assert "repeated JSON key '0,0'" in err


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as info:
        main(["verify-det"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["recmat"])
    assert info.value.code == 2


def test_recmat_help_lists_the_operations_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "100")
    with pytest.raises(SystemExit) as info:
        main(["recmat", "--help"])
    assert info.value.code == 0
    listed = re.findall(r"^ {4}(\w+) +(\S.*)$", capsys.readouterr().out, re.M)
    assert listed == [
        ("eval", "value at one word pair"),
        ("unfold", "dense value matrix up to a depth"),
        ("sum", "pointwise sum of two presentations"),
        ("product", "matrix product of two presentations"),
        ("hadamard", "entrywise product of two presentations"),
        ("convolve", "convolution over splittings"),
        ("transpose", "swap word roles"),
        ("minimize", "smallest presentation of the same function"),
    ]


def test_output_is_deterministic(capsys, tmp_path):
    runs = []
    for _ in range(2):
        code, out, err = run_cli(capsys, "verify-det", "--max-n", "12")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    files = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        code, out, err = run_cli(
            capsys, "recmat", "minimize", "builtin:U", "-o", str(path)
        )
        assert code == 0
        files.append(path.read_bytes())
    assert files[0] == files[1]


def child_env():
    # the child imports the same package as this process, installed or not
    package_root = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


# the address space and the seconds a budgeted child may take
CHILD_BYTES = 2**27
CHILD_SECONDS = 10


def run_budgeted(argv, cwd):
    """Run `python -m recqi *argv` in cwd, in a child process whose address
    space is capped at CHILD_BYTES, and fail past CHILD_SECONDS."""
    return subprocess.run(
        [sys.executable, "-m", "recqi", *argv],
        capture_output=True,
        cwd=cwd,
        env=child_env(),
        timeout=CHILD_SECONDS,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (CHILD_BYTES, CHILD_BYTES)
        ),
    )


# the input files the budget cases name, each written in the child's cwd
BUDGET_INPUTS = {
    "product-uu.json": lambda path: path.write_text(
        rec_product(builtin("U"), builtin("U")).to_json_text()
    ),
    "convolve-uu.json": lambda path: path.write_text(
        rec_convolution(builtin("U"), builtin("U")).to_json_text()
    ),
    "cycle-256.json": lambda path: path.write_text(
        cyclic_permutation(256).to_json_text()
    ),
    "eye-257.json": lambda path: write_presentation(path, 257, 2, 2),
}


@pytest.mark.parametrize(
    "argv, code, summary",
    [
        pytest.param(
            ["verify-det", "--max-n", "1000"], 0, "1001/1001 rows match\n", id="det"
        ),
        pytest.param(["verify-lu", "--depth", "8"], 0, "9/9 rows match\n", id="lu"),
        pytest.param(
            ["recmat", "unfold", "builtin:U", "--depth", "8"], 0, "", id="unfold"
        ),
        # the offset-0 tables take block steps and are not unit by design
        pytest.param(
            ["beta-hankel", "--max-order", "128", "--offset", "0"],
            1,
            "17/128 rows match\n",
            id="beta",
        ),
        pytest.param(
            ["gamma-hankel", "--max-order", "128", "--offset", "0"],
            1,
            "0/128 rows match\n",
            id="gamma",
        ),
        # the largest builtin inputs: minimize solves on 21 and 41
        # observation rows
        pytest.param(["recmat", "minimize", "product-uu.json"], 0, "", id="product"),
        pytest.param(["recmat", "minimize", "convolve-uu.json"], 0, "", id="convolve"),
        # dim 256 is the minimize input cap, and no generator is redundant
        pytest.param(["recmat", "minimize", "cycle-256.json"], 0, "", id="cycle"),
        # a dim-257 operand is read whole, and its convolution with zero has dim 0
        pytest.param(
            ["recmat", "convolve", "eye-257.json", "builtin:zero"], 0, "", id="eye"
        ),
    ],
)
def test_largest_accepted_inputs_fit_the_budget(tmp_path, argv, code, summary):
    # each command at the largest input it accepts, in 128 MB and 10 s
    for name in argv:
        if name in BUDGET_INPUTS:
            BUDGET_INPUTS[name](tmp_path / name)
    result = run_budgeted(argv, tmp_path)
    assert (result.returncode, result.stderr.decode()) == (code, summary)
    assert result.stdout


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "recqi", "verify-det", "--max-n", "2"],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[0] == "n,det_order_n_plus_1,folding_product,match"
    assert "3/3 rows match" in result.stderr


LOADED = """
import sys
from recqi.cli import main
if len(sys.argv) > 1:
    main(sys.argv[1:])
loaded = [m for m in sys.modules if m.partition(".")[0] in ("recqi", "json")]
print(*sorted(loaded), file=sys.stderr)
"""


def loaded_modules(*argv):
    """The recqi and json modules a fresh process holds after importing
    recqi.cli and running one command."""
    result = subprocess.run(
        [sys.executable, "-c", LOADED, *argv],
        capture_output=True,
        text=True,
        env=child_env(),
    )
    assert result.returncode == 0, result.stderr
    return set(result.stderr.splitlines()[-1].split())


def test_importing_the_cli_loads_no_math_module():
    assert loaded_modules() == {"recqi", "recqi.cli", "recqi.errors", "recqi.report"}


@pytest.mark.parametrize(
    "argv, absent",
    [
        (("verify-det", "--max-n", "3"), "recqi.recmat"),
        (("jfraction", "--count", "3"), "recqi.recmat"),
        (("recmat", "unfold", "builtin:H", "--depth", "1"), "recqi.jacobi"),
        (("recmat", "unfold", "builtin:H", "--depth", "1"), "json"),
        (("verify-lu", "--depth", "1"), "json"),
    ],
)
def test_commands_load_only_what_they_run(argv, absent):
    modules = loaded_modules(*argv)
    assert absent not in modules
    assert "recqi.linalg" in modules


def test_exports_resolve_to_their_home_modules():
    import importlib

    import recqi

    for name, module in recqi._HOME.items():
        home = importlib.import_module(f"recqi.{module}")
        assert getattr(recqi, name) is getattr(home, name), name
    assert set(recqi._HOME) <= set(dir(recqi))
    with pytest.raises(AttributeError, match="no attribute 'moment_sequence'"):
        recqi.moment_sequence


def readme_examples():
    """One case per README code block that starts with ``$ recqi``: the
    command, and as expected stdout the rest of the block."""
    text = README.read_text(encoding="utf-8")
    cases = []
    for block in re.findall(r"^```\n(.*?)^```$", text, re.M | re.S):
        command, _, stdout = block.partition("\n")
        if command.startswith("$ recqi "):
            argv = shlex.split(command[len("$ recqi ") :])
            cases.append(pytest.param(argv, stdout, id=" ".join(argv)))
    return cases


@pytest.mark.parametrize("argv, expected", readme_examples())
def test_readme_example(capsys, argv, expected):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_readme_has_examples():
    assert len(readme_examples()) >= 5


def test_readme_library_example():
    # the python block under "Library": its asserts are the checks
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.match(r"\s*```python\n(.*?)^```$", library, re.M | re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
