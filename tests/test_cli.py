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
from pathlib import Path

import pytest

from recqi import (
    ONE,
    DenseMatrix,
    GaussianRational,
    Presentation,
    builtin,
    same_function,
)
from recqi import cli
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


def test_verify_lu_depth_contract(capsys):
    code, out, err = run_cli(capsys, "verify-lu", "--depth", "9")
    assert code == 2
    assert "0..8" in err


def test_jfraction_table(capsys):
    code, out, err = run_cli(capsys, "jfraction", "--count", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,u_computed,u_formula,v_computed,v_formula,match"
    assert lines[1] == "0,1i,1i,,,yes"
    assert lines[2] == "1,-1i,-1i,1+1i,1+1i,yes"
    assert lines[4] == "3,-1i,-1i,-1i,-1i,yes"
    assert lines[9] == "8,1i,1i,1i,1i,yes"
    assert err.strip() == "9/9 rows match"


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


@pytest.mark.parametrize("depth", ["10", "1000000000"])
def test_unfold_rejects_tables_over_the_cell_cap(capsys, depth):
    # 4^10 cells would take minutes and gigabytes; the cap answers at once
    code, out, err = run_cli(capsys, "recmat", "unfold", "builtin:H", "--depth", depth)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "more than the cap of 262144" in err


def test_unfold_cap_admits_depth_nine(capsys, monkeypatch):
    # 2^9 x 2^9 cells is exactly the cap; a stub stands in for the table
    monkeypatch.setattr(cli, "unfold", lambda pres, depth: DenseMatrix.zeros(1, 1))
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
    # deepest level any larger alphabet reaches under the cell cap
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
    for depth in ("19", "1000000000"):
        code, out, err = run_cli(capsys, "recmat", "unfold", str(one), "--depth", depth)
        assert code == 2
        assert out == ""
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
    monkeypatch.setattr(cli, "unfold", lambda pres, depth: DenseMatrix.zeros(1, 1))
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
        monkeypatch.setattr(cli, name, stub)
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


NEGATIVE_ARGUMENTS = [
    ("verify-det --max-n -1", "--max-n must be nonnegative"),
    ("verify-lu --depth -1", "--depth must lie in 0..8"),
    ("jfraction --count -1", "--count must be nonnegative"),
    ("beta-hankel --max-order -1", "--max-order must be nonnegative"),
    ("gamma-hankel --max-order 1 --offset -1", "--offset must be nonnegative"),
    ("conjecture-check --trials -1", "--trials and --prefix-len must be nonnegative"),
    ("conjecture-check --prefix-len -1", "--trials and --prefix-len must be nonnegative"),
    # with no trials, no per-trial table would check --max-n
    ("conjecture-check --trials 0 --max-n -3", "--max-n must be nonnegative"),
]


@pytest.mark.parametrize("command, message", NEGATIVE_ARGUMENTS)
def test_negative_arguments_exit_two(capsys, builds, command, message):
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert builds == []


def write_presentation(path, dim):
    # one letter each side, dim generators, identity shift
    shifts = {(0, 0): DenseMatrix.identity(dim)}
    path.write_text(Presentation(1, 1, [ONE] * dim, shifts).to_json_text())
    return str(path)


@pytest.mark.parametrize(
    "op, a, b, dim",
    [("sum", 128, 129, 257), ("convolve", 1, 256, 257), ("product", 16, 17, 272)],
)
def test_result_dim_cap_refuses_one_past_the_bound(
    tmp_path, capsys, monkeypatch, op, a, b, dim
):
    built = []
    monkeypatch.setitem(cli._BINARY_OPS, op, lambda *args: built.append(args))
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
    [("sum", 128, 128), ("convolve", 1, 255), ("product", 16, 16), ("hadamard", 16, 16)],
)
def test_result_dim_cap_admits_the_bound(tmp_path, capsys, monkeypatch, op, a, b):
    built = []

    def stub(left, right):
        built.append((left.dim, right.dim))
        return builtin("zero")

    monkeypatch.setitem(cli._BINARY_OPS, op, stub)
    left = write_presentation(tmp_path / "a.json", a)
    right = write_presentation(tmp_path / "b.json", b)
    code, out, err = run_cli(capsys, "recmat", op, left, right)
    assert (code, err, built) == (0, "", [(a, b)])


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
    assert re.fullmatch(
        r"error: an orbit vector has an entry of \d+ bits,"
        r" more than the cap of 4096\n",
        err,
    )


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
    # once; the child's address space is capped so that a regression fails
    # with MemoryError instead of filling the machine
    data = {"p": 10**9, "q": 10**9, "dim": 0, "labels": [], "init": [], "shifts": {}}
    source = tmp_path / "huge.json"
    source.write_text(json.dumps(data), encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "recqi", "recmat", "eval", str(source), "", ""],
        capture_output=True,
        env=child_env(),
        timeout=10,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**28, 2**28)),
    )
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
