"""Command-line entry point: verification tables and presentation tools.

Verification commands print a CSV table to stdout and a one-line summary to
stderr; exit status 0 means every row matched, 1 means some row failed, and
2 means the input itself was unusable (unreadable file, malformed JSON or
value, out-of-contract argument). All output is deterministic; the only
randomized command (conjecture-check) takes a seed and fixes its default.

Word arguments are digit strings with letter 1 leftmost; because letter 1 is
the least significant digit of the unfolding index, the pair for matrix
entry (3, 2) at depth 2 is written as row "11", column "01".
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from .errors import DegeneracyError
from .gaussian import GAUSSIAN_UNITS, ONE, format_gaussian
from .jacobi import jfraction_from_moments, u_formula, v_formula
from .linalg import mat_mul
from .recmat import (
    Presentation,
    WordPair,
    builtin,
    evaluate,
    minimize,
    rec_convolution,
    rec_hadamard,
    rec_product,
    rec_sum,
    rec_transpose,
    unfold,
    unfold_levels,
)
from .report import VerificationReport
from .thuemorse import (
    SignSequence,
    beta_coeffs,
    folding_product,
    gamma_coeffs,
    hankel_det_table,
    series_product,
)

# largest sizes the verification tables take: each admits the documented and
# benchmarked sizes, and keeps a run with the other flags at their defaults
# well under a minute (at most 31 s and 34 MB on a 2-vCPU KVM guest)
MAX_N = 1000
MAX_TRIALS = 1000
MAX_PREFIX_LEN = 64
MAX_COUNT = 1000
MAX_ORDER = 128
# beta_coeffs/gamma_coeffs build the series through offset + 2 * max_order
MAX_OFFSET = 2**16
# largest table `recmat unfold` builds: 4^9 cells is builtin:H at depth 9
MAX_UNFOLD_CELLS = 4**9
# cap on cells x dim, which bounds what `unfold` holds within a small factor:
# dim generator values per cell of the level below the last, one value per
# cell at the last; builtin:H (dim 2) still unfolds to depth 9, builtin:U
# (dim 12) to depth 8
MAX_UNFOLD_VALUES = 4**10
# largest generator count a binary `recmat` op builds, p * q shifts of
# dim x dim entries; the largest builtin pair, convolve U U, gives 156
MAX_RESULT_DIM = 256
# largest JSON presentation read, in bytes; a p = q = 2, dim-256 file of
# small Gaussian integers, as binary ops at MAX_RESULT_DIM write, is 3.5 MB
MAX_JSON_BYTES = 2**22


def _check_cap(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise ValueError(f"{flag} {value} is more than the cap of {cap}")


def determinant_report(max_n: int, sigma: SignSequence | None) -> VerificationReport:
    """Hankel determinant of order n+1 vs the folding product, n = 0..max_n."""
    if max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    _check_cap("--max-n", max_n, MAX_N)
    series = series_product(sigma, 2 * max_n)
    dets = hankel_det_table(series.coefficient, 0, max_n + 1)
    report = VerificationReport(("n", "det_order_n_plus_1", "folding_product", "match"))
    for n in range(max_n + 1):
        det = format_gaussian(dets[n + 1])
        fold = format_gaussian(folding_product(n, sigma))
        report.add((n, det, fold), det == fold)
    return report


def lu_report(depth: int) -> VerificationReport:
    """Triangular decomposition checks at sizes 2^0 .. 2^depth.

    Each row requires, at its size: the lower times upper unfolding equals
    the Hankel unfolding, the three factors have their triangular/diagonal
    shapes, and the diagonal product equals both the Hankel determinant and
    the folding product.
    """
    if not 0 <= depth <= 8:
        raise ValueError("--depth must lie in 0..8")
    moments = series_product(None, 2 ** (depth + 1))
    dets = hankel_det_table(moments.coefficient, 0, 2**depth)
    report = VerificationReport(("n", "diag_product", "folding_product", "match"))
    # each presentation is unfolded once, its levels read in lockstep
    levels = zip(*(unfold_levels(builtin(name), depth) for name in "LUDH"))
    for n, (low, upp, dia, han) in enumerate(levels):
        size = 2**n
        ok_product = mat_mul(low, upp) == han
        ok_shapes = (
            low.is_unit_lower_triangular()
            and dia.is_diagonal()
            and upp.is_upper_triangular()
        )
        diag_prod = ONE
        for x in dia.diagonal():
            diag_prod = diag_prod * x
        fold_prod = folding_product(size - 1)
        ok_dets = diag_prod == dets[size] and diag_prod == fold_prod
        report.add(
            (n, format_gaussian(diag_prod), format_gaussian(fold_prod)),
            ok_product and ok_shapes and ok_dets,
        )
    return report


def jfraction_report(count: int) -> VerificationReport:
    """Continued-fraction coefficients u_n, v_n vs their closed forms, n <= count."""
    if count < 0:
        raise ValueError("--count must be nonnegative")
    _check_cap("--count", count, MAX_COUNT)
    depth = count + 1
    series = series_product(None, 2 * depth)
    jf = jfraction_from_moments(series.coefficients, depth)
    report = VerificationReport(
        ("n", "u_computed", "u_formula", "v_computed", "v_formula", "match")
    )
    for n in range(count + 1):
        u_c = format_gaussian(jf.u_coeff(n))
        u_f = format_gaussian(u_formula(n))
        # v starts at index 1; row 0 leaves its cells empty
        v_c = format_gaussian(jf.v_coeff(n)) if n else ""
        v_f = format_gaussian(v_formula(n)) if n else ""
        report.add((n, u_c, u_f, v_c, v_f), u_c == u_f and v_c == v_f)
    return report


def unit_det_report(
    coeff_fn, max_order: int, offset: int, label: str
) -> VerificationReport:
    """Hankel determinants of orders 1..max_order tested for unit values."""
    if max_order < 0:
        raise ValueError("--max-order must be nonnegative")
    if offset < 0:
        raise ValueError("--offset must be nonnegative")
    _check_cap("--max-order", max_order, MAX_ORDER)
    _check_cap("--offset", offset, MAX_OFFSET)
    series = coeff_fn(offset + 2 * max_order)
    dets = hankel_det_table(series.coefficient, offset, max_order)
    report = VerificationReport(("order", label, "expected", "match"))
    for k in range(1, max_order + 1):
        report.add((k, format_gaussian(dets[k]), "unit"), dets[k] in GAUSSIAN_UNITS)
    return report


def conjecture_report(
    trials: int, prefix_len: int, max_n: int, seed: int
) -> VerificationReport:
    """The determinant table under random sign prefixes, one row per trial."""
    if trials < 0 or prefix_len < 0:
        raise ValueError("--trials and --prefix-len must be nonnegative")
    if max_n < 0:
        raise ValueError("--max-n must be nonnegative")
    _check_cap("--trials", trials, MAX_TRIALS)
    _check_cap("--prefix-len", prefix_len, MAX_PREFIX_LEN)
    _check_cap("--max-n", max_n, MAX_N)
    rng = random.Random(seed)
    report = VerificationReport(("trial", "sigma", "checked_n", "match"))
    for trial in range(trials):
        sigma = SignSequence([rng.choice((1, -1)) for _ in range(prefix_len)])
        sub = determinant_report(max_n, sigma)
        report.add((trial, sigma, max_n), sub.all_match)
    return report


def _load_presentation(source: str) -> Presentation:
    if source.startswith("builtin:"):
        return builtin(source[len("builtin:") :])
    with open(source, "rb") as fh:
        data = fh.read(MAX_JSON_BYTES + 1)
    if len(data) > MAX_JSON_BYTES:
        raise ValueError(f"{source} is more than the cap of {MAX_JSON_BYTES} bytes")
    # decoded as a text-mode read decodes it: "\r\n" and "\r" read as "\n"
    text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    return Presentation.from_json_text(text)


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def cmd_recmat_eval(args) -> int:
    pres = _load_presentation(args.presentation)
    pair = WordPair.from_strings(pres.p, pres.q, args.row, args.col)
    value = format_gaussian(evaluate(pres, pair))
    if args.format == "json":
        _emit(json.dumps({"value": value}) + "\n", args.output)
    else:
        _emit(value + "\n", args.output)
    return 0


def cmd_recmat_unfold(args) -> int:
    pres = _load_presentation(args.presentation)
    if args.depth < 0:
        raise ValueError("--depth must be nonnegative")
    # (p*q)^depth grows from p*q >= 2 on, and 2^bit_length already exceeds
    # the cap, so a bounded exponent decides the comparison for any depth
    cells = (pres.p * pres.q) ** min(args.depth, MAX_UNFOLD_CELLS.bit_length())
    if cells > MAX_UNFOLD_CELLS:
        raise ValueError(
            f"--depth {args.depth} unfolds {pres.p}^{args.depth} x"
            f" {pres.q}^{args.depth} cells, more than the cap of {MAX_UNFOLD_CELLS}"
        )
    if cells * max(pres.dim, 1) > MAX_UNFOLD_VALUES:
        raise ValueError(
            f"--depth {args.depth} unfolds {cells} cells x {pres.dim} generators,"
            f" more than the cap of {MAX_UNFOLD_VALUES} values"
        )
    # the deepest level p*q >= 2 reaches under the cell cap; p = q = 1 stops there too
    _check_cap("--depth", args.depth, MAX_UNFOLD_CELLS.bit_length() - 1)
    matrix = unfold(pres, args.depth)
    if args.format == "json":
        rows = [
            [format_gaussian(matrix[r, c]) for c in range(matrix.cols)]
            for r in range(matrix.rows)
        ]
        _emit(json.dumps(rows, indent=2) + "\n", args.output)
    else:
        _emit(matrix.to_csv() + "\n", args.output)
    return 0


_BINARY_OPS = {
    "sum": rec_sum,
    "product": rec_product,
    "hadamard": rec_hadamard,
    "convolve": rec_convolution,
}


def cmd_recmat_binary(args) -> int:
    op = _BINARY_OPS[args.op]
    left = _load_presentation(args.left)
    right = _load_presentation(args.right)
    a, b = left.dim, right.dim
    dim = {"sum": a + b, "convolve": a * b + a}.get(args.op, a * b)
    if dim > MAX_RESULT_DIM:
        raise ValueError(
            f"{args.op} of dims {a} and {b} has dim {dim},"
            f" more than the cap of {MAX_RESULT_DIM}"
        )
    _emit(op(left, right).to_json_text(), args.output)
    return 0


_UNARY_OPS = {
    "transpose": rec_transpose,
    "minimize": minimize,
}


def cmd_recmat_unary(args) -> int:
    op = _UNARY_OPS[args.op]
    pres = _load_presentation(args.presentation)
    _emit(op(pres).to_json_text(), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recqi",
        description="Exact verification tables and presentation algebra over Q(i).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify-det",
        help="Hankel determinants against the folding product",
    )
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.add_argument(
        "--sigma",
        default=None,
        help="fold-direction sign prefix over {+,-}; default all plus"
        " (write --sigma=-++ when the prefix starts with a minus)",
    )
    p.set_defaults(
        func=lambda a: determinant_report(
            a.max_n, None if a.sigma is None else SignSequence.from_string(a.sigma)
        ).emit()
    )

    p = sub.add_parser(
        "verify-lu",
        help="triangular decomposition of the Hankel unfoldings",
    )
    p.add_argument("--depth", type=int, required=True)
    p.set_defaults(func=lambda a: lu_report(a.depth).emit())

    p = sub.add_parser(
        "jfraction",
        help="continued-fraction coefficients against their closed forms",
    )
    p.add_argument("--count", type=int, required=True)
    p.set_defaults(func=lambda a: jfraction_report(a.count).emit())

    p = sub.add_parser("beta-hankel", help="first-difference Hankel determinant table")
    p.add_argument("--max-order", type=int, required=True, dest="max_order")
    p.add_argument("--offset", type=int, default=1)
    p.set_defaults(
        func=lambda a: unit_det_report(
            beta_coeffs, a.max_order, a.offset, "beta_det"
        ).emit()
    )

    p = sub.add_parser("gamma-hankel", help="two-step difference Hankel determinants")
    p.add_argument("--max-order", type=int, required=True, dest="max_order")
    p.add_argument("--offset", type=int, default=2)
    p.set_defaults(
        func=lambda a: unit_det_report(
            gamma_coeffs, a.max_order, a.offset, "gamma_det"
        ).emit()
    )

    p = sub.add_parser(
        "conjecture-check",
        help="determinant identity under random fold-direction prefixes",
    )
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--prefix-len", type=int, default=10, dest="prefix_len")
    p.add_argument("--max-n", type=int, default=128, dest="max_n")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(
        func=lambda a: conjecture_report(a.trials, a.prefix_len, a.max_n, a.seed).emit()
    )

    rm = sub.add_parser("recmat", help="presentation algebra")
    rmsub = rm.add_subparsers(dest="op", required=True)

    p = rmsub.add_parser("eval", help="value at one word pair")
    p.add_argument("presentation", help="JSON file or builtin:NAME")
    p.add_argument("row", help="row word, digits, letter 1 leftmost")
    p.add_argument("col", help="column word, digits, letter 1 leftmost")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_recmat_eval)

    p = rmsub.add_parser("unfold", help="dense value matrix up to a depth")
    p.add_argument("presentation", help="JSON file or builtin:NAME")
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_recmat_unfold)

    for name, help_text in (
        ("sum", "pointwise sum of two presentations"),
        ("product", "matrix product of two presentations"),
        ("hadamard", "entrywise product of two presentations"),
        ("convolve", "convolution over splittings"),
    ):
        p = rmsub.add_parser(name, help=help_text)
        p.add_argument("left", help="JSON file or builtin:NAME")
        p.add_argument("right", help="JSON file or builtin:NAME")
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=cmd_recmat_binary)

    for name, help_text in (
        ("transpose", "swap word roles"),
        ("minimize", "smallest presentation of the same function"),
    ):
        p = rmsub.add_parser(name, help=help_text)
        p.add_argument("presentation", help="JSON file or builtin:NAME")
        p.add_argument("-o", "--output", default=None)
        p.set_defaults(func=cmd_recmat_unary)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegeneracyError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
