"""What the traced run records, and which end-to-end number each metric moves.

``SPANS`` lists the public functions of the layer modules that the traced
child wraps in a timing span; the span around the whole ``recqi.cli.main``
call is named ``cli``. ``SIZERS`` add up a size per call of a span, and
``COUNTED_OPS`` are the scalar operations the separate counting pass counts.

``METRICS`` is the catalogue of per-layer metrics, in the order
``BENCHMARK.json`` lists them. Each entry gives its kind, which says where
the value comes from: a ``span`` metric is named ``<span>.<field>`` with
field ``s`` (total time), ``self_s`` or ``calls``; a ``count`` metric
``gaussian.<op>.calls``; a ``cli`` metric ``cli.<command>.s`` or
``.rss_mb``, from the plain run of that command. Each entry also names the
workloads on which the traced run must see the underlying span or counter
called at least once (a zero there means the wrapper missed a call site,
and the run fails), and which end-to-end metric the layer should move on
which workload. Later changes cite these names.
"""

from __future__ import annotations

from pathlib import Path

from workloads import WORKLOADS, commands

HANKEL, JFRAC, PRES = "hankel_minors", "jfraction", "presentations"

SPANS = {
    "thuemorse.folding_product": ("recqi.thuemorse", "folding_product"),
    "thuemorse.hankel": ("recqi.thuemorse", "hankel"),
    "thuemorse.series_product": ("recqi.thuemorse", "series_product"),
    "thuemorse.hankel_det_table": ("recqi.thuemorse", "hankel_det_table"),
    "linalg.bareiss_leading_minors": ("recqi.linalg", "bareiss_leading_minors"),
    "linalg.det_bareiss": ("recqi.linalg", "det_bareiss"),
    "linalg.det_field": ("recqi.linalg", "det_field"),
    "linalg.mat_mul": ("recqi.linalg", "mat_mul"),
    "linalg.rref": ("recqi.linalg", "rref"),
    "linalg.SpanBasis.add": ("recqi.linalg", "SpanBasis.add"),
    "jacobi.jfraction_from_moments": ("recqi.jacobi", "jfraction_from_moments"),
    "jacobi.jfraction_to_series": ("recqi.jacobi", "jfraction_to_series"),
    "recmat.unfold": ("recqi.recmat", "unfold"),
    "recmat.minimize": ("recqi.recmat", "minimize"),
    "recmat.rec_product": ("recqi.recmat", "rec_product"),
    "gaussian.format_gaussian": ("recqi.gaussian", "format_gaussian"),
    "gaussian.parse_gaussian": ("recqi.gaussian", "parse_gaussian"),
}

# metric -> (span, size of one call from its positional args and result)
SIZERS = {
    "linalg.bareiss_leading_minors.order_sum": (
        "linalg.bareiss_leading_minors",
        lambda args, result: args[0].rows,
    ),
    "recmat.unfold.cells": (
        "recmat.unfold",
        lambda args, result: result.rows * result.cols,
    ),
    "recmat.minimize.dim_in": ("recmat.minimize", lambda args, result: args[0].dim),
    "recmat.minimize.dim_out": ("recmat.minimize", lambda args, result: result.dim),
}

# counter -> GaussianRational methods it counts
COUNTED_OPS = {
    "mul": ("__mul__", "__rmul__"),
    "add": ("__add__", "__radd__"),
    "sub": ("__sub__", "__rsub__"),
    "div": ("__truediv__", "__rtruediv__"),
}

# microbenchmark: metric -> (statement, left operand, right operand); operands
# are (re, im) pairs of ints or (numerator, denominator) pairs
MICRO = {
    "gaussian.mul_int.ns": ("a * b", ((3, 1), (-2, 1)), ((-1, 1), (4, 1))),
    "gaussian.mul_rat.ns": ("a * b", ((1, 2), (-3, 4)), ((5, 8), (1, 4))),
    "gaussian.add_int.ns": ("a + b", ((3, 1), (-2, 1)), ((-1, 1), (4, 1))),
    "gaussian.div_rat.ns": ("a / b", ((1, 2), (-3, 4)), ((5, 8), (1, 4))),
}


def _m(kind, required, moves):
    return {"kind": kind, "required": required, "moves": moves}


_BAREISS = (
    "wall_s on hankel_minors (most of it); little on presentations; none on jfraction"
)
_FOLD = "wall_s on hankel_minors (about 12% of verify-det, more in conjecture-check)"
_JFRAC_WALL = "wall_s on jfraction only"
_UNFOLD = "wall_s and peak_rss_mb on presentations"
_PRES_WALL = "wall_s on presentations"
_SCALAR = (
    "wall_s on jfraction and presentations;"
    " on hankel_minors only through folding_product"
)

METRICS = {
    "linalg.bareiss_leading_minors.s": _m("span", (HANKEL, PRES), _BAREISS),
    "linalg.bareiss_leading_minors.calls": _m("span", (HANKEL, PRES), _BAREISS),
    "linalg.bareiss_leading_minors.order_sum": _m("size", (HANKEL, PRES), _BAREISS),
    "thuemorse.folding_product.s": _m("span", (HANKEL,), _FOLD),
    "thuemorse.folding_product.calls": _m("span", (HANKEL,), _FOLD),
    "thuemorse.hankel.s": _m("span", (HANKEL,), _FOLD),
    "thuemorse.series_product.s": _m("span", (HANKEL,), _FOLD),
    "thuemorse.hankel_det_table.self_s": _m("span", (HANKEL,), "wall_s on hankel_minors"),
    "thuemorse.fallback_orders": _m(
        "fallback", (), "wall_s on hankel_minors; nonzero means wasted work"
    ),
    "jacobi.jfraction_from_moments.self_s": _m("span", (JFRAC,), _JFRAC_WALL),
    "jacobi.jfraction_to_series.s": _m("span", (JFRAC,), _JFRAC_WALL),
    "recmat.unfold.s": _m("span", (PRES,), _UNFOLD),
    "recmat.unfold.calls": _m("span", (PRES,), _UNFOLD),
    "recmat.unfold.cells": _m("size", (PRES,), _UNFOLD),
    "recmat.minimize.s": _m("span", (PRES,), _PRES_WALL),
    "recmat.minimize.dim_in": _m("size", (PRES,), _PRES_WALL),
    "recmat.minimize.dim_out": _m("size", (PRES,), _PRES_WALL),
    "recmat.rec_product.s": _m("span", (PRES,), _PRES_WALL),
    "linalg.SpanBasis.add.s": _m("span", (PRES,), _PRES_WALL),
    "linalg.rref.s": _m("span", (PRES,), _PRES_WALL),
    "linalg.mat_mul.s": _m("span", (PRES,), _PRES_WALL),
    "gaussian.mul.calls": _m("count", (HANKEL, JFRAC, PRES), _SCALAR),
    "gaussian.add.calls": _m("count", (JFRAC, PRES), _SCALAR),
    "gaussian.sub.calls": _m("count", (JFRAC, PRES), _SCALAR),
    "gaussian.div.calls": _m("count", (JFRAC, PRES), _SCALAR),
    "gaussian.mul_int.ns": _m("micro", (), "wall_s on presentations"),
    "gaussian.mul_rat.ns": _m("micro", (), "wall_s on jfraction"),
    "gaussian.add_int.ns": _m("micro", (), "wall_s on presentations"),
    "gaussian.div_rat.ns": _m("micro", (), "wall_s on jfraction"),
    "gaussian.format_gaussian.s": _m(
        "span", (PRES,), "wall_s on presentations (CSV and JSON output)"
    ),
    "gaussian.parse_gaussian.s": _m(
        "span", (PRES,), "wall_s on presentations (JSON input)"
    ),
}

for _workload in WORKLOADS:
    for _cmd in commands(_workload, 0, Path(".")):
        METRICS[f"cli.{_cmd.name}.s"] = _m("cli", (_workload,), f"wall_s on {_workload}")
        METRICS[f"cli.{_cmd.name}.rss_mb"] = _m(
            "cli", (_workload,), f"peak_rss_mb on {_workload}"
        )
METRICS["cli.self_s"] = _m("span", (), "wall_s of every workload")
METRICS["trace.overhead_s"] = _m("overhead", (), "none; what tracing costs")
METRICS["fail_ratio"] = _m("fail_ratio", (), "none; must stay 0")
