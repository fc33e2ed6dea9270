"""Child process of the traced run; it writes what it recorded as JSON.

    python3 perfbench/probe.py spans  STATS_FILE RECQI_ARGS...
    python3 perfbench/probe.py counts STATS_FILE RECQI_ARGS...
    python3 perfbench/probe.py micro  STATS_FILE

``spans`` runs one ``recqi`` command in-process with every function in
``layers.SPANS`` wrapped in a timing span; ``counts`` runs it with the
scalar operations in ``layers.COUNTED_OPS`` counted instead, so counting
never inflates span times; ``micro`` times single scalar operations. The
command's stdout, stderr and exit code are those of the real CLI, so the
parent checks them like any other run.

Wrappers replace the original function at every reference the package
holds: module globals (which covers ``from ... import`` bindings), values of
module-level dicts such as the CLI's operation tables, and class attributes.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
import timeit
from fractions import Fraction

import layers

PACKAGE_MODULES = (
    "recqi",
    "recqi.cli",
    "recqi.gaussian",
    "recqi.jacobi",
    "recqi.linalg",
    "recqi.recmat",
    "recqi.report",
    "recqi.thuemorse",
)


def rebind(original, replacement) -> int:
    """Point every package reference to ``original`` at ``replacement``."""
    found = 0
    for modname in PACKAGE_MODULES:
        module = sys.modules[modname]
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                found += 1
            elif type(value) is dict:
                for k, v in value.items():
                    if v is original:
                        value[k] = replacement
                        found += 1
            elif isinstance(value, type) and value.__module__ == modname:
                for k, v in list(vars(value).items()):
                    if v is original:
                        setattr(value, k, replacement)
                        found += 1
    return found


def resolve(modname: str, qualname: str):
    obj = importlib.import_module(modname)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


class SpanRecorder:
    """Aggregated spans: per name the calls, total and self time.

    Self time is a span's duration minus the time its direct child spans
    cover. ``edges`` counts calls per (parent span, span) pair, and
    ``sizes`` accumulates the ``layers.SIZERS`` values.
    """

    def __init__(self):
        self.stats: dict[str, list] = {}
        self.edges: dict[str, int] = {}
        self.sizes: dict[str, int] = {}
        self._stack = [["", 0.0]]

    def wrap(self, name, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        sizers = [(m, size) for m, (span, size) in layers.SIZERS.items() if span == name]
        stack, edges, sizes = self._stack, self.edges, self.sizes
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - frame[1]
                edge = f"{parent[0]}>{name}"
                edges[edge] = edges.get(edge, 0) + 1
            for metric, size in sizers:
                sizes[metric] = sizes.get(metric, 0) + size(args, result)
            return result

        return span

    def report(self) -> dict:
        return {
            "spans": {
                name: {"calls": c, "s": total, "self_s": own}
                for name, (c, total, own) in self.stats.items()
            },
            "edges": self.edges,
            "sizes": self.sizes,
        }


def run_spans(argv) -> tuple[int, dict]:
    cli = importlib.import_module("recqi.cli")
    recorder = SpanRecorder()
    for name, (modname, qualname) in layers.SPANS.items():
        original = resolve(modname, qualname)
        if not rebind(original, recorder.wrap(name, original)):
            raise RuntimeError(f"no reference to {modname}.{qualname} found")
    main = recorder.wrap("cli", cli.main)
    code = main(argv)
    return code, recorder.report()


def run_counts(argv) -> tuple[int, dict]:
    cli = importlib.import_module("recqi.cli")
    from recqi.gaussian import GaussianRational

    counts = {key: [0] for key in layers.COUNTED_OPS}

    def counted(fn, cell):
        @functools.wraps(fn)
        def counter(*args):
            cell[0] += 1
            return fn(*args)

        return counter

    for key, methods in layers.COUNTED_OPS.items():
        # an alias such as __rmul__ = __mul__ is rebound with its original
        for method in methods:
            original = vars(GaussianRational)[method]
            if getattr(original, "__wrapped__", None) is None:
                rebind(original, counted(original, counts[key]))
    code = cli.main(argv)
    return code, {"counts": {key: cell[0] for key, cell in counts.items()}}


def run_micro() -> dict:
    from recqi.gaussian import GaussianRational

    def operand(pair):
        (rn, rd), (imn, imd) = pair
        return GaussianRational(Fraction(rn, rd), Fraction(imn, imd))

    number, repeat = 20000, 7
    out = {}
    for metric, (stmt, left, right) in layers.MICRO.items():
        timer = timeit.Timer(stmt, globals={"a": operand(left), "b": operand(right)})
        samples = [timer.timeit(number) / number * 1e9 for _ in range(repeat)]
        out[metric] = statistics.median(samples)
    return {"micro": out}


def main(argv) -> int:
    mode, stats_path, *rest = argv
    for modname in PACKAGE_MODULES:  # load every module before rebinding
        importlib.import_module(modname)
    code = 0
    if mode == "spans":
        code, stats = run_spans(rest)
    elif mode == "counts":
        code, stats = run_counts(rest)
    elif mode == "micro":
        stats = run_micro()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
