"""The recqi benchmark: real CLI commands timed end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Every command runs as its own child process,
one at a time, with ``import recqi`` resolving to this checkout's ``src/``.

``--trace 0`` measures the end-to-end metrics. It cycles through the
workload's commands for ``--seconds``, giving each at least two samples.
``wall_s`` is the sum over commands of each command's median wall time;
``peak_rss_mb`` is the largest, over commands, of each command's median
``ru_maxrss``; ``setup_s`` is the median time to launch the interpreter and
import ``recqi.cli``, the fixed cost every command pays.

``--trace 1`` measures the per-layer metrics in ``layers.METRICS``: each
command runs once plain, once with layer spans and once with scalar-op
counters, and a microbenchmark times single scalar operations.

Every run checks every command's output (see ``workloads.py``). The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; lines before it record the environment and the
samples behind each median.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import runner
import workloads

HERE = Path(__file__).resolve().parent
SPEC_PATH = runner.ROOT / "BENCHMARK.json"
PROBE = str(HERE / "probe.py")

# untimed launches before the first sample; in a fresh checkout the first one
# also writes the bytecode cache, which no later launch pays for
WARMUP_LAUNCHES = 2
# timed set-up launches before each command, so that set-up samples the
# same stretch of machine time as the commands do
SETUP_PER_COMMAND = 3
# a command that outlasts --seconds still gets a second sample
MIN_SAMPLES = 2


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def git_rev() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(runner.ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=runner.ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]) != runner.ROOT:
        return None
    return lines[1]


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((runner.SRC / "recqi").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def check_environment(env: dict) -> dict:
    """Fail unless ``recqi`` imports from this checkout; describe the machine."""
    expected = runner.SRC / "recqi" / "__init__.py"
    if not expected.is_file():
        raise BenchError(f"no recqi sources under {runner.SRC}")
    probe = runner.run_child(
        ["-c", "import recqi, sys; sys.stdout.write(recqi.__file__)"], env
    )
    found = probe.stdout.decode(errors="replace")
    if probe.exit_code != 0 or Path(found).resolve() != expected:
        raise BenchError(f"recqi resolves to {found!r}, not {expected}")
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "src_sha256": src_digest(),
        "recqi_file": str(Path(found).resolve().relative_to(runner.ROOT)),
    }


class Tally:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self, seed: int, recorded: dict):
        self.seed = seed
        self.recorded = recorded
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, cmd: workloads.Command, result: runner.ChildResult) -> None:
        output = None
        if cmd.output_file:
            path = runner.WORK / cmd.output_file
            output = path.read_bytes() if path.is_file() else b""
        seen = workloads.observe(result.stdout, result.stderr, result.exit_code, output)
        attempted, failed, problems = workloads.check(cmd, self.seed, self.recorded, seen)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)


def run_command(cmd: workloads.Command, env: dict, tally: Tally) -> runner.ChildResult:
    result = runner.run_child(["-m", "recqi", *cmd.argv], env)
    tally.check(cmd, result)
    return result


def measure_setup(env: dict, samples: list, launches: int) -> None:
    for _ in range(launches):
        result = runner.run_child(["-c", "import recqi.cli"], env)
        if result.exit_code != 0:
            raise BenchError("importing recqi.cli failed")
        samples.append(result.wall_s)


def timed_run(cmds, env: dict, seconds: float, tally: Tally) -> tuple[dict, dict]:
    """Cycle through the workload's commands for ``seconds``.

    Once every command has ``MIN_SAMPLES`` samples, a command starts only
    if its median time so far still fits before the deadline, so a run
    ends close to ``seconds`` instead of overrunning by a whole command.
    """
    deadline = time.perf_counter() + seconds
    measure_setup(env, [], WARMUP_LAUNCHES)
    setup: list[float] = []
    walls: dict[str, list] = {cmd.name: [] for cmd in cmds}
    rss: dict[str, list] = {cmd.name: [] for cmd in cmds}
    for cmd in itertools.cycle(cmds):
        samples = walls[cmd.name]
        if len(samples) >= MIN_SAMPLES:
            cost = statistics.median(samples) + SETUP_PER_COMMAND * statistics.median(setup)
            if time.perf_counter() + cost > deadline:
                break
        measure_setup(env, setup, SETUP_PER_COMMAND)
        result = run_command(cmd, env, tally)
        samples.append(result.wall_s)
        rss[cmd.name].append(result.rss_mb)
    metrics = {
        "wall_s": sum(statistics.median(v) for v in walls.values()),
        "peak_rss_mb": max(statistics.median(v) for v in rss.values()),
        "setup_s": statistics.median(setup),
    }
    detail = {
        "wall_s_samples": walls,
        "rss_mb_samples": rss,
        "setup_s_samples": setup,
    }
    return metrics, detail


def probe_run(mode: str, args, env: dict) -> tuple[runner.ChildResult, dict]:
    stats_path = runner.WORK / "probe.json"
    stats_path.unlink(missing_ok=True)
    result = runner.run_child([PROBE, mode, str(stats_path), *args], env)
    if not stats_path.is_file():
        raise BenchError(
            f"probe {mode} {' '.join(args)} wrote no stats: {result.stderr[-2000:]!r}"
        )
    return result, json.loads(stats_path.read_text(encoding="utf-8"))


def traced_run(workload: str, cmds, env: dict, tally: Tally) -> tuple[dict, dict]:
    plain = {}
    spans: dict[str, dict] = {}
    edges: dict[str, int] = {}
    sizes: dict[str, int] = {}
    counts: dict[str, int] = {}
    traced_wall = 0.0
    for cmd in cmds:
        plain[cmd.name] = run_command(cmd, env, tally)
        result, stats = probe_run("spans", cmd.argv, env)
        tally.check(cmd, result)
        traced_wall += result.wall_s
        for name, s in stats["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += s[key]
        for table, part in ((edges, stats["edges"]), (sizes, stats["sizes"])):
            for key, value in part.items():
                table[key] = table.get(key, 0) + value
    for cmd in cmds:
        result, stats = probe_run("counts", cmd.argv, env)
        tally.check(cmd, result)
        for key, value in stats["counts"].items():
            counts[key] = counts.get(key, 0) + value
    _, micro = probe_run("micro", (), env)

    def span_calls(name):
        return spans.get(name, {}).get("calls", 0)

    table = "thuemorse.hankel_det_table"
    fallback = edges.get(f"{table}>thuemorse.hankel", 0) - span_calls(table)
    untraced_wall = sum(r.wall_s for r in plain.values())
    metrics = {}
    missing = []
    for metric, entry in layers.METRICS.items():
        kind = entry["kind"]
        calls = None
        if kind == "span":
            name, field = metric.rsplit(".", 1)
            value = spans.get(name, {}).get(field, 0)
            calls = span_calls(name)
        elif kind == "size":
            value = sizes.get(metric, 0)
            calls = span_calls(layers.SIZERS[metric][0])
        elif kind == "count":
            value = calls = counts.get(metric.split(".")[1], 0)
        elif kind == "micro":
            value = micro["micro"][metric]
        elif kind == "cli":
            _, name, field = metric.split(".")
            result = plain.get(name)
            value = calls = 0
            if result is not None:
                value = result.wall_s if field == "s" else result.rss_mb
                calls = 1
        elif kind == "fallback":
            value = fallback
        elif kind == "overhead":
            value = traced_wall - untraced_wall
        else:  # fail_ratio is filled in once every check has run
            continue
        if workload in entry["required"] and not calls:
            missing.append(metric)
        metrics[metric] = value
    if missing:
        raise BenchError(f"traced run recorded no calls for: {', '.join(missing)}")
    detail = {
        "untraced_wall_s": untraced_wall,
        "traced_wall_s": traced_wall,
        "spans": spans,
    }
    return metrics, detail


def load_spec() -> dict:
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer"]]
    if names != list(layers.METRICS):
        raise BenchError("BENCHMARK.json per_layer names differ from layers.METRICS")
    return spec


def parse_args(argv):
    parser = argparse.ArgumentParser(description="recqi benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    # SIGTERM unwinds like an exception, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    args = parse_args(argv)
    try:
        spec = load_spec()
        env = runner.child_env()
        info = check_environment(env)
        recorded = workloads.load_expected()
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    info.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace
    )
    print(json.dumps({"env": info}))

    cmds = workloads.commands(args.workload, args.seed, runner.WORK)
    tally = Tally(args.seed, recorded)
    try:
        if args.trace:
            values, detail = traced_run(args.workload, cmds, env, tally)
            values["fail_ratio"] = tally.failed / tally.attempted
            section = "per_layer"
        else:
            values, detail = timed_run(cmds, env, args.seconds, tally)
            section = "end_to_end"
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": detail}))
    for problem in tally.problems:
        print(f"output check: {problem}", file=sys.stderr)
    units = {m["name"]: m["unit"] for m in spec[section]}
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
