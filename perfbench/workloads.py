"""The benchmark's workloads and the check applied to every command's output.

A workload is a fixed list of ``recqi`` CLI commands run one after another.
Each command's exit code, ``k/n rows match`` summary line, row count and a
SHA-256 of its output are compared with values recorded from the seed
commit in ``expected.json`` (regenerate with ``record_expected.py``).
``conjecture-check`` is the only command that takes the workload seed; its
expected table is rebuilt from the seed by drawing the sign prefixes the way
the CLI documents (``random.Random(seed)``, one ``choice((1, -1))`` per
position), with every row expected to read ``yes``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"

# conjecture-check defaults, as the CLI defines them
CONJ_TRIALS = 20
CONJ_PREFIX_LEN = 10
CONJ_MAX_N = 128

# file the presentations workload writes with `recmat product` and reads back
PRODUCT_FILE = "lu.json"

WORKLOADS = ("hankel_minors", "jfraction", "presentations")


@dataclass(frozen=True)
class Command:
    """One CLI invocation: a metric-friendly name and its argv after ``recqi``.

    ``output_file`` names a file in the work directory that the command
    writes instead of stdout; its bytes are what the digest covers.
    """

    name: str
    argv: tuple
    output_file: str | None = None


def commands(workload: str, seed: int, work: Path) -> list[Command]:
    """Commands of a workload; ``work`` is where intermediate files go."""
    product = str(work / PRODUCT_FILE)
    if workload == "hankel_minors":
        return [
            Command("verify-det", ("verify-det", "--max-n", "300")),
            Command("conjecture-check", ("conjecture-check", f"--seed={seed}")),
        ]
    if workload == "jfraction":
        return [Command("jfraction", ("jfraction", "--count", "255"))]
    if workload == "presentations":
        return [
            Command("verify-lu", ("verify-lu", "--depth", "7")),
            Command("recmat-unfold", ("recmat", "unfold", "builtin:H", "--depth", "8")),
            Command(
                "recmat-product",
                ("recmat", "product", "builtin:L", "builtin:U", "-o", product),
                output_file=PRODUCT_FILE,
            ),
            Command("recmat-minimize", ("recmat", "minimize", product)),
        ]
    raise KeyError(workload)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def conjecture_stdout(seed: int) -> bytes:
    """The table ``conjecture-check --seed=SEED`` prints when every row holds."""
    rng = random.Random(seed)
    lines = ["trial,sigma,checked_n,match"]
    for trial in range(CONJ_TRIALS):
        signs = [rng.choice((1, -1)) for _ in range(CONJ_PREFIX_LEN)]
        sigma = "".join("+" if s == 1 else "-" for s in signs)
        lines.append(f"{trial},{sigma},{CONJ_MAX_N},yes")
    return ("\n".join(lines) + "\n").encode()


def observe(stdout: bytes, stderr: bytes, exit_code: int, output: bytes | None) -> dict:
    """What the check compares: exit code, summary, rows, digest, failed rows.

    Rows are the data lines of the checked output. For a verification table
    (one whose summary reads ``k/n rows match``) the last column of each
    row is its match flag, and ``failed_rows`` counts the ones not ``yes``.
    """
    body = stdout if output is None else output
    err_lines = stderr.decode(errors="replace").splitlines()
    summary = err_lines[-1] if err_lines and err_lines[-1].endswith("rows match") else ""
    lines = body.decode(errors="replace").splitlines()
    failed_rows = 0
    if summary:
        lines = lines[1:]  # header
        failed_rows = sum(1 for ln in lines if ln.rsplit(",", 1)[-1] != "yes")
    return {
        "exit_code": exit_code,
        "summary": summary,
        "rows": len(lines),
        "sha256": digest(body),
        "failed_rows": failed_rows,
    }


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def check(cmd: Command, seed: int, recorded: dict, seen: dict) -> tuple[int, int, list]:
    """(attempted, failed, problems) for one command run.

    Operations are the command itself plus each verification row. The
    command fails if its exit code, summary, row count or digest differs
    from the recording; each row fails if its match flag is not ``yes``.
    """
    exp = dict(recorded[cmd.name])
    if cmd.name == "conjecture-check":
        exp["sha256"] = digest(conjecture_stdout(seed))
    problems = [
        f"{cmd.name}: {key} {seen[key]!r} != expected {exp[key]!r}"
        for key in ("exit_code", "summary", "rows", "sha256")
        if seen[key] != exp[key]
    ]
    if seen["failed_rows"]:
        problems.append(f"{cmd.name}: {seen['failed_rows']} rows do not match")
    rows = seen["rows"] if seen["summary"] else 0
    attempted = 1 + rows
    failed = (1 if problems else 0) + seen["failed_rows"]
    return attempted, failed, problems
