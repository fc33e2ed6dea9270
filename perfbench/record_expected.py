"""Record the reference outputs that every benchmark run is checked against.

    python3 perfbench/record_expected.py

Run from a checkout of the commit whose outputs are the reference. For each
command of every workload it writes the exit code, ``k/n rows match``
summary, row count and SHA-256 of the output to ``expected.json``. The
``conjecture-check`` digest depends on the seed and is rebuilt per run, so
here it is only checked against the rebuilt table for seed 0.
"""

from __future__ import annotations

import json
import sys

import runner
import workloads


def main() -> int:
    recorded = {}
    for workload in workloads.WORKLOADS:
        for cmd in workloads.commands(workload, 0, runner.WORK):
            result = runner.run_child(["-m", "recqi", *cmd.argv], runner.child_env())
            output = None
            if cmd.output_file:
                output = (runner.WORK / cmd.output_file).read_bytes()
            seen = workloads.observe(result.stdout, result.stderr, result.exit_code, output)
            if seen["exit_code"] != 0 or seen["failed_rows"]:
                print(f"{cmd.name}: the reference run failed: {seen}", file=sys.stderr)
                return 1
            if cmd.name == "conjecture-check":
                if seen["sha256"] != workloads.digest(workloads.conjecture_stdout(0)):
                    print(
                        "conjecture-check: rebuilt table differs from the CLI's",
                        file=sys.stderr,
                    )
                    return 1
                del seen["sha256"]
            del seen["failed_rows"]
            recorded[cmd.name] = seen
    text = json.dumps(recorded, indent=2, sort_keys=True) + "\n"
    workloads.EXPECTED_PATH.write_text(text, encoding="utf-8")
    print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
