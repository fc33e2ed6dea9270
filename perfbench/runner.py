"""Child-process launcher: one child at a time, timed, with its peak RSS.

The child's stdout and stderr go to files in the work directory so the
parent can block in ``os.wait4`` and read the child's resource usage.

On a shared host each virtual CPU slows down on its own, in spells that last
seconds, when other guests load the physical core under it. A child that
stayed on one CPU would see only that CPU's spells, so a helper thread moves
the child from one usable CPU to the next every ``SWITCH_S`` seconds, and
successive children start on successive CPUs. Each sample then averages
over all the CPUs, which narrows the run-to-run spread of wall times. The
same thread kills a child that outlives its time limit.
"""

from __future__ import annotations

import itertools
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

CHILD_TIMEOUT_S = 150.0
SWITCH_S = 0.2
CPUS = sorted(os.sched_getaffinity(0))
_launches = itertools.count()


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    rss_mb: float
    stdout: bytes
    stderr: bytes


def child_env() -> dict:
    """Environment that makes ``import recqi`` resolve to this checkout's src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _pin(pid: int, turn: int) -> None:
    try:
        os.sched_setaffinity(pid, {CPUS[turn % len(CPUS)]})
    except OSError:
        pass  # the child has already exited


def _watch(pid: int, turn: int, deadline: float, done: threading.Event) -> None:
    """Move the child to the next CPU every ``SWITCH_S``; kill it at ``deadline``."""
    while not done.wait(SWITCH_S):
        if time.perf_counter() > deadline:
            os.kill(pid, signal.SIGKILL)
            return
        turn += 1
        _pin(pid, turn)


def run_child(args, env: dict, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run ``python3 ARGS`` to completion; wall time covers spawn to exit.

    The child is not reaped until the helper thread has stopped, so the
    thread never acts on a process id the system has handed to another
    process. If the wait is interrupted, the child is killed and reaped.
    """
    WORK.mkdir(exist_ok=True)
    out_path = WORK / "child.stdout"
    err_path = WORK / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args],
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            env=env,
            cwd=ROOT,
        )
        turn = next(_launches)
        _pin(proc.pid, turn)
        done = threading.Event()
        watcher = threading.Thread(
            target=_watch, args=(proc.pid, turn, start + timeout, done)
        )
        watcher.start()
        try:
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            raise
        finally:
            done.set()
            watcher.join()
            _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        exit_code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss / 1024.0,
        stdout=out_path.read_bytes(),
        stderr=err_path.read_bytes(),
    )
