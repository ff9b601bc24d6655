"""Run one child process under a deadline and collect its exit status and rusage.

The child is started with ``posix_spawn`` and reaped with ``wait4``, so the
wall time runs from spawn to exit and the peak RSS is the child's own.  The
deadline is a one-shot SIGALRM whose handler kills the child; ``wait4`` then
returns normally, so a hang becomes a counted failure and the run goes on.
"""

from __future__ import annotations

import os
import signal
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Outcome:
    """Exit code (None when killed at the deadline), wall seconds and peak RSS in KiB."""

    exit_code: int | None
    wall_s: float
    max_rss_kb: int
    timed_out: bool


def run_child(argv: list, env: dict, stdout_path, stderr_path, timeout_s: float) -> Outcome:
    """Spawn ``argv`` with stdout/stderr redirected to files and wait for it.

    ``argv[0]`` must be an absolute path; stdin is ``/dev/null``.
    """
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, str(stdout_path), flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr_path), flags, 0o644),
    ]
    state = {"pid": None, "reaped": False, "timed_out": False}

    def on_alarm(signum, frame):
        if state["pid"] is not None and not state["reaped"]:
            state["timed_out"] = True
            os.kill(state["pid"], signal.SIGKILL)

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        start = time.perf_counter()
        state["pid"] = os.posix_spawn(argv[0], argv, env, file_actions=actions)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        try:
            _, status, usage = os.wait4(state["pid"], 0)
            state["reaped"] = True
        except BaseException:
            # interrupted while waiting: never leave the child running or unreaped
            os.kill(state["pid"], signal.SIGKILL)
            os.wait4(state["pid"], 0)
            state["reaped"] = True
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    code = None if state["timed_out"] else os.waitstatus_to_exitcode(status)
    return Outcome(code, wall, int(usage.ru_maxrss), state["timed_out"])
