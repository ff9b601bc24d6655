"""Shared samplers, fixed point sets and process runners for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rkboundary._linalg import row_blocks

GOLDEN = 0.6180339887498949
SRC = Path(__file__).resolve().parent.parent / "src"

# spawns argv from a bare interpreter and prints its exit code and ru_maxrss:
# a child's max-RSS counts the memory of the process it was forked from up to
# its exec, so a run spawned from pytest would read pytest's own size
LAUNCH = ("import os, sys; pid = os.posix_spawn(sys.argv[1], sys.argv[1:], os.environ); "
          "_, status, usage = os.wait4(pid, 0); "
          "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)")


def block_rows(width):
    """Row count of a full block of a ``(rows, width)`` evaluation."""
    return next(row_blocks(10 ** 9, width)).stop


def cli_process_peak(*argv):
    """Exit code and peak resident memory in kilobytes (Linux ``ru_maxrss``)
    of one ``python -m rkboundary`` process, interpreter and numpy included."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    command = [sys.executable, "-c", LAUNCH, sys.executable, "-m", "rkboundary", *argv]
    done = subprocess.run(command, env=env, capture_output=True, text=True, timeout=120)
    code, max_rss_kb = (int(x) for x in done.stdout.split())
    return code, max_rss_kb


def kernel_dist(kernel, s, t):
    """The kernel metric sqrt(K(s,s) + K(t,t) - 2 Re K(s,t)) from kernel values,
    clamped at zero against rounding."""
    sq = np.real(kernel(s, s)) + np.real(kernel(t, t)) - 2.0 * np.real(kernel(s, t))
    return np.sqrt(np.clip(sq, 0.0, None))


def spiral_points(n, rmin, rmax):
    """Deterministic low-discrepancy points on an annulus in the plane."""
    k = np.arange(n)
    radius = rmin + (rmax - rmin) * k / max(n - 1, 1)
    return radius * np.exp(2j * np.pi * np.mod(GOLDEN * k, 1.0))


def disk_points(rng, n, radius=0.9):
    r = radius * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def plane_points(rng, n, radius=2.0):
    r = radius * np.sqrt(rng.uniform(size=n))
    return r * np.exp(2j * np.pi * rng.uniform(size=n))


def line_points(rng, n, half_width=5.0):
    return rng.uniform(-half_width, half_width, size=n)


@pytest.fixture
def rng():
    return np.random.default_rng(20240901)
