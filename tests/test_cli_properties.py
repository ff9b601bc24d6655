"""Property test over the command-line argument space.

Invocations are drawn from every command with small sizes plus malformed and
out-of-range values, by a random generator with a fixed seed, so every run
checks the same cases.  Each must end in a documented exit code, without a
traceback, within the per-case time bound.  A setting must act the same
whether it is given as a flag or as a config-file key: part of each drawn
invocation moves into a config file, and the exit code and report bytes must
not change.
"""

import contextlib
import io
import json
import random
import tempfile
import time
from pathlib import Path

import pytest

from rkboundary.cli import main

# each value space is a function of the generator that draws one flag value


def _pick(*choices):
    return lambda rng: rng.choice(choices)


def _ints(low, high):
    return lambda rng: str(rng.randint(low, high))


def _one_of(*spaces):
    return lambda rng: rng.choice(spaces)(rng)


MALFORMED = _pick("", "abc", "-1", "0", "2.5", "1e400", "nan", "inf")


def _or_malformed(valid):
    return _one_of(valid, MALFORMED)


_TOL = _or_malformed(_pick("1e-12", "1e-8", "1e-3", "0.5"))
_SECTION = {
    "kernel": _pick("szego", "bargmann", "cantor4", "sinc", "nosuch"),
    # levels 10..12 on the default exact Cantor measure take 0.5-1.5 s each
    "level": _one_of(_ints(1, 9), _pick("0", "13", "20", "21", "x")),
    "points": _one_of(lambda rng: f"grid{rng.randint(0, 12)}",
                      _pick("0.1,0.2+0.3j", "1.5", "0.5,0.5", "x", "")),
    "tol": _TOL,
}
_MEASURE = {
    "measure": _pick("uniform:64", "gauss-hermite:8", "cantor-ifs:6", "cantor-exact",
                     "band:32", "bogus:3", "uniform:x", "atomic:"),
    "scale": _or_malformed(_pick("1", "2", "0.5")),
}
_SEED = {"seed": _one_of(_ints(0, 99), _pick("-1", "x"))}

FLAGS = {
    "pd-check": _SECTION,
    "factorize": {**_SECTION, **_MEASURE},
    "isometry": {**_SECTION, **_MEASURE, **_SEED, "samples": _or_malformed(_ints(1, 10))},
    "carleson": {**_SECTION, **_MEASURE},
    "adjoint-roundtrip": {**_SECTION, **_MEASURE, **_SEED,
                          "probes": _or_malformed(_ints(1, 10))},
    "project": {**_SECTION, **_MEASURE, "freq": _one_of(_ints(-3, 3), _pick("x"))},
    "gp": {**_SECTION, **_SEED, "samples": _or_malformed(_ints(1, 500))},
    "shannon": {
        "tol": _TOL,
        "shift": _pick("-0.5", "0.3", "2", "nan", "x"),
        "support": _or_malformed(_ints(1, 40)),
        "grid": _pick("-1:1:0.25", "0:2:0.5", "0:1:0", "1:0:0.1", "0:1", "a:b:c"),
    },
    "cantor-onb": {
        "tol": _TOL,
        "level": _one_of(_ints(1, 5), _pick("0", "13", "x")),
        "freq": _one_of(_ints(-5, 70), _pick("x")),
        "parseval-max": _one_of(_ints(2, 8), _pick("1", "15", "x")),
    },
    "morphism": {"tol": _TOL},
}


def invocation(rng):
    """A command, its drawn flag values, the subset of them to move into a
    config file, and whether the file's keys use underscores."""
    command = rng.choice(sorted(FLAGS))
    values = {key: space(rng) for key, space in FLAGS[command].items() if rng.random() < 0.5}
    in_file = {key for key in values if rng.random() < 0.5}
    return command, values, in_file, rng.random() < 0.5


_RNG = random.Random(20240901)
CASES = {f"{i:02d}": invocation(_RNG) for i in range(60)}
# the largest drawn level on the default exact Cantor measure, which the draw may miss
CASES["isometry-cantor4-level9"] = (
    "isometry", {"kernel": "cantor4", "level": "9", "samples": "10"}, {"level"}, True)

SECONDS_PER_CASE = 5.0


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_flag_and_config_key_give_the_same_outcome(case):
    started = time.perf_counter()
    command, values, in_file, underscored = case
    as_flags = [f"--{key}={value}" for key, value in values.items()]
    code, out, err = _run([command, *as_flags])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err

    entries = {(key.replace("-", "_") if underscored else key): values[key] for key in in_file}
    rest = [f"--{key}={value}" for key, value in values.items() if key not in in_file]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.json"
        path.write_text(json.dumps(entries))
        via_file = _run([command, *rest, "--config", str(path)])
    assert "Traceback" not in via_file[2]
    assert via_file[:2] == (code, out)
    assert time.perf_counter() - started < SECONDS_PER_CASE
