"""Property test over the command-line argument space.

Invocations are drawn from every command with small sizes plus malformed and
out-of-range values.  Each must end in a documented exit code, without a
traceback, within the example deadline.  A setting must act the same whether
it is given as a flag or as a config-file key: part of each drawn invocation
moves into a config file, and the exit code and report bytes must not change.
"""

import contextlib
import io
import json
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from rkboundary.cli import main

MALFORMED = st.sampled_from(["", "abc", "-1", "0", "2.5", "1e400", "nan", "inf"])


def _ints(low, high):
    return st.integers(low, high).map(str)


def _or_malformed(valid):
    return st.one_of(valid, MALFORMED)


_TOL = _or_malformed(st.sampled_from(["1e-12", "1e-8", "1e-3", "0.5"]))
_SECTION = {
    "kernel": st.sampled_from(["szego", "bargmann", "cantor4", "sinc", "nosuch"]),
    # levels 10..12 on the default exact Cantor measure take 0.5-1.5 s each
    "level": st.one_of(_ints(1, 9), st.sampled_from(["0", "13", "20", "21", "x"])),
    "points": st.one_of(st.integers(0, 12).map(lambda n: f"grid{n}"),
                        st.sampled_from(["0.1,0.2+0.3j", "1.5", "0.5,0.5", "x", ""])),
    "tol": _TOL,
}
_MEASURE = {
    "measure": st.sampled_from(["uniform:64", "gauss-hermite:8", "cantor-ifs:6",
                                "cantor-exact", "band:32", "bogus:3", "uniform:x", "atomic:"]),
    "scale": _or_malformed(st.sampled_from(["1", "2", "0.5"])),
}
_SEED = {"seed": st.one_of(_ints(0, 99), st.sampled_from(["-1", "x"]))}

FLAGS = {
    "pd-check": _SECTION,
    "factorize": {**_SECTION, **_MEASURE},
    "isometry": {**_SECTION, **_MEASURE, **_SEED, "samples": _or_malformed(_ints(1, 10))},
    "carleson": {**_SECTION, **_MEASURE},
    "adjoint-roundtrip": {**_SECTION, **_MEASURE, **_SEED,
                          "probes": _or_malformed(_ints(1, 10))},
    "project": {**_SECTION, **_MEASURE, "freq": st.one_of(_ints(-3, 3), st.just("x"))},
    "gp": {**_SECTION, **_SEED, "samples": _or_malformed(_ints(1, 500))},
    "shannon": {
        "tol": _TOL,
        "shift": st.sampled_from(["-0.5", "0.3", "2", "nan", "x"]),
        "support": _or_malformed(_ints(1, 40)),
        "grid": st.sampled_from(["-1:1:0.25", "0:2:0.5", "0:1:0", "1:0:0.1", "0:1", "a:b:c"]),
    },
    "cantor-onb": {
        "tol": _TOL,
        "level": st.one_of(_ints(1, 5), st.sampled_from(["0", "13", "x"])),
        "freq": st.one_of(_ints(-5, 70), st.just("x")),
        "parseval-max": st.one_of(_ints(2, 8), st.sampled_from(["1", "15", "x"])),
    },
    "morphism": {"tol": _TOL},
}


@st.composite
def invocations(draw):
    """A command, its drawn flag values, and the subset of them to move into a config file."""
    command = draw(st.sampled_from(sorted(FLAGS)))
    values = draw(st.fixed_dictionaries({}, optional=FLAGS[command]))
    in_file = draw(st.sets(st.sampled_from(sorted(values)))) if values else set()
    underscored = draw(st.booleans())
    return command, values, in_file, underscored


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=timedelta(seconds=5), derandomize=True, database=None)
@given(invocations())
# the largest drawn level on the default exact Cantor measure, which the derandomized draw may miss
@example(("isometry", {"kernel": "cantor4", "level": "9", "samples": "10"}, {"level"}, True))
def test_flag_and_config_key_give_the_same_outcome(invocation):
    command, values, in_file, underscored = invocation
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
