"""Command-line driver: parsing, dispatch, report emission, determinism."""

import argparse
import dataclasses
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import rkboundary.cli
from rkboundary import __version__
from rkboundary.cli import (
    EXIT_NUMERICAL,
    EXIT_PASS,
    EXIT_USAGE,
    EXIT_VERDICT_FAIL,
    MAX_EXACT_INT,
    MAX_ISOMETRY_SAMPLES,
    MAX_PROBES,
    MAX_SCALE,
    MAX_SHANNON_GRID,
    MAX_SHANNON_SUPPORT,
    _KERNELS,
    _MEASURE_KINDS,
    _domain_probes,
    build_parser,
    builtin_grid,
    emit,
    main,
    make_kernel,
    make_measure,
    parse_config,
    run,
)
from rkboundary.kernels import (
    BargmannKernel,
    BoundaryExtension,
    Cantor4Kernel,
    SincKernel,
    SzegoKernel,
    build_section,
)


# -- parsing ------------------------------------------------------------------

def test_missing_command_is_usage_error(capsys):
    assert main([]) == EXIT_USAGE


def test_unknown_flag_is_usage_error(capsys):
    assert main(["factorize", "--no-such-flag", "1"]) == EXIT_USAGE


def test_negative_tolerance_rejected(capsys):
    assert main(["factorize", "--tol", "-1"]) == EXIT_USAGE


def test_malformed_number_rejected(capsys):
    assert main(["factorize", "--tol", "abc"]) == EXIT_USAGE


@pytest.mark.parametrize("argv, config", [
    ([], None),
    (["no-such-command"], None),
    (["pd-check", "--bogus"], None),
    (["factorize", "--tol", "x"], None),
    (["factorize", "--tol"], None),
    (["factorize"], {"bogus": 1}),
], ids=["no-command", "unknown-command", "unknown-flag", "bad-value", "missing-value",
        "config-key-not-a-flag"])
def test_every_usage_error_is_one_line(argv, config, tmp_path, capsys):
    # argparse printed its usage block and "rkboundary: error: ..." for some of
    # these, and Python 3.13 printed "usage error: None ..." for them
    if config is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("usage error: ")
    assert "None" not in lines[0] and "usage: rkboundary" not in lines[0]


def test_defaults_resolved():
    cfg = parse_config(["factorize", "--kernel", "szego"])
    assert cfg.command == "factorize"
    assert cfg.kernel == "szego"
    assert cfg.tol == 1e-8
    assert "seed" not in vars(cfg)  # factorize draws no random numbers
    assert cfg.format == "json"


def test_config_file_merging(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kernel": "sinc", "tol": 1e-6, "seed": 9}))
    cfg = parse_config(["isometry", "--config", str(path), "--seed", "4"])
    assert cfg.kernel == "sinc"
    assert cfg.tol == 1e-6
    assert cfg.seed == 4  # flags override file values


def test_config_file_and_flags_emit_the_same_bytes(tmp_path, capsys):
    # the config-file path is delivery metadata, never echoed
    flags = ["--kernel", "sinc", "--points", "grid4", "--samples", "5", "--seed", "2"]
    assert main(["isometry", *flags]) == EXIT_PASS
    from_flags = capsys.readouterr().out
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"kernel": "sinc", "points": "grid4", "samples": 5}))
    assert main(["isometry", "--config", str(path), "--seed", "2"]) == EXIT_PASS
    from_file = capsys.readouterr().out
    assert from_file.encode() == from_flags.encode()
    assert "config" not in json.loads(from_file)["config"]


def test_config_file_unknown_key(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"not-a-flag": 1}))
    assert main(["isometry", "--config", str(path)]) == EXIT_USAGE
    path.write_text(json.dumps({"seed": "abc"}))
    assert main(["isometry", "--config", str(path)]) == EXIT_USAGE
    path.write_text(json.dumps({"samples": -5}))  # the flag parser would reject it
    assert main(["isometry", "--config", str(path)]) == EXIT_USAGE


def test_config_keys_are_long_flag_names(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"format": "csv", "parseval-max": 4, "level": 3}))
    assert main(["cantor-onb", "--config", str(path)]) == EXIT_PASS
    assert capsys.readouterr().out.startswith("# report,cantor-onb")
    path.write_text(json.dumps({"fmt": "csv"}))  # no flag is named fmt
    assert main(["cantor-onb", "--config", str(path)]) == EXIT_USAGE


def test_every_option_stores_under_its_long_flag_name():
    # the report echoes the namespace, and a config file replays it as long
    # flags, so an attribute named otherwise (--format stored as fmt) is an
    # echo key that no config file can give back
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    renamed = {(name, opt): action.dest for name, p in sub.choices.items()
               for action in p._actions for opt in action.option_strings
               if opt.startswith("--") and opt != "--help"
               and action.dest != opt[2:].replace("-", "_")}
    assert renamed == {}


def test_echo_holds_the_kernel_defaults():
    echo = run(parse_config(["factorize"]))["config"]
    assert (echo["measure"], echo["points"]) == ("uniform:2048", "grid10")
    assert "level" not in echo  # szego has no truncation level
    # a sized kind given without a size runs, and is echoed, at its default size
    assert parse_config(["carleson", "--measure", "uniform"]).measure == "uniform:2048"
    assert parse_config(["gp", "--kernel", "cantor4"]).level == 6


@pytest.mark.parametrize("argv", [
    ["factorize", "--seed", "1"],
    ["carleson", "--seed", "1"],
    ["pd-check", "--scale", "2"],
    ["carleson", "--kernel", "szego", "--level", "3"],
    ["pd-check", "--kernel", "sinc", "--level", "3"],
])
def test_flag_a_command_does_not_read_is_usage_error(argv, capsys):
    assert main(argv) == EXIT_USAGE


_SECTION = ["--kernel", "--level"]
_MEASURE = ["--measure", "--scale"]
_OUTPUT = ["--out", "--format", "--config"]
# each command's long options in the order its --help lists them
_HELP_ORDER = {
    "pd-check": [*_SECTION, "--points", "--tol", *_OUTPUT],
    "factorize": [*_SECTION, *_MEASURE, "--points", "--tol", *_OUTPUT],
    "isometry": [*_SECTION, *_MEASURE, "--points", "--tol", "--seed", *_OUTPUT, "--samples"],
    "carleson": [*_SECTION, *_MEASURE, "--points", "--tol", *_OUTPUT],
    "adjoint-roundtrip": [*_SECTION, *_MEASURE, "--points", "--tol", "--seed", *_OUTPUT,
                          "--probes"],
    "project": [*_SECTION, *_MEASURE, "--points", "--tol", *_OUTPUT, "--freq"],
    "gp": [*_SECTION, "--points", "--tol", "--seed", *_OUTPUT, "--samples"],
    "shannon": ["--tol", *_OUTPUT, "--shift", "--support", "--grid"],
    "cantor-onb": ["--tol", *_OUTPUT, "--level", "--freq", "--parseval-max"],
    "morphism": ["--tol", *_OUTPUT],
}


def test_each_command_lists_its_options_in_help_order():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    listed = {name: [opt for action in p._actions for opt in action.option_strings
                     if opt.startswith("--") and opt != "--help"]
              for name, p in sub.choices.items()}
    assert list(listed) == list(_HELP_ORDER)
    assert listed == _HELP_ORDER


def test_points_inline_and_file(tmp_path):
    cfg = parse_config(["factorize", "--points", "0.1,0.2+0.3j"])
    from rkboundary.cli import make_points

    kernel = make_kernel(cfg)
    pts = make_points(cfg, kernel)
    assert pts.tolist() == [0.1 + 0j, 0.2 + 0.3j]

    path = tmp_path / "pts.json"
    path.write_text(json.dumps({"points": [[0.1, 0.0], [0.0, -0.4], 0.25]}))
    cfg = parse_config(["factorize", "--points", str(path)])
    pts = make_points(cfg, make_kernel(cfg))
    assert pts.tolist() == [0.1 + 0j, -0.4j, 0.25 + 0j]

    tagged = tmp_path / "tagged.json"
    tagged.write_text(json.dumps({"domain": "line", "points": [0.0, 1.0]}))
    cfg = parse_config(["factorize", "--kernel", "sinc", "--points", str(tagged)])
    assert make_points(cfg, make_kernel(cfg)).tolist() == [0.0, 1.0]
    assert main(["factorize", "--kernel", "szego", "--points", str(tagged)]) == EXIT_USAGE


def test_builtin_grids():
    disk = builtin_grid(10, SzegoKernel())
    assert disk.shape == (10,)
    assert np.all(np.abs(disk) <= 0.9 + 1e-12)
    line = builtin_grid(5, SincKernel())
    assert line.tolist() == [-2.0, -1.0, 0.0, 1.0, 2.0]
    # every point keeps its bits: the golden-angle spiral, written out per domain
    for n in (1, 2, 7):
        k = np.arange(n)
        turn = np.exp(1j * (2.0 * np.pi * np.mod(0.6180339887498949 * k, 1.0)))
        expected = {"disk": (0.15 + 0.75 * k / max(n - 1, 1)) * turn,
                    "plane": (2.0 * (k + 1) / n) * turn,
                    "line": k - (n - 1) / 2.0}
        for kernel in (SzegoKernel(), Cantor4Kernel(level=6), BargmannKernel(), SincKernel()):
            np.testing.assert_array_equal(builtin_grid(n, kernel), expected[kernel.domain])


@pytest.mark.parametrize("kernel", [SzegoKernel(), BargmannKernel(), SincKernel()],
                         ids=["disk", "plane", "line"])
def test_domain_probes_keep_their_draws(kernel):
    # the adjoint-roundtrip probes: a uniform disk of radius 0.9 or 2, drawn
    # as radius then angle, or a uniform interval on the line
    probes = _domain_probes(kernel, np.random.default_rng(11), 9)
    rng = np.random.default_rng(11)
    if kernel.domain == "line":
        expected = rng.uniform(-5.0, 5.0, size=9)
    else:
        r = {"disk": 0.9, "plane": 2.0}[kernel.domain] * np.sqrt(rng.uniform(size=9))
        expected = r * np.exp(2j * np.pi * rng.uniform(size=9))
    np.testing.assert_array_equal(probes, expected)


# -- runs ---------------------------------------------------------------------

def test_factorize_szego_passes(capsys):
    code = main(["factorize", "--kernel", "szego", "--measure", "uniform:1024",
                 "--points", "grid6", "--tol", "1e-10"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    doc = json.loads(captured.out)
    assert doc["command"] == "factorize"
    assert doc["scalars"]["membership_defect"] < 1e-10
    assert doc["verdicts"][0]["passed"] is True


def test_carleson_scaled_measure_fails_verdict(capsys):
    code = main(["carleson", "--kernel", "szego", "--measure", "uniform:1024",
                 "--scale", "2", "--points", "grid6"])
    captured = capsys.readouterr()
    assert code == EXIT_VERDICT_FAIL
    doc = json.loads(captured.out)
    assert doc["scalars"]["carleson_constant_estimate"] == pytest.approx(2.0, abs=1e-7)


def test_domain_violation_is_numerical_failure(capsys):
    assert main(["factorize", "--kernel", "szego", "--points", "1.5"]) == EXIT_NUMERICAL


@pytest.mark.parametrize("grid", ["0:1:0", "1:0:0.1"])
def test_shannon_degenerate_grid_is_usage_error(grid, capsys):
    assert main(["shannon", f"--grid={grid}"]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("usage error:")


def test_unexpected_failure_exits_3_without_traceback(monkeypatch, capsys):
    # an exception a runner does not expect is a crash, not a failed verdict
    def crash(cfg, report):
        raise OverflowError("int too large to convert to float")

    monkeypatch.setitem(rkboundary.cli._RUNNERS, "cantor-onb", crash)
    assert main(["cantor-onb"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: OverflowError: int too large to convert to float\n"


def test_factorize_empty_section(capsys):
    assert main(["factorize", "--points", "grid0"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["tables"]["factorization_deviation"]["rows"] == []
    assert doc["tables"]["pencil_eigenvalues"]["rows"] == []


def test_carleson_empty_section(capsys):
    # the empty span witnesses no unit constant: a failed verdict, not a crash
    assert main(["carleson", "--points", "grid0"]) == EXIT_VERDICT_FAIL
    doc = json.loads(capsys.readouterr().out)
    assert doc["scalars"]["carleson_constant_estimate"] == 0.0
    assert doc["tables"]["pencil_eigenvalues"]["rows"] == []
    assert doc["verdicts"][0]["value"] == 1.0


_EXACT_CANTOR_PAIRING = ("usage error: bad measure descriptor 'cantor-exact': the exact Cantor "
                         "measure pairs only with the truncated Cantor kernel at level at most 12")


@pytest.mark.parametrize("argv, line", [
    (["factorize", "--kernel", "cantor4", "--level", "15"], _EXACT_CANTOR_PAIRING),
    (["isometry", "--kernel", "cantor4", "--measure", "cantor-exact", "--level", "13"],
     _EXACT_CANTOR_PAIRING),
    (["cantor-onb", "--level", "13"], "usage error: argument --level: must be in 1..12, got 13"),
], ids=["argv0", "argv1", "argv2"])
def test_exact_cantor_route_above_size_limit_is_usage_error(argv, line, capsys):
    started = time.perf_counter()
    assert main(argv) == EXIT_USAGE
    assert time.perf_counter() - started < 5.0
    assert capsys.readouterr().err == line + "\n"


_PAIRING_ATOMS = {"atomic-real": [0.1, 0.7], "atomic-complex": [[0.1, 0.2], [0.7, -0.1]]}


@pytest.mark.parametrize("command", ["factorize", "carleson", "isometry", "adjoint-roundtrip",
                                     "project"])
@pytest.mark.parametrize("measure", ["uniform:64", "gauss-hermite:8", "cantor-ifs:6", "band:40",
                                     "cantor-exact", *_PAIRING_ATOMS])
@pytest.mark.parametrize("kernel", sorted(_KERNELS))
def test_no_kernel_measure_pair_exits_3(kernel, measure, command, tmp_path, capsys):
    # a measure whose nodes the kernel's boundary extension refuses, plane nodes
    # for a circle kernel say, exited 3 from inside the boundary matrix
    if measure in _PAIRING_ATOMS:
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps({"nodes": _PAIRING_ATOMS[measure], "weights": [0.5, 0.5]}))
        measure = f"atomic:{path}"
    code = main([command, "--kernel", kernel, "--measure", measure])
    captured = capsys.readouterr()
    if code == EXIT_USAGE:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("usage error: ")
    else:
        assert code in (EXIT_PASS, EXIT_VERDICT_FAIL)


def test_project_takes_real_nodes_written_as_complex(tmp_path, capsys):
    # [re, 0] entries load as complex numbers whose imaginary parts are zero
    reports = []
    for nodes in ([0.1, 0.7], [[0.1, 0], [0.7, 0]]):
        path = tmp_path / "atoms.json"
        path.write_text(json.dumps({"nodes": nodes, "weights": [0.5, 0.5]}))
        argv = ["project", "--kernel", "szego", "--points", "grid2", "--measure", f"atomic:{path}"]
        assert main(argv) == EXIT_PASS
        reports.append(capsys.readouterr().out)
    assert reports[0] == reports[1]


def test_project_refuses_nodes_off_the_real_line(tmp_path, capsys):
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps({"nodes": [[0.1, 0], [0.7, -0.1]], "weights": [0.5, 0.5]}))
    argv = ["project", "--kernel", "bargmann", "--points", "grid2", "--measure", f"atomic:{path}"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("usage error: frequency targets need a real boundary "
                            "(circle, band, or Cantor atoms)\n")


def test_project_empty_section(capsys):
    assert main(["project", "--points", "grid0"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["scalars"]["residual"] == doc["scalars"]["target_norm"] > 0
    assert doc["scalars"]["rank"] == 0
    assert doc["tables"]["projection_coefficients"]["rows"] == []


def test_adjoint_roundtrip_node_free_measure_is_usage_error(capsys):
    for command in ("adjoint-roundtrip", "project"):
        assert main([command, "--kernel", "cantor4", "--measure", "cantor-exact"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: {command} samples boundary values at quadrature "
                                "nodes; use a node-based measure (e.g. cantor-ifs:10)\n")


@pytest.mark.parametrize("argv, key, value", [
    (["gp"], "samples", 1),
    (["cantor-onb"], "parseval_max", 20),
    (["cantor-onb"], "parseval_max", 1),
    (["cantor-onb"], "level", 21),
    (["factorize", "--kernel", "cantor4"], "level", 21),
    (["carleson"], "scale", "inf"),
    (["factorize"], "tol", "inf"),
    (["isometry"], "scale", "inf"),
    (["isometry"], "seed", -1),
    (["adjoint-roundtrip"], "seed", -1),
    (["gp"], "seed", -1),
    (["shannon"], "shift", "nan"),
    (["shannon"], "shift", "inf"),
    (["factorize"], "scale", 1e308),
])
def test_out_of_range_value_is_usage_error(argv, key, value, tmp_path, capsys):
    flag = "--" + key.replace("_", "-")
    assert main(argv + [flag, str(value)]) == EXIT_USAGE
    from_flag = capsys.readouterr().err
    path = tmp_path / "run.json"
    path.write_text(json.dumps({key: value}))
    assert main(argv + ["--config", str(path)]) == EXIT_USAGE
    from_file = capsys.readouterr().err
    assert from_flag.startswith(f"usage error: argument {flag}: must be")
    assert from_file == from_flag


# the commands that integrate over a scaled measure
SCALED_COMMANDS = ["factorize", "carleson", "project", "isometry", "adjoint-roundtrip"]


@pytest.mark.parametrize("command", SCALED_COMMANDS)
def test_scale_bound(command, capsys):
    # 1e308 overflowed the boundary matrices: RuntimeWarnings and exit 3
    assert main([command, "--scale", "1e308"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: argument --scale: must be at most 1e+200, got 1e+308\n"
    # warnings are errors in this suite, so an overflow at the bound would exit 3
    assert main([command, "--scale", repr(MAX_SCALE)]) in (EXIT_PASS, EXIT_VERDICT_FAIL)
    assert json.loads(capsys.readouterr().out)["config"]["scale"] == MAX_SCALE == 1e200


@pytest.mark.parametrize("via", ["flag", "config"])
def test_isometry_samples_bound(via, tmp_path, capsys):
    # 10**12 trials exited 3 with a MemoryError
    def argv(count):
        if via == "flag":
            return ["isometry", "--samples", str(count)]
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"samples": count}))
        return ["isometry", "--config", str(path)]

    for count in (MAX_ISOMETRY_SAMPLES + 1, 10 ** 12):
        assert main(argv(count)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: argument --samples: must be in 1..10000, "
                                f"got {count}\n")
    assert main(argv(MAX_ISOMETRY_SAMPLES)) == EXIT_PASS
    rows = json.loads(capsys.readouterr().out)["tables"]["isometry_trials"]["rows"]
    assert len(rows) == MAX_ISOMETRY_SAMPLES == 10_000


def _flag_or_config(command, settings, via, tmp_path):
    """An invocation that gives ``settings`` as flags or in a config file."""
    if via == "flag":
        return [command, *(f"--{key}={value}" for key, value in settings.items())]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(settings))
    return [command, "--config", str(path)]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key, bound", [
    ("shannon", "support", MAX_SHANNON_SUPPORT),
    ("adjoint-roundtrip", "probes", MAX_PROBES),
])
def test_count_bound(command, key, bound, via, tmp_path, capsys):
    for count in (bound + 1, 10 ** 12):
        assert main(_flag_or_config(command, {key: count}, via, tmp_path)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: argument --{key}: must be in 1..{bound}, "
                                f"got {count}\n")
    assert main(_flag_or_config(command, {key: bound}, via, tmp_path)) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["config"][key] == bound


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, key, low, passing", [
    ("project", "freq", -MAX_EXACT_INT, (-MAX_EXACT_INT, MAX_EXACT_INT)),
    ("cantor-onb", "freq", -MAX_EXACT_INT, (-MAX_EXACT_INT, MAX_EXACT_INT)),
    ("gp", "samples", 2, (MAX_EXACT_INT,)),
], ids=["project", "cantor-onb", "gp"])
def test_float_exact_integer_bound(command, key, low, passing, via, tmp_path, capsys):
    # 10**400 overflowed a float and exited 3
    for value in (low - 1, MAX_EXACT_INT + 1, 10 ** 30, 10 ** 400, -10 ** 400):
        assert main(_flag_or_config(command, {key: value}, via, tmp_path)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: argument --{key}: must be in "
                                f"{low}..{MAX_EXACT_INT}, got {value}\n")
    for value in passing:
        assert main(_flag_or_config(command, {key: value}, via, tmp_path)) == EXIT_PASS
        assert json.loads(capsys.readouterr().out)["config"][key] == value
    assert MAX_EXACT_INT == 2 ** 53


def _node_kind(kernel):
    """The kind of the node measure a kernel's default runs use."""
    entry = _KERNELS[kernel]
    return (entry.node_measure or entry.measure).partition(":")[0]


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("kernel, kind, bound", [
    (kernel, _node_kind(kernel), _MEASURE_KINDS[_node_kind(kernel)].bound) for kernel in _KERNELS
])
def test_measure_size_bound(kernel, kind, bound, via, tmp_path, capsys):
    base = ["--kernel", kernel]
    for size in (0, bound + 1):
        desc = f"{kind}:{size}"
        argv = _flag_or_config("factorize", {"measure": desc}, via, tmp_path) + base
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"usage error: bad measure descriptor {desc!r}: its size must "
                                f"be in 1..{bound}, got {size}\n")
    desc = f"{kind}:{bound}"
    assert main(_flag_or_config("factorize", {"measure": desc}, via, tmp_path) + base) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["config"]["measure"] == desc


# a kernel on whose boundary each measure kind lives
_KIND_KERNELS = {"uniform": "szego", "gauss-hermite": "bargmann", "cantor-ifs": "cantor4",
                 "cantor-exact": "cantor4", "band": "sinc", "atomic": "szego"}


def test_every_measure_kind_row_builds(tmp_path):
    atoms = tmp_path / "atoms.json"
    atoms.write_text(json.dumps({"nodes": [0.1, 0.7], "weights": [0.5, 0.5]}))
    nodes = {}
    for kind in _MEASURE_KINDS:
        desc = f"atomic:{atoms}" if kind == "atomic" else kind
        cfg = parse_config(["factorize", "--kernel", _KIND_KERNELS[kind], "--measure", desc])
        kernel = make_kernel(cfg)
        section = build_section(kernel, builtin_grid(3, kernel))
        measure = make_measure(cfg, kernel.boundary_extension(), section)
        nodes[kind] = 0 if measure.nodes is None else measure.nodes.size
    assert nodes == {"uniform": 2048, "gauss-hermite": 64 ** 2, "cantor-ifs": 2 ** 12,
                     "cantor-exact": 0, "band": 160, "atomic": 2}


def test_measure_help_lists_the_rows_in_table_order(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "200")  # one help line, unwrapped
    assert main(["factorize", "--help"]) == EXIT_PASS
    examples = [kind if row.default is None else f"{kind}:{row.default}"
                for kind, row in _MEASURE_KINDS.items()]
    assert f"kind[:param], e.g. {', '.join(examples)}\n" in capsys.readouterr().out
    assert list(_MEASURE_KINDS) == ["uniform", "gauss-hermite", "cantor-ifs", "cantor-exact",
                                    "band", "atomic"]


def test_unknown_measure_kind_is_usage_error(capsys):
    assert main(["factorize", "--measure", "bogus:3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: unknown measure kind 'bogus'\n"


def test_run_size_refused_before_the_measure_is_built(monkeypatch, capsys):
    # the 2000-node Gauss-Legendre rule takes 0.5-1 s, wasted on a run the bounds refuse
    def refuse(n):
        raise AssertionError(f"band_gauss_legendre({n}) was called")

    monkeypatch.setattr(rkboundary.cli, "band_gauss_legendre", refuse)
    code = main(["isometry", "--kernel", "sinc", "--measure", "band:2000", "--samples", "10000",
                 "--points", "grid20"])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert captured.err == ("usage error: 10000 samples x 20 points x (2000 nodes + 20 points) "
                            "is 404000000, more than 268435456\n")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("param", ["3", "junk"])
def test_exact_cantor_measure_takes_no_parameter(param, via, tmp_path, capsys):
    # the parameter was ignored, and echoed in the report
    desc = f"cantor-exact:{param}"
    argv = _flag_or_config("factorize", {"kernel": "cantor4", "measure": desc}, via, tmp_path)
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"usage error: bad measure descriptor {desc!r}: the exact Cantor "
                            "measure takes no parameter\n")


@pytest.mark.parametrize("via", ["flag", "config"])
@pytest.mark.parametrize("command, at_bound, past_bound, message", [
    # a 30000-point pd-check asked for 13.4 GiB
    ("pd-check", {"points": "grid500"}, {"points": "grid501"},
     "the section has 501 points, more than 500"),
    ("factorize", {"points": "grid16", "measure": "uniform:131072"},
     {"points": "grid43", "measure": "uniform:48771"},
     "43 points x 48771 nodes is 2097153, more than 2097152"),
    # no run's product is 2**28 + 1 = 17 * 15790321, so the run past the bound
    # takes one more trial; 10**4 trials on uniform:131072 took about 10 s
    ("isometry", {"points": "grid16", "measure": "uniform:131056", "samples": 128},
     {"points": "grid16", "measure": "uniform:131056", "samples": 129},
     "129 samples x 16 points x (131056 nodes + 16 points) is 270532608, more than 268435456"),
    ("adjoint-roundtrip", {"measure": "uniform:32768", "probes": 512},
     {"measure": "uniform:24929", "probes": 673},
     "673 probes x 24929 nodes is 16777217, more than 16777216"),
], ids=["section", "points-nodes", "trials", "probes-nodes"])
def test_run_size_bound(command, at_bound, past_bound, message, via, tmp_path, capsys):
    assert main(_flag_or_config(command, past_bound, via, tmp_path)) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"usage error: {message}\n"
    assert main(_flag_or_config(command, at_bound, via, tmp_path)) == EXIT_PASS
    echo = json.loads(capsys.readouterr().out)["config"]
    assert {key: echo[key] for key in at_bound} == at_bound


@pytest.mark.parametrize("via", ["flag", "config"])
def test_shannon_grid_point_bound(via, tmp_path, capsys):
    step = 2.0 ** -10  # dyadic, so the grid's length is exact
    # one point more than the bound, and about 10**12 points
    for grid in (f"0:{MAX_SHANNON_GRID * step!r}:{step!r}", "0:1e12:1"):
        assert main(_flag_or_config("shannon", {"grid": grid}, via, tmp_path)) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"usage error: grid {grid!r} has more than {MAX_SHANNON_GRID} points\n")
    grid = f"0:{(MAX_SHANNON_GRID - 1) * step!r}:{step!r}"
    assert main(_flag_or_config("shannon", {"grid": grid}, via, tmp_path)) == EXIT_PASS
    rows = json.loads(capsys.readouterr().out)["tables"]["grid_errors"]["rows"]
    assert len(rows) == MAX_SHANNON_GRID == 5_000


def _atomic_file(tmp_path, weights):
    path = tmp_path / "atoms.json"
    path.write_text(json.dumps({"nodes": [0.1, 0.3, 0.7][:len(weights)], "weights": weights}))
    return f"atomic:{path}"


@pytest.mark.parametrize("kernel, measure", [
    ("szego", "uniform:999"),
    ("bargmann", "gauss-hermite:12"),
    ("cantor4", "cantor-ifs:8"),
    ("sinc", "band:77"),
    ("szego", "atomic"),
    ("cantor4", "cantor-exact"),
])
def test_scale_applied_once_to_the_unit_measure(kernel, measure, tmp_path):
    if measure == "atomic":
        measure = _atomic_file(tmp_path, [0.5, 0.25, 0.25])

    def built(scale):
        cfg = parse_config(["factorize", "--kernel", kernel, "--measure", measure,
                            "--scale", scale])
        kern = make_kernel(cfg)
        return make_measure(cfg, kern.boundary_extension(), build_section(kern, []))

    unit, tripled = built("1"), built("3")
    if unit.weights is None:
        assert tripled.weights is None
        assert tripled.total_mass == 3.0 * unit.total_mass == 3.0
    else:
        assert np.array_equal(tripled.nodes, unit.nodes)
        assert np.array_equal(tripled.weights, 3.0 * unit.weights)
        assert tripled.total_mass == pytest.approx(3.0 * unit.total_mass, rel=1e-15)
        assert unit.total_mass == pytest.approx(1.0, rel=1e-14)


def test_scaled_atomic_weight_overflow_is_usage_error(tmp_path, capsys):
    argv = ["carleson", "--measure", _atomic_file(tmp_path, [1e300, 1.0]), "--scale", "1e10"]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: bad measure descriptor")
    assert "overflows a weight" in captured.err


@pytest.mark.parametrize("command", SCALED_COMMANDS)
@pytest.mark.parametrize("weights, scale", [
    ([1.7e308, 1.7e308, 0.25], "1"),  # the total overflows, no single weight does
    ([1e150, 1e150, 0.25], "1e60"),  # the total exceeds the bound only once scaled
], ids=["overflowing-total", "scaled-total"])
def test_atomic_total_mass_bound(command, weights, scale, tmp_path, capsys):
    # the first file printed overflow RuntimeWarnings and exited 3
    argv = [command, "--measure", _atomic_file(tmp_path, weights), "--scale", scale]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error: bad measure descriptor")
    assert captured.err.endswith(f"weights total more than {MAX_SCALE:g} after scaling\n")
    # warnings are errors in this suite, so an overflow at the bound would exit 3
    edge = _atomic_file(tmp_path, [0.5 * MAX_SCALE, 0.5 * MAX_SCALE])
    assert main([command, "--measure", edge]) in (EXIT_PASS, EXIT_VERDICT_FAIL)
    capsys.readouterr()


def test_cli_import_loads_no_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import rkboundary.cli, sys; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert done.returncode == 0


def _spawn(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, **env):
    """``python -m rkboundary`` on the given streams, with ``env`` added to
    the environment.  The child keeps Python's default stream buffering, as
    an installed script has it, since a failed write leaves bytes buffered
    only then."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src), **env}
    env.pop("PYTHONUNBUFFERED", None)
    return subprocess.run([sys.executable, "-m", "rkboundary", *argv], env=env,
                          stdout=stdout, stderr=stderr, text=text, timeout=60)


def _assert_one_write_error(stderr, reason):
    assert stderr.splitlines() == [f"error: cannot write report: {reason}"]
    assert "Traceback" not in stderr and "Exception ignored" not in stderr


@pytest.mark.parametrize("argv", [["--version"], ["--help"]], ids=["version", "help"])
def test_help_and_version_reach_a_working_stdout(argv):
    # the process ends without the interpreter's own flush, so main must deliver them
    done = _spawn(argv)
    assert done.returncode == EXIT_PASS
    assert done.stderr == ""
    if argv == ["--version"]:
        assert done.stdout == f"rkboundary {__version__}\n"
    else:
        assert done.stdout.startswith("usage: rkboundary ")


needs_dev_full = pytest.mark.skipif(not os.path.exists("/dev/full"),
                                    reason="needs the always-full device /dev/full")


@needs_dev_full
@pytest.mark.parametrize("argv", [["pd-check"], ["--help"], ["--version"],
                                  ["pd-check", "--help"]],
                         ids=["pd-check", "help", "version", "pd-check-help"])
def test_report_to_a_full_stdout_exits_3(argv):
    # argparse writes help and the version unflushed; they are delivered like a report
    with open("/dev/full", "w") as full:
        done = _spawn(argv, full)
    assert done.returncode == EXIT_NUMERICAL
    _assert_one_write_error(done.stderr, "[Errno 28] No space left on device")


@pytest.mark.parametrize("argv", [["morphism"], ["factorize", "--points", "grid100"],
                                  ["--help"]],
                         ids=["small", "large", "help"])
def test_report_to_a_closed_pipe_exits_3(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = _spawn(argv, write_end)
    finally:
        os.close(write_end)
    assert done.returncode == EXIT_NUMERICAL
    _assert_one_write_error(done.stderr, "[Errno 32] Broken pipe")
    # the installed script runs the entry that these spawns of python -m run
    pyproject = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    assert 'rkboundary = "rkboundary.__main__:main"' in pyproject


@needs_dev_full
@pytest.mark.parametrize("argv,code", [
    (["carleson", "--scale", "2"], EXIT_VERDICT_FAIL),
    (["factorize", "--measure", "bogus:3"], EXIT_USAGE),
    (["factorize", "--kernel", "nosuch"], EXIT_USAGE),
    ([], EXIT_USAGE),
    (["pd-check", "--bogus"], EXIT_USAGE),
], ids=["verdict-fails", "bad-measure", "bad-kernel", "no-command", "bad-option"])
def test_full_stderr_keeps_the_exit_code(argv, code):
    # the last two are argparse's own usage errors
    with open("/dev/full", "w") as full:
        assert _spawn(argv, subprocess.DEVNULL, full).returncode == code


@needs_dev_full
def test_full_stderr_keeps_a_passing_report(tmp_path):
    out = tmp_path / "pd-check.json"
    with open("/dev/full", "w") as full:
        done = _spawn(["pd-check", "--out", str(out)], subprocess.DEVNULL, full)
    assert done.returncode == EXIT_PASS
    golden = Path(__file__).resolve().parent / "golden" / "pd-check.json"
    assert out.read_bytes() == golden.read_bytes()


# project is left out: its least-squares coefficients round differently at
# one thread (ROADMAP small item 1)
@pytest.mark.parametrize("argv", [
    ["shannon"],
    ["adjoint-roundtrip"],
    ["adjoint-roundtrip", "--kernel", "cantor4", "--measure", "cantor-ifs:14"],
    ["isometry"],
    ["isometry", "--kernel", "bargmann", "--points", "grid30"],
    ["pd-check"],
    ["factorize"],
    ["carleson"],
    ["gp"],
    ["cantor-onb"],
    ["morphism"],
], ids=["shannon", "adjoint-roundtrip", "adjoint-roundtrip-cantor4", "isometry",
        "isometry-bargmann", "pd-check", "factorize", "carleson", "gp", "cantor-onb",
        "morphism"])
def test_report_bytes_do_not_depend_on_blas_threads(argv):
    # the sums of the first three are reduced by einsum, which does not thread;
    # the other runs form Gram matrices, pencils and covariances by BLAS
    # products, whose bytes must not change with the thread count either
    reports = set()
    for threads in ("1", "2"):
        done = _spawn(argv, text=False, OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == 0, done.stderr.decode()
        reports.add(done.stdout)
    assert len(reports) == 1


def test_gp_run(capsys):
    code = main(["gp", "--kernel", "sinc", "--points", "grid5",
                 "--samples", "20000", "--seed", "42"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    doc = json.loads(captured.out)
    assert doc["scalars"]["covariance_defect"] < 0.05


def test_shannon_run(capsys):
    code = main(["shannon", "--support", "200", "--grid=-1:1:0.05", "--tol", "2e-3"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    doc = json.loads(captured.out)
    assert doc["scalars"]["max_integer_gap"] == 0.0


def test_shannon_grid_beyond_support(capsys):
    # the exact-at-integers check covers the integers that have a stored sample
    assert main(["shannon", "--support", "1", "--grid=0:5:1"]) == EXIT_VERDICT_FAIL
    doc = json.loads(capsys.readouterr().out)
    verdicts = {v["name"]: v for v in doc["verdicts"]}
    assert verdicts["exact-at-integers"]["passed"]
    assert verdicts["exact-at-integers"]["value"] == 0.0
    assert not verdicts["reconstruction"]["passed"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_nonfinite_report_value_exits_3(fmt, tmp_path, monkeypatch, capsys):
    # no valid input is known to overflow, so the membership defect is made NaN
    real = rkboundary.cli.membership_defect
    monkeypatch.setattr(rkboundary.cli, "membership_defect",
                        lambda *a, **k: dataclasses.replace(real(*a, **k), defect=float("nan")))
    out = tmp_path / "report"
    for extra in ([], ["--out", str(out)]):
        assert main(["factorize", "--format", fmt, *extra]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
        assert errors == ["error: report value scalars.membership_defect is not finite"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["factorize", "isometry", "carleson", "project",
                                     "adjoint-roundtrip"])
def test_sinc_point_beyond_band_bound_is_a_domain_error(command, capsys):
    # past |s| = 1e15 the band phase pi s xi carries no digits, and at 1e308
    # it overflowed with a RuntimeWarning
    for point in ("1e308", "-1.0000000000000002e15"):
        code = main([command, "--kernel", "sinc", f"--points={point}"])
        captured = capsys.readouterr()
        assert code == EXIT_NUMERICAL
        assert captured.out == ""
        assert captured.err == "error: sinc band points require |s| <= 1e15\n"
    # the bound itself is in the domain: the run ends in a verdict
    code = main([command, "--kernel", "sinc", "--points=1e15,-1e15"])
    assert code in (EXIT_PASS, EXIT_VERDICT_FAIL)
    assert main(["pd-check", "--kernel", "sinc", "--points", "1e308"]) == EXIT_PASS


def test_emit_names_the_nonfinite_field():
    report = run(parse_config(["shannon"]))
    report["tables"]["grid_errors"]["rows"][3][1] = float("inf")
    for fmt in ("json", "csv"):
        with pytest.raises(ValueError, match=r"tables\.grid_errors\.rows\[3\]\[1\] is not"):
            emit(report, fmt)


def test_emit_names_a_nan_in_a_row():
    report = run(parse_config(["factorize"]))
    report["tables"]["factorization_deviation"]["rows"][5][2] = float("nan")
    with pytest.raises(ValueError, match=r"tables\.factorization_deviation\.rows\[5\]\[2\] is"):
        emit(report, "json")


def test_cantor_onb_run(capsys):
    code = main(["cantor-onb", "--level", "4", "--parseval-max", "8"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    doc = json.loads(captured.out)
    assert doc["scalars"]["max_offdiagonal"] < 1e-12
    levels = [row[0] for row in doc["tables"]["parseval_defects"]["rows"]]
    assert levels == list(range(2, 9))


def test_cantor_onb_one_level_parseval_table(capsys):
    # a one-row table is judged by the bounds of its single defect
    assert main(["cantor-onb", "--parseval-max", "2"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["tables"]["parseval_defects"]["rows"]) == 1
    verdicts = {v["name"]: v for v in doc["verdicts"]}
    assert list(verdicts) == ["orthogonality", "unit-norms", "transform-zero-at-one",
                              "parseval-bounded"]
    assert verdicts["parseval-bounded"]["passed"]


def test_project_run(capsys):
    code = main(["project", "--kernel", "szego", "--points", "grid5",
                 "--measure", "uniform:512", "--freq", "-1"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    doc = json.loads(captured.out)
    assert doc["scalars"]["residual"] == pytest.approx(1.0, abs=1e-9)


def test_adjoint_roundtrip_run(capsys):
    code = main(["adjoint-roundtrip", "--kernel", "szego", "--points", "grid5",
                 "--measure", "uniform:1024", "--seed", "3"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS


def test_adjoint_roundtrip_cantor_gets_node_measure(tmp_path, capsys):
    # the node-free exact Cantor default is swapped for an IFS refinement here,
    # and the echo says so; written back as a config file it replays the run
    code = main(["adjoint-roundtrip", "--kernel", "cantor4", "--points", "grid5",
                 "--seed", "2"])
    report = capsys.readouterr().out
    assert code == EXIT_PASS
    config = json.loads(report)["config"]
    assert (config["measure"], config["level"]) == ("cantor-ifs:10", 6)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({k: v for k, v in config.items() if k != "command"}))
    assert main(["adjoint-roundtrip", "--config", str(path)]) == EXIT_PASS
    assert capsys.readouterr().out == report


def test_isometry_run(capsys):
    code = main(["isometry", "--kernel", "sinc", "--points", "grid5",
                 "--samples", "20", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS


@pytest.mark.parametrize("points", ["grid0", "grid1", "grid10"])
def test_isometry_draws_each_trial_in_stream_order(points):
    # trial t reads its n real parts, then its n imaginary parts
    cfg = parse_config(["isometry", "--points", points, "--samples", "7", "--seed", "3"])
    rng = np.random.default_rng(3)
    n = int(points[4:])
    c = np.array([rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(7)])
    form = np.conj(build_section(SzegoKernel(), builtin_grid(n, SzegoKernel())).gram)
    native = np.real(np.sum(np.conj(c) * (c @ form.T), axis=-1)).tolist()
    assert [row[1] for row in run(cfg)["tables"]["isometry_trials"]["rows"]] == native


def test_pd_check_run(capsys):
    code = main(["pd-check", "--kernel", "bargmann", "--points", "grid4"])
    captured = capsys.readouterr()
    assert code == EXIT_PASS
    doc = json.loads(captured.out)
    assert len(doc["tables"]["eigenvalues"]["rows"]) == 4


@pytest.mark.parametrize("command", ["factorize", "carleson", "pd-check"])
def test_bargmann_point_beyond_bound_is_a_domain_error(command, capsys):
    # past |z| = 1.3e154 the Gram would hold inf - inf = NaN
    code = main([command, "--kernel", "bargmann", "--points", "1e200"])
    captured = capsys.readouterr()
    assert code == EXIT_NUMERICAL
    assert captured.out == ""
    assert captured.err == "error: bargmann points require |z| <= 1e150\n"


# -- one evaluation per run ---------------------------------------------------

def _spy(monkeypatch, owners, name, counted=lambda *args: True):
    """Count calls of ``name`` through every owner (class or module) that binds it."""
    calls = []
    for owner in owners:
        if not hasattr(owner, name):
            continue
        original = getattr(owner, name)

        def spy(*args, original=original, **kwargs):
            if counted(*args):
                calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return calls


@pytest.mark.parametrize("command", ["isometry", "project"])
def test_section_evaluated_once_per_run(command, monkeypatch):
    calls = _spy(monkeypatch, [BoundaryExtension], "__call__")
    run(parse_config([command]))
    assert len(calls) == 1


@pytest.mark.parametrize("kernel", ["szego", "bargmann", "cantor4", "sinc"])
def test_pd_check_solves_the_eigenproblem_once(kernel, monkeypatch):
    calls = _spy(monkeypatch, [np.linalg], "eigvalsh")
    report = run(parse_config(["pd-check", "--kernel", kernel]))
    assert len(calls) == 1
    eigenvalues = [w for _, w in report["tables"]["eigenvalues"]["rows"]]
    assert eigenvalues == sorted(eigenvalues)
    assert eigenvalues[0] == report["scalars"]["min_eigenvalue"]


def test_cantor_frequency_matrix_built_once_per_run(monkeypatch):
    import rkboundary

    owners = [rkboundary.cli, rkboundary.boundary, rkboundary.reconstruct]
    calls = _spy(monkeypatch, owners, "cantor4_fourier")
    run(parse_config(["isometry", "--kernel", "cantor4", "--measure", "cantor-exact",
                      "--level", "7", "--samples", "20"]))
    # one evaluation on the 3^7 distinct frequency differences, none on the 2^7 x 2^7 matrix
    assert [np.shape(t) for (t,) in calls] == [(3 ** 7,)]


def test_morphism_pushes_forward_once_per_run(monkeypatch):
    import rkboundary

    owners = [rkboundary.cli, rkboundary.boundary, rkboundary.measures]
    calls = _spy(monkeypatch, owners, "pushforward")
    report = run(parse_config(["morphism"]))
    assert len(calls) == 1
    assert [v["passed"] for v in report["verdicts"]] == [True] * 5


# -- emission -----------------------------------------------------------------

def test_emit_csv_structure():
    cfg = parse_config(["pd-check", "--kernel", "szego", "--points", "grid3",
                        "--format", "csv"])
    report = run(cfg)
    text = emit(report, "csv")
    lines = text.splitlines()
    assert lines[0].startswith("# report,pd-check")
    table_at = lines.index("# table,eigenvalues")
    assert lines[table_at + 1] == "index,eigenvalue"
    assert len(lines[table_at + 2:]) == 3  # one row per eigenvalue


def test_table_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError):
        rkboundary.cli._table(["a", "b"], np.arange(3), np.zeros(2))


@pytest.mark.parametrize("command", sorted(rkboundary.cli._RUNNERS))
def test_every_table_cell_is_a_python_number(command):
    # emission handles Python values only: a numpy scalar anywhere in a report
    # would fail the JSON encoder or print as np.float64(...) in a CSV cell
    report = run(parse_config([command]))
    assert all(type(v) in (str, int, float) for v in report["config"].values()), report["config"]
    assert all(type(v) in (int, float) for v in report["scalars"].values()), report["scalars"]
    for verdict in report["verdicts"]:
        assert [type(verdict[k]) for k in ("name", "value", "tolerance", "passed")] == [
            str, float, float, bool], verdict
    assert report["tables"]
    for table in report["tables"].values():
        # rows are lists, not tuples, because readers edit them in place
        for row in table["rows"]:
            assert type(row) is list and len(row) == len(table["columns"])
            assert all(type(cell) in (int, float) for cell in row), (command, row)


@pytest.mark.parametrize("command", sorted(rkboundary.cli._RUNNERS))
def test_report_is_the_document_it_emits(command):
    report = run(parse_config([command]))
    assert set(report) == {"command", "config", "scalars", "tables", "verdicts", "version"}
    assert json.loads(emit(report)) == report


# every command at its defaults, and runs whose verdicts fail or hold zeros
VERDICT_RUNS = [[command] for command in sorted(rkboundary.cli._RUNNERS)] + [
    ["carleson", "--scale", "2"],
    ["carleson", "--points", "grid0"],
    ["shannon", "--support", "1", "--grid=0:5:1"],
    ["pd-check", "--points", "grid0"],
]


@pytest.mark.parametrize("argv", VERDICT_RUNS, ids=" ".join)
def test_verdict_passes_iff_value_at_most_tolerance(argv):
    report = run(parse_config(argv))
    for verdict in report["verdicts"]:
        value, tolerance = verdict["value"], verdict["tolerance"]
        assert verdict["passed"] == (value <= tolerance), verdict
        negative_zero = [x for x in (value, tolerance) if x == 0.0 and math.copysign(1.0, x) < 0]
        assert negative_zero == [], verdict
    if report["command"] == "pd-check":
        scalars = report["scalars"]
        (verdict,) = report["verdicts"]
        assert verdict["tolerance"] == -scalars["threshold"]
        assert verdict["passed"] == (scalars["min_eigenvalue"] >= scalars["threshold"])


def test_verdict_at_its_tolerance_passes():
    report = {"verdicts": []}
    rkboundary.cli._verdict(report, "at", 1e-8, 1e-8)
    rkboundary.cli._verdict(report, "above", 1e-8, 0.0)
    assert [v["passed"] for v in report["verdicts"]] == [True, False]


def test_every_verdict_pairs_value_and_tolerance(capsys):
    main(["morphism"])
    doc = json.loads(capsys.readouterr().out)
    for verdict in doc["verdicts"]:
        assert set(verdict) == {"name", "value", "tolerance", "passed"}


def test_report_bytes_identical_across_runs(tmp_path, capsys):
    argv = ["factorize", "--kernel", "szego", "--points", "grid6",
            "--measure", "uniform:512"]
    assert main(argv) == EXIT_PASS
    first = capsys.readouterr().out
    assert main(argv) == EXIT_PASS
    second = capsys.readouterr().out
    assert first.encode() == second.encode()

    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert main(argv + ["--out", str(out_a)]) == EXIT_PASS
    assert main(argv + ["--out", str(out_b)]) == EXIT_PASS
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_csv_determinism(capsys):
    argv = ["cantor-onb", "--level", "3", "--parseval-max", "6", "--format", "csv"]
    assert main(argv) == EXIT_PASS
    first = capsys.readouterr().out
    assert main(argv) == EXIT_PASS
    second = capsys.readouterr().out
    assert first == second
