"""What other parts of the repository rely on: the names the benchmark's
tracer wraps, the arguments and results its counters read, and the README's
library example."""

import argparse
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

import rkboundary
from rkboundary import cli

ROOT = Path(__file__).resolve().parent.parent


def load_bench(monkeypatch, stem):
    """bench/<stem>.py, loaded by path as the top-level module ``stem``: the
    benchmark is not a package, and its modules import each other by stem."""
    spec = importlib.util.spec_from_file_location(stem, ROOT / "bench" / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_bench_tracer_targets_resolve(monkeypatch):
    # bench/spans.py wraps these by name; a deleted or renamed one breaks the
    # traced benchmark run, whose own tests sit outside this suite
    spans = load_bench(monkeypatch, "spans")
    assert spans.PACKAGE == rkboundary.__name__
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"rkboundary.{module}"),
                                       attr, None))]
    assert missing == []
    assert "__call__" in rkboundary.BoundaryExtension.__dict__


def test_traced_subcommands_close_spans_and_count(monkeypatch, tmp_path):
    # the counters read the traced functions' arguments and results, so a
    # changed signature or return type fails here, not only in a traced run
    spans = load_bench(monkeypatch, "spans")
    counted = {name for _, _, name, counter in spans.TARGETS if counter is not None}
    counted.add("kernels.extension")
    recorder = spans.Recorder()
    codes = {}
    with spans.Tracer(recorder):
        for command in cli._RUNNERS:
            recorder.op = command
            codes[command] = cli.main([command, "--out", str(tmp_path / command)])
    assert codes == dict.fromkeys(cli._RUNNERS, cli.EXIT_PASS)
    assert all(span.end is not None for span in recorder.spans)
    missing = {span.name for span in recorder.spans if span.name in counted and not span.counts}
    assert missing == set()
    table = spans.layer_table(recorder.spans)
    assert {"cli.run", "cli.emit", "kernels.extension", "boundary.boundary_gram"} <= set(table)
    # each command that integrates over a measure builds it through a wrapped
    # constructor, which it sees only while the CLI calls constructors by name
    built = {span.op for span in recorder.spans if span.name == "measures.quadrature"}
    assert built == {"factorize", "isometry", "carleson", "adjoint-roundtrip", "project",
                     "morphism"}
    json.dumps(recorder.dump())


@pytest.mark.parametrize("seed, op_id", [(20, 64), (30, 50)])
def test_cantor_exact_carleson_operations_pass_the_oracle(monkeypatch, tmp_path, seed, op_id):
    # two separated 8-point cantor4 sections of the benchmark's cantor-exact
    # schedule, whose estimates missed 1 by 2.4e-6 and 1.4e-8 while the pencil
    # kept every pivot of norm forms of condition 1.3e11 and 3.1e8, dividing
    # N's rounding by their smallest directions
    workloads = load_bench(monkeypatch, "workloads")
    oracle = load_bench(monkeypatch, "oracle")
    op = workloads.WORKLOADS["cantor-exact"].op(seed, op_id)
    assert op.command == "carleson"
    workloads.write_inputs([op], tmp_path)
    code = cli.main(op.argv(tmp_path))
    report = op.out_path(tmp_path).read_text(encoding="utf-8")
    assert [problem.text for problem in oracle.check(op, code, report)] == []


def test_package_exports_each_module_list_once():
    # each module's __all__ is the only list of its public names
    modules = [rkboundary._linalg, rkboundary.boundary, rkboundary.gaussian,
               rkboundary.kernels, rkboundary.measures, rkboundary.reconstruct]
    for module in modules:
        for name in module.__all__:
            assert getattr(rkboundary, name) is getattr(module, name), (module.__name__, name)
    assert len(rkboundary.__all__) == len(set(rkboundary.__all__))
    assert set(rkboundary.__all__) == {"__version__", *(n for m in modules for n in m.__all__)}


def test_readme_constants_import_from_the_package():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"`([A-Z][A-Z0-9]*_[A-Z0-9_]+)`", readme))
    assert named >= {"MAX_EXACT_LEVEL", "BARGMANN_MAX_MODULUS", "SINC_BAND_MAX_POINT"}
    assert named <= set(rkboundary.__all__)


def test_readme_names_the_cli_tables():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for kind, entry in cli._MEASURE_KINDS.items():
        if entry.bound is None:  # cantor-exact and atomic:FILE take no size
            named = kind if entry.default is None else f"{kind}:{entry.default}"
            assert f"`{named}`" in readme, kind
        else:
            assert re.search(rf"`{kind}:[A-Z]+`\s+at\s+most\s+{entry.bound}\b", readme), kind
    # the kernel zoo's rows, below its header and rule
    rows = readme.split("## The kernel zoo", 1)[1].split("\n\n")[1].splitlines()[2:]
    canonical = {}
    for row in rows:
        kernel = re.match(r"\| `(\w+)`", row).group(1)
        measure = row.rsplit("|", 2)[1]  # the last cell; the domain cells escape their bars
        canonical[kernel] = re.search(r"`([a-z-]+)", measure).group(1)
    assert canonical == {name: entry.measure for name, entry in cli._KERNELS.items()}


def test_readme_lists_each_default_tolerance():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    # the bullet's continuation lines are indented
    bullet = re.split(r"\n(?!  )", readme.split("Default `--tol` per command:", 1)[1])[0]
    listed = {}
    for group in bullet.split(";"):  # commands in backticks, then their tolerance
        *commands, tol = re.findall(r"`([^`]+)`", group)
        listed.update(dict.fromkeys(commands, float(tol)))
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert listed == {name: p.get_default("tol") for name, p in sub.choices.items()}
    assert len(listed) == len(cli._RUNNERS) == 10


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
