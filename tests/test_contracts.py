"""What other parts of the repository rely on: the names the benchmark's
tracer wraps, and the README's library example."""

import importlib
import importlib.util
import re
import sys
from pathlib import Path

import rkboundary

ROOT = Path(__file__).resolve().parent.parent


def test_bench_tracer_targets_resolve(monkeypatch):
    # bench/spans.py wraps these by name; a deleted or renamed one breaks the
    # traced benchmark run, whose own tests sit outside this suite
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look it up
    spec.loader.exec_module(spans)
    assert spans.PACKAGE == rkboundary.__name__
    missing = [f"{module}.{attr}" for module, attr, _, _ in spans.TARGETS
               if not callable(getattr(importlib.import_module(f"rkboundary.{module}"),
                                       attr, None))]
    assert missing == []
    assert "__call__" in rkboundary.BoundaryExtension.__dict__


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library example", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(block, "README.md", "exec"), {})
