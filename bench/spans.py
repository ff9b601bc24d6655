"""Span recorder and the wrappers that feed it from outside the package.

A span has a name, start, end, parent span and operation id, plus counts
(work done, measured where the call happens).  A layer's self time is its
spans' duration minus the part of each interval that child spans cover.

:class:`Tracer` wraps public functions of rkboundary without editing it.  A
wrapper replaces the function in *every* package namespace that bound it:
``cli`` imports its callees by name, ``boundary`` and ``gaussian`` both bind
``pivoted_cholesky``, ``boundary`` and ``reconstruct`` both bind
``cantor4_fourier``; patching only the defining module would silently lose
those calls.  ``BoundaryExtension.__call__`` is wrapped on the class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float | None
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store; spans nest through a stack (single-threaded use)."""

    def __init__(self, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._clock = clock

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, self._clock(), None, parent, self.op)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    def close(self, span: Span) -> None:
        span.end = self._clock()
        self._stack.pop()

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


def covered_length(interval: tuple, children: list) -> float:
    """Length of the union of ``children`` intervals clipped to ``interval``."""
    lo, hi = interval
    clipped = sorted((max(lo, s), min(hi, e)) for s, e in children if min(hi, e) > max(lo, s))
    total = 0.0
    cur_start = cur_end = None
    for s, e in clipped:
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        else:
            cur_end = max(cur_end, e)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> dict:
    """Span id -> self time (duration minus the union of its children's intervals)."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: s.duration - covered_length((s.start, s.end), children.get(s.sid, []))
            for s in spans}


def layer_table(spans: list) -> dict:
    """Per span name: calls, total ms, self ms, and the sum and max of each count."""
    own = self_times(spans)
    table: dict = {}
    for s in spans:
        row = table.setdefault(s.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                        "sum": {}, "max": {}})
        row["calls"] += 1
        row["ms"] += 1000.0 * s.duration
        row["self_ms"] += 1000.0 * own[s.sid]
        for key, value in s.counts.items():
            row["sum"][key] = row["sum"].get(key, 0) + value
            row["max"][key] = max(row["max"].get(key, value), value)
    by_id = {s.sid: s for s in spans}
    nested = sum(1 for s in spans if s.name == "linalg.pivoted_cholesky"
                 and s.parent is not None
                 and by_id[s.parent].name == "boundary.pencil_eigenvalues")
    pencil = table.get("boundary.pencil_eigenvalues")
    if pencil is not None:
        pencil["sum"]["escalations"] = nested - pencil["calls"]
    return table


# ---------------------------------------------------------------------------
# wrapping the package
# ---------------------------------------------------------------------------

def _emit_counts(args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


def _fourier_counts(args, kwargs, result):
    return {"points": int(np.size(args[0]))}


def _cholesky_counts(args, kwargs, result):
    return {"n": int(np.shape(args[0])[0])}


def _gram_counts(args, kwargs, result):
    ext, measure, section = args[:3]
    # computed, not measured: n * n * m with m the node count, or the number of
    # Cantor frequencies 2^level on the node-free exact route
    m = measure.nodes.size if measure.nodes is not None else 2 ** ext.kernel.level
    return {"macs": section.size * section.size * int(m)}


def _sample_counts(args, kwargs, result):
    return {"values": int(result.samples.size)}


def _extension_counts(args, kwargs, result):
    _, s, b = args[:3]  # (extension, points, boundary points)
    return {"entries": int(np.broadcast(np.asarray(s), np.asarray(b)).size)}


PACKAGE = "rkboundary"
QUADRATURE = ("periodic_uniform", "gauss_hermite_plane", "cantor_ifs",
              "band_gauss_legendre", "atomic", "cantor_exact")

# (module, attribute, span name, counter)
TARGETS = (
    ("cli", "parse_config", "cli.parse_config", None),
    ("cli", "run", "cli.run", None),
    ("cli", "emit", "cli.emit", _emit_counts),
    ("kernels", "build_section", "kernels.build_section", None),
    ("measures", "cantor4_fourier", "measures.cantor4_fourier", _fourier_counts),
    *(("measures", name, "measures.quadrature", None) for name in QUADRATURE),
    ("_linalg", "pivoted_cholesky", "linalg.pivoted_cholesky", _cholesky_counts),
    ("boundary", "boundary_gram", "boundary.boundary_gram", _gram_counts),
    ("boundary", "pencil_eigenvalues", "boundary.pencil_eigenvalues", None),
    ("boundary", "isometry_defect", "boundary.isometry_defect", None),
    ("boundary", "adjoint_apply", "boundary.adjoint_apply", None),
    ("boundary", "onto_residual", "boundary.onto_residual", None),
    ("gaussian", "build_ensemble", "gaussian.build_ensemble", None),
    ("gaussian", "sample", "gaussian.sample", _sample_counts),
    ("gaussian", "empirical_covariance", "gaussian.empirical_covariance", None),
    ("reconstruct", "lambda4_set", "reconstruct.lambda4_set", None),
    ("reconstruct", "parseval_table", "reconstruct.parseval_table", None),
    ("reconstruct", "shannon_reconstruct", "reconstruct.shannon_reconstruct", None),
)


class Tracer:
    """Installs span wrappers into the package's namespaces; ``with`` restores them."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._patched: list = []

    def _wrap(self, func, name, counter):
        recorder = self.recorder

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                recorder.close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        pkg = PACKAGE
        importlib.import_module(f"{pkg}.cli")
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == pkg or n.startswith(pkg + "."))]
        for module_name, attr, name, counter in TARGETS:
            original = getattr(importlib.import_module(f"{pkg}.{module_name}"), attr)
            wrapper = self._wrap(original, name, counter)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        ext_class = importlib.import_module(f"{pkg}.kernels").BoundaryExtension
        original = ext_class.__dict__["__call__"]
        setattr(ext_class, "__call__", self._wrap(original, "kernels.extension", _extension_counts))
        self._patched.append((ext_class, "__call__", original))
        return self

    def uninstall(self) -> None:
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
