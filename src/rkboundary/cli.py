"""Command-line driver: deterministic verification runs with structured reports.

One subcommand corresponds to one verified identity.  Reports are emitted as
JSON or CSV and are byte-stable for identical configurations; the wall-clock
duration is printed on stderr rather than serialized, precisely so repeated
runs compare equal.  Exit codes: 0 all verdicts pass, 1 a verdict failed,
2 usage error, 3 numerical or unexpected failure, or a report that cannot be
written.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import re
import sys
import time
from collections import namedtuple

import numpy as np

from . import __version__
from .boundary import (
    adjoint_apply,
    boundary_gram,
    boundary_transform,
    check_pair,
    commuting_diagram_defect,
    isometry_norms,
    membership_defect,
    onto_residual,
)
from .gaussian import build_ensemble, covariance_gap, empirical_covariance
from .kernels import (
    DEFAULT_PSD_TOL,
    BargmannKernel,
    Cantor4Kernel,
    ExplicitFeatureKernel,
    FrameExtension,
    PullbackExtension,
    SincKernel,
    SzegoKernel,
    build_section,
    element,
    evaluate_element,
    pd_check,
)
from .measures import (
    atomic,
    band_gauss_legendre,
    cantor4_fourier,
    cantor_exact,
    cantor_ifs,
    gauss_hermite_plane,
    periodic_uniform,
    scale_measure,
)
from .reconstruct import (
    MAX_EXACT_LEVEL,
    MAX_LAMBDA_LEVEL,
    MAX_PARSEVAL_LEVEL,
    lambda4_orthonormality_gaps,
    parseval_table,
    shannon_reconstruct,
)

EXIT_PASS = 0
EXIT_VERDICT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_GOLDEN = 0.6180339887498949

# --scale above this is a usage error: the boundary matrices of edge sections
# stay finite at 1e200, and those of the default sections overflow at 1e308
MAX_SCALE = 1e200
# isometry --samples above this is a usage error: the report holds one row per
# trial, and 10**4 trials on the default szego section take 0.1-1.1 s
MAX_ISOMETRY_SAMPLES = 10_000
# shannon sums 2 * support + 1 terms at each grid point: at both bounds
# (20001 samples, 5000 points) a run takes about 4 s on a 2-CPU host, and the
# grid's points are counted before they are allocated
MAX_SHANNON_SUPPORT = 10_000
MAX_SHANNON_GRID = 5_000
# adjoint-roundtrip --probes above this is a usage error: the time grows with
# probes times measure nodes, and 1000 probes take about 0.65 s at the
# defaults and 1.5 s on the default cantor4 section at level 20 on cantor-ifs:14
MAX_PROBES = 1_000
# --freq and gp --samples beyond this in magnitude are usage errors: a double
# holds every integer up to 2**53, so the target frequency and the Wishart
# degrees of freedom stay the integers asked for
MAX_EXACT_INT = 2 ** 53
# The sizes a run multiplies are bounded too, before anything is allocated.
# A section has at most this many points: its Gram matrix and the n**2 report
# tables grow with the square, and the slowest 500-point run, factorize
# --kernel cantor4 --level 12 on cantor-exact, takes 3.3-3.8 s and 140 MB.
MAX_SECTION_POINTS = 500
# Section points times measure nodes, the entries of the weighted evaluation
# (32 MiB at the bound).  The node-free exact Cantor route evaluates 2**level
# <= 4096 frequencies per point, which MAX_EXACT_LEVEL and MAX_SECTION_POINTS
# bound.
MAX_POINT_NODES = 2 ** 21
# isometry --samples times points times (nodes + points): each trial reads one
# row of the evaluation and one of the Gram matrix per point.  10**4 trials on
# a 163-point cantor4 level-12 section on cantor-exact take about 2 s and
# 173 MB.
MAX_TRIAL_VALUES = 2 ** 28
# adjoint-roundtrip --probes times measure nodes: 1000 probes on cantor-ifs:14
# with a 128-point cantor4 level-20 section, at MAX_POINT_NODES as well, take
# about 1.6 s.
MAX_PROBE_NODES = 2 ** 24


# A --measure kind: its constructor, called with the descriptor's parameter,
# and the parameter the --measure help shows.  A sized kind also has a largest
# size and the node count of a size; its shown parameter is the size of a
# descriptor that gives none, and its constructor is called with the size.
# Each constructor looks the library function up by name when it is called,
# so a wrapper bound in the function's place is the one called.
_MeasureKind = namedtuple("_MeasureKind", "build default bound nodes", defaults=(None, None))


def _cantor_exact(param: str):
    if param:
        raise ValueError("the exact Cantor measure takes no parameter")
    return cantor_exact()


# A size above the bound is a usage error.  The slowest command at each bound,
# with every other setting at its default, on a 2-CPU host: uniform:131072
# adjoint-roundtrip --kernel cantor4 0.56 s (project peaks at 118 MB);
# gauss-hermite:256 (65536 nodes) adjoint-roundtrip 0.47 s; cantor-ifs:17
# adjoint-roundtrip --kernel cantor4 0.58 s; band:2000 factorize 0.96 s and
# 97 MB, most of it numpy's O(n^3) Gauss-Legendre rule.  Gauss-Hermite weights
# underflow to zero from 371 nodes per axis.  The --measure help lists the
# kinds in this order.
_MEASURE_KINDS = {
    "uniform": _MeasureKind(lambda n: periodic_uniform(n), 2048, 2 ** 17, lambda n: n),
    "gauss-hermite": _MeasureKind(lambda n: gauss_hermite_plane(n), 64, 256, lambda n: n * n),
    "cantor-ifs": _MeasureKind(lambda n: cantor_ifs(n), 12, 17, lambda n: 2 ** n),
    "cantor-exact": _MeasureKind(_cantor_exact, None),
    "band": _MeasureKind(lambda n: band_gauss_legendre(n), 160, 2_000, lambda n: n),
    "atomic": _MeasureKind(lambda path: _atomic_from_file(path), "FILE"),
}


# A --kernel choice: its class, the measure and points a run takes when no
# flag gives them, its truncation level if it has one, and the node measure
# that replaces a node-free default measure in the commands that sample
# boundary values at nodes.  parse_config fills these settings in, so the
# config echo holds them.
_Kernel = namedtuple("_Kernel", "cls measure points level node_measure", defaults=(None, None))

# the commands that sample boundary values at the measure's nodes
_NODE_REQUIRED_COMMANDS = {"adjoint-roundtrip", "project"}

_KERNELS = {
    "szego": _Kernel(SzegoKernel, "uniform", "grid10"),
    "bargmann": _Kernel(BargmannKernel, "gauss-hermite", "grid6"),
    "cantor4": _Kernel(Cantor4Kernel, "cantor-exact", "grid8", level=6,
                       node_measure="cantor-ifs:10"),
    "sinc": _Kernel(SincKernel, "band", "grid5"),
}


class UsageError(Exception):
    """Invalid invocation: bad flag value, malformed descriptor, unreadable input."""


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite cell {value!r}")
        return repr(float(value))
    return str(value)


def _nonfinite_keys(value) -> list | None:
    """Keys down to the first NaN or infinite number under ``value``, else None."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        items = enumerate(value)
    else:
        nonfinite = isinstance(value, float) and not math.isfinite(value)
        return [] if nonfinite else None
    for key, child in items:
        found = _nonfinite_keys(child)
        if found is not None:
            return [key, *found]
    return None


def emit(report: dict, fmt: str = "json") -> str:
    """Serialize a report; identical reports produce identical bytes.

    A NaN or infinite value has no JSON form, so it is refused in either
    format with a ValueError that names the field.
    """
    try:
        return _json_text(report) if fmt == "json" else _csv_text(report)
    except ValueError:
        keys = _nonfinite_keys(report)
        if keys is None:
            raise
        field_name = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)
        raise ValueError(f"report value {field_name[1:]} is not finite") from None


def _csv_text(doc: dict) -> str:
    """CSV text of a report document; a non-finite number raises ValueError."""
    lines = [f"# report,{doc['command']},{doc['version']}", "# scalars", "name,value"]
    scalars = doc["scalars"]
    lines += [f"{name},{_cell(scalars[name])}" for name in sorted(scalars)]
    lines += ["# verdicts", "name,value,tolerance,passed"]
    for v in doc["verdicts"]:
        lines.append(
            f"{v['name']},{_cell(v['value'])},{_cell(v['tolerance'])},{_cell(v['passed'])}"
        )
    tables = doc["tables"]
    for name in sorted(tables):
        table = tables[name]
        lines.append(f"# table,{name}")
        lines.append(",".join(table["columns"]))
        for row in table["rows"]:
            lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _json_text(doc: dict) -> str:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)`` and a newline.

    The indenting encoder runs in Python, so it dumps the report with each
    table's rows replaced by a placeholder; the rows, nearly all of the bytes,
    are rendered by the C encoder and spliced in at the placeholder's place.
    The pieces are collected back to front and joined once.
    """
    tables = doc["tables"]
    shell = {**doc, "tables": {name: {**table, "rows": f"\0rows of {name}"}
                               for name, table in tables.items()}}
    text = json.dumps(shell, sort_keys=True, indent=2, allow_nan=False)
    pieces = ["\n"]
    # sort_keys orders the placeholders by table name; the tables follow the
    # config, which may echo any string, so the rightmost match is the placeholder
    for name in sorted(tables, reverse=True):
        text, _, tail = text.rpartition(json.dumps(f"\0rows of {name}"))
        pieces[:0] = [*_json_rows(tables[name]["rows"]), tail]
    return "".join([text, *pieces])


def _json_rows(rows: list) -> list[str]:
    """A table's rows as the indenting encoder prints them at their depth, in pieces.

    Rows hold numbers only, so every ", " of the compact form separates two
    cells and every "], [" two rows.
    """
    if not rows:
        return ["[]"]
    cells = _ROW_ENCODER.encode(rows)[2:-2]  # [[a, b], [c, d]] -> a, b], [c, d
    cells = cells.replace("], [", "\n        ],\n        [\n          ")
    return ["[\n        [\n          ", cells.replace(", ", ",\n          "),
            "\n        ]\n      ]"]


_ROW_ENCODER = json.JSONEncoder(allow_nan=False)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {value}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive and finite, got {value}")
    return value


def _scale_factor(text: str) -> float:
    value = _positive_float(text)
    if value > MAX_SCALE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_SCALE:g}, got {value:g}")
    return value


def _int_range(low: int, high: int | None = None):
    """Flag parser for an integer in low..high, or at least low when high is None."""
    bound = f"at least {low}" if high is None else f"in {low}..{high}"

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
        if value < low or (high is not None and value > high):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Raises every invalid invocation as a UsageError, and ignores a failed
    write of help and version text, as Python 3.11.7+ does, so that ``main``
    delivers that text like a report."""

    def error(self, message):
        raise UsageError(message)

    def _print_message(self, message, file=None):
        with contextlib.suppress(OSError):
            super()._print_message(message, file)


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command; each flag's name, parser, range and default live here."""
    parser = _Parser(
        prog="rkboundary",
        description="Verification runs for boundary measures of positive definite kernels.",
    )
    parser.add_argument("--version", action="version", version=f"rkboundary {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    def command(name, summary, *, tol, kernel=True, measure=True, seed=False):
        p = sub.add_parser(name, help=summary)
        if kernel:
            p.add_argument("--kernel", choices=sorted(_KERNELS), default="szego")
            p.add_argument("--level", type=_int_range(1, MAX_LAMBDA_LEVEL), default=None,
                           help="cantor4 truncation level "
                                f"(default {_KERNELS['cantor4'].level}, "
                                f"at most {MAX_EXACT_LEVEL} on cantor-exact)")
        if measure:
            p.add_argument("--measure", default=None, help="kind[:param], e.g. " + ", ".join(
                kind if k.default is None else f"{kind}:{k.default}"
                for kind, k in _MEASURE_KINDS.items()))
            p.add_argument("--scale", type=_scale_factor, default=1.0,
                           help=f"factor on all weights, at most {MAX_SCALE:g} (default %(default)s)")
        if kernel:
            p.add_argument("--points", default=None,
                           help="gridN, a JSON file, or inline values 0.1,0.2+0.3j,...")
        p.add_argument("--tol", type=_positive_float, default=tol,
                       help="verdict tolerance (default %(default)s)")
        if seed:
            p.add_argument("--seed", type=_int_range(0), default=0,
                           help="random generator seed (default %(default)s)")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--config", default=None,
                       help="JSON file of flag values keyed by long flag name; flags override it")
        return p

    command("pd-check", "positive-semidefiniteness of a sampled Gram matrix",
            tol=DEFAULT_PSD_TOL, measure=False)
    command("factorize", "boundary factorization defect of a kernel/measure pair", tol=1e-8)

    p = command("isometry", "native-vs-boundary norm agreement on random elements",
                tol=1e-8, seed=True)
    p.add_argument("--samples", type=_int_range(1, MAX_ISOMETRY_SAMPLES), default=100,
                   help="number of random coefficient vectors (default %(default)s)")

    command("carleson", "largest boundary-to-native norm ratio on the section", tol=1e-8)

    p = command("adjoint-roundtrip", "adjoint-after-transform identity on probe points",
                tol=1e-9, seed=True)
    p.add_argument("--probes", type=_int_range(1, MAX_PROBES), default=50,
                   help="number of probe points (default %(default)s)")

    p = command("project", "least-squares projection of a boundary exponential", tol=1e-9)
    p.add_argument("--freq", type=_int_range(-MAX_EXACT_INT, MAX_EXACT_INT), default=-1,
                   help="target exponential frequency (default %(default)s)")

    p = command("gp", "Gaussian sampling with kernel covariance",
                tol=0.05, measure=False, seed=True)
    # a covariance estimate needs two samples
    p.add_argument("--samples", type=_int_range(2, MAX_EXACT_INT), default=100000,
                   help="Monte-Carlo sample count (default %(default)s)")

    p = command("shannon", "cardinal-series reconstruction of a shifted sinc",
                tol=1e-3, kernel=False, measure=False)
    p.add_argument("--shift", type=_finite_float, default=0.3,
                   help="target shift (default %(default)s)")
    p.add_argument("--support", type=_int_range(1, MAX_SHANNON_SUPPORT), default=1000,
                   help="samples at integers in [-support, support] (default %(default)s)")
    p.add_argument("--grid", default="-2:2:0.01",
                   help="evaluation grid start:stop:step with a positive step (default "
                        "%(default)s; write --grid=START:STOP:STEP for negative starts)")

    p = command("cantor-onb", "orthonormality and completeness diagnostics "
                              "of the Cantor exponential basis",
                tol=1e-12, kernel=False, measure=False)
    p.add_argument("--level", type=_int_range(1, MAX_EXACT_LEVEL), default=6,
                   help="frequency set level (default %(default)s)")
    p.add_argument("--freq", type=_int_range(-MAX_EXACT_INT, MAX_EXACT_INT), default=2,
                   help="completeness probe frequency (default %(default)s)")
    # the completeness table starts at level 2
    p.add_argument("--parseval-max", type=_int_range(2, MAX_PARSEVAL_LEVEL), default=12,
                   help="largest level in the completeness table (default %(default)s)")

    command("morphism", "pushforward ordering and commuting-diagram check "
                        "on the built-in atom refinement",
            tol=1e-12, kernel=False, measure=False)

    return parser


def parse_config(argv=None) -> argparse.Namespace:
    """Parse flags and the optional config file into a resolved run.

    The entries of a config file are read as ``--key=value`` flags placed
    right after the command name, so the command's own parser checks them
    and the flags given on the command line override them.  A setting the
    command does not take is absent from the namespace.  The settings whose
    defaults depend on the kernel are filled in from its ``_KERNELS`` row, and
    a sized measure kind given without a size gets its default size, so the
    namespace is the whole run and its echo replays it through ``--config``.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + _config_flags(args.config) + argv[at:])
    if "kernel" in args:
        row = _KERNELS[args.kernel]
        if row.level is None and args.level is not None:
            raise UsageError("--level applies only to --kernel cantor4")
        args.level = row.level if args.level is None else args.level
        args.points = row.points if args.points is None else args.points
        if "measure" in args:
            if args.measure is None:
                node_measure = args.command in _NODE_REQUIRED_COMMANDS and row.node_measure
                args.measure = node_measure or row.measure
            kind, _, param = args.measure.partition(":")
            sized = _MEASURE_KINDS.get(kind)
            if not param and sized is not None and sized.bound is not None:
                args.measure = f"{kind}:{sized.default}"
    return args


def _read_json(path: str, what: str):
    """The document in a JSON file; an unreadable or malformed one is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read {what} file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise UsageError(f"{what} file is not valid JSON: {exc}") from None


def _config_flags(path: str) -> list:
    """The entries of a JSON config file as ``--key=value`` flags."""
    entries = _read_json(path, "config")
    if not isinstance(entries, dict):
        raise UsageError("config file must hold a JSON object")
    if "config" in entries:
        raise UsageError("a config file cannot name another config file")
    return [f"--{key.replace('_', '-')}={value}" for key, value in entries.items()]


# ---------------------------------------------------------------------------
# object construction from config
# ---------------------------------------------------------------------------

def make_kernel(cfg: argparse.Namespace):
    cls = _KERNELS[cfg.kernel].cls
    return cls() if cfg.level is None else cls(level=cfg.level)


def make_measure(cfg: argparse.Namespace, ext, section):
    """The unit measure the descriptor names, scaled by ``--scale``, for a run
    on ``section`` through the boundary extension ``ext``.

    A run whose products of sizes exceed their bounds is refused before a
    sized measure is built, and so is a node-free measure in a command that
    samples at nodes.  A measure off the extension's boundary (see
    ``check_pair``) is refused once built, and so are nodes off the real line
    in ``project``.
    """
    desc = cfg.measure
    kind, _, param = desc.partition(":")
    row = _MEASURE_KINDS.get(kind)
    if row is None:
        raise UsageError(f"unknown measure kind {kind!r}")
    try:
        if row.bound is not None:
            param = int(param)
            if not 1 <= param <= row.bound:
                raise ValueError(f"its size must be in 1..{row.bound}, got {param}")
            _check_run_size(cfg, section.size, row.nodes(param))
        measure = row.build(param)
        if measure.nodes is None and cfg.command in _NODE_REQUIRED_COMMANDS:
            raise UsageError(f"{cfg.command} samples boundary values at quadrature nodes; "
                             "use a node-based measure (e.g. cantor-ifs:10)")
        if row.bound is None:
            _check_run_size(cfg, section.size, 0 if measure.nodes is None else measure.nodes.size)
        measure = scale_measure(measure, cfg.scale)
        check_pair(ext, measure, section)
    except ValueError as exc:
        raise UsageError(f"bad measure descriptor {desc!r}: {exc}") from None
    if cfg.command == "project" and np.any(np.imag(measure.nodes) != 0):
        raise UsageError("frequency targets need a real boundary "
                         "(circle, band, or Cantor atoms)")
    # a sized kind builds a unit measure, which carries the mass --scale gives
    # it; an atomic file gives its own masses, so they are bounded here
    # (cantor-exact's one weight is --scale, which always passes)
    if row.bound is None:
        with np.errstate(over="ignore"):
            mass = measure.total_mass
        if not mass <= MAX_SCALE:
            raise UsageError(f"bad measure descriptor {desc!r}: its weights total more "
                             f"than {MAX_SCALE:g} after scaling")
    return measure


def _check_run_size(cfg: argparse.Namespace, points: int, nodes: int) -> None:
    """Refuse a run on ``points`` section points and ``nodes`` measure nodes
    whose products of sizes exceed their bounds."""
    products = [(f"{points} points x {nodes} nodes", points * nodes, MAX_POINT_NODES)]
    if cfg.command == "isometry":
        products.append((f"{cfg.samples} samples x {points} points x ({nodes} nodes + "
                         f"{points} points)", cfg.samples * points * (nodes + points),
                         MAX_TRIAL_VALUES))
    if cfg.command == "adjoint-roundtrip":
        products.append((f"{cfg.probes} probes x {nodes} nodes", cfg.probes * nodes,
                         MAX_PROBE_NODES))
    for factors, value, bound in products:
        if value > bound:
            raise UsageError(f"{factors} is {value}, more than {bound}")


def _atomic_from_file(path: str):
    if not path:
        raise UsageError("atomic measures need a file: --measure atomic:FILE")
    doc = _read_json(path, "measure")
    try:
        nodes = [_scalar_from_json(x) for x in doc["nodes"]]
        weights = [float(w) for w in doc["weights"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"measure file needs 'nodes' and 'weights' lists: {exc}") from None
    return atomic(np.asarray(nodes), weights)


def _scalar_from_json(entry):
    if isinstance(entry, (list, tuple)):
        if len(entry) != 2:
            raise ValueError("complex values serialize as [re, im]")
        return complex(float(entry[0]), float(entry[1]))
    return float(entry)


def _parse_inline_scalar(token: str):
    try:
        return complex(token)
    except ValueError:
        raise UsageError(f"malformed point {token!r}") from None


# The spiral of a disk or plane kernel: the radius of the k-th of the n points
# of its builtin gridN, and the radius of the disk its random probes are drawn
# from.
_Spiral = namedtuple("_Spiral", "radius probe_radius")

_SPIRALS = {
    "disk": _Spiral(lambda k, n: 0.15 + 0.75 * k / max(n - 1, 1), 0.9),
    "plane": _Spiral(lambda k, n: 2.0 * (k + 1) / n, 2.0),
}


def builtin_grid(n: int, kernel) -> np.ndarray:
    """Deterministic point sets: a low-discrepancy spiral for disk and plane
    kernels, centered integers on the line."""
    k = np.arange(n)
    if kernel.domain == "line":
        return k - (n - 1) / 2.0
    angle = 2.0 * np.pi * np.mod(_GOLDEN * k, 1.0)
    return _SPIRALS[kernel.domain].radius(k, n) * np.exp(1j * angle)


def make_points(cfg: argparse.Namespace, kernel) -> np.ndarray:
    src = cfg.points
    match = re.fullmatch(r"grid(\d+)", src)
    if match:
        return builtin_grid(_section_size(int(match.group(1))), kernel)
    if src.endswith(".json") or os.path.exists(src):
        doc = _read_json(src, "points")
        if isinstance(doc, dict) and "domain" in doc and doc["domain"] != kernel.domain:
            raise UsageError(
                f"points file is tagged for domain {doc['domain']!r} "
                f"but the kernel lives on {kernel.domain!r}"
            )
        try:
            entries = doc["points"] if isinstance(doc, dict) else doc
            points = np.asarray([_scalar_from_json(x) for x in entries])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"points file needs a 'points' list: {exc}") from None
    else:
        points = np.asarray([_parse_inline_scalar(tok) for tok in src.split(",") if tok])
    _section_size(points.size)
    return points


def _section_size(count: int) -> int:
    if count > MAX_SECTION_POINTS:
        raise UsageError(f"the section has {count} points, more than {MAX_SECTION_POINTS}")
    return count


def _domain_probes(kernel, rng: np.random.Generator, count: int) -> np.ndarray:
    if kernel.domain == "line":
        return rng.uniform(-5.0, 5.0, size=count)
    r = _SPIRALS[kernel.domain].probe_radius * np.sqrt(rng.uniform(size=count))
    return r * np.exp(2j * np.pi * rng.uniform(size=count))


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------

def _table(columns: list, *values) -> dict:
    """A table with one row per item, from one array (or list) per column.

    Each column is converted with ``.tolist()``, so every cell is a Python
    int or float, and columns of unequal length raise ValueError.
    """
    cols = [np.asarray(v).tolist() for v in values]
    return {"columns": columns, "rows": [list(row) for row in zip(*cols, strict=True)]}


def _entry_table(matrix: np.ndarray, column: str) -> dict:
    # row-wise from matrix.tolist(): n**2 rows through per-column lists would
    # hold three more n**2 lists at once
    return {
        "columns": ["i", "j", column],
        "rows": [[i, j, value]
                 for i, row in enumerate(matrix.tolist()) for j, value in enumerate(row)],
    }


def _verdict(report: dict, name: str, value: float, tolerance: float) -> None:
    """Record a verdict: the measured value beside the tolerance it was judged
    against.  It passes iff the value is at most the tolerance."""
    value, tolerance = float(value), float(tolerance)
    report["verdicts"].append(
        {"name": name, "value": value, "tolerance": tolerance, "passed": value <= tolerance}
    )


def _boundary_setup(cfg: argparse.Namespace):
    """Section, measure and canonical boundary extension of a section runner."""
    kernel = make_kernel(cfg)
    section = build_section(kernel, make_points(cfg, kernel))
    ext = kernel.boundary_extension()
    return section, make_measure(cfg, ext, section), ext


def _run_pd_check(cfg: argparse.Namespace, report: dict) -> None:
    kernel = make_kernel(cfg)
    gram = kernel.gram(make_points(cfg, kernel))
    verdict = pd_check(gram, cfg.tol)
    report["scalars"] = {
        "min_eigenvalue": verdict.min_eigenvalue,
        "threshold": verdict.threshold,
        "points": gram.shape[0],
    }
    values = verdict.eigenvalues
    report["tables"]["eigenvalues"] = _table(
        ["index", "eigenvalue"], np.arange(len(values)), values)
    # min eigenvalue >= threshold, negated so it reads value <= tolerance;
    # 0.0 - x rather than -x, so that a zero never prints as -0.0
    _verdict(report, "positive-semidefinite",
             0.0 - verdict.min_eigenvalue, 0.0 - verdict.threshold)


def _membership(cfg: argparse.Namespace, report: dict):
    """The section's membership defect; fills the Carleson scalars and pencil table."""
    section, measure, ext = _boundary_setup(cfg)
    # an empty section spans nothing, so its estimate 0 fails the unit verdict
    member = membership_defect(ext, measure, section)
    report["scalars"]["carleson_constant_estimate"] = member.carleson_constant
    report["scalars"]["total_mass"] = measure.total_mass
    values = member.eigenvalues
    report["tables"]["pencil_eigenvalues"] = _table(
        ["index", "eigenvalue"], np.arange(len(values)), values)
    return member


def _run_factorize(cfg: argparse.Namespace, report: dict) -> None:
    member = _membership(cfg, report)
    report["scalars"]["membership_defect"] = member.defect
    report["tables"]["factorization_deviation"] = _entry_table(member.deviation, "abs_deviation")
    _verdict(report, "membership", member.defect, cfg.tol)


def _run_carleson(cfg: argparse.Namespace, report: dict) -> None:
    gap = abs(_membership(cfg, report).carleson_constant - 1.0)
    _verdict(report, "unit-carleson-constant", gap, cfg.tol)


def _run_isometry(cfg: argparse.Namespace, report: dict) -> None:
    section, measure, ext = _boundary_setup(cfg)
    parts = np.random.default_rng(cfg.seed).standard_normal((cfg.samples, 2, section.size))
    coeffs = parts[:, 0] + 1j * parts[:, 1]
    norm_sq, transformed = isometry_norms(boundary_gram(ext, measure, section), coeffs)
    defect = np.abs(norm_sq - transformed)
    normalized = defect / (1.0 + norm_sq)
    worst = float(np.max(normalized))
    report["scalars"] = {"max_normalized_defect": worst}
    report["tables"]["isometry_trials"] = _table(
        ["trial", "norm_sq", "defect", "normalized_defect"],
        np.arange(cfg.samples), norm_sq, defect, normalized)
    _verdict(report, "isometry", worst, cfg.tol)


def _run_adjoint_roundtrip(cfg: argparse.Namespace, report: dict) -> None:
    section, measure, ext = _boundary_setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    f = element(section, rng.standard_normal(section.size) + 1j * rng.standard_normal(section.size))
    samples = boundary_transform(f, ext, measure.nodes)
    probes = _domain_probes(section.kernel, rng, cfg.probes)
    roundtrip = adjoint_apply(samples, ext, measure, probes)
    errors = np.abs(roundtrip - evaluate_element(f, probes))
    worst = float(np.max(errors))
    report["scalars"] = {"max_roundtrip_error": worst}
    report["tables"]["probe_errors"] = _table(
        ["probe_re", "probe_im", "abs_error"], np.real(probes), np.imag(probes), errors)
    _verdict(report, "adjoint-roundtrip", worst, cfg.tol)


def _run_project(cfg: argparse.Namespace, report: dict) -> None:
    section, measure, ext = _boundary_setup(cfg)
    target = np.exp(2j * np.pi * cfg.freq * measure.nodes)
    result = onto_residual(target, ext, measure, section)
    report["scalars"] = {
        "residual": result.residual,
        "target_norm": result.target_norm,
        "rank": result.rank,
    }
    coeffs = result.coeffs
    report["tables"]["projection_coefficients"] = _table(
        ["index", "re", "im"], np.arange(len(coeffs)), np.real(coeffs), np.imag(coeffs))
    _verdict(report, "residual-bounded-by-target", result.residual - result.target_norm, cfg.tol)


def _run_gp(cfg: argparse.Namespace, report: dict) -> None:
    kernel = make_kernel(cfg)
    section = build_section(kernel, make_points(cfg, kernel))
    ensemble = build_ensemble(section, cfg.seed)
    cov = empirical_covariance(ensemble, cfg.samples)
    defect = covariance_gap(cov, section.gram)
    report["scalars"] = {
        "covariance_defect": defect,
        "factor_residual": ensemble.factor_residual,
        "sample_count": cfg.samples,
    }
    report["tables"]["entry_errors"] = _entry_table(np.abs(cov - section.gram), "abs_error")
    _verdict(report, "covariance", defect, cfg.tol)


def _run_shannon(cfg: argparse.Namespace, report: dict) -> None:
    try:
        start, stop, step = (float(x) for x in cfg.grid.split(":"))
    except ValueError:
        raise UsageError(f"malformed grid {cfg.grid!r}; expected start:stop:step") from None
    if not (np.all(np.isfinite([start, stop, step])) and step > 0):
        raise UsageError(f"grid {cfg.grid!r} needs finite bounds and a positive step")
    # np.arange's length is the ceiling of this ratio
    if (stop + step / 2 - start) / step > MAX_SHANNON_GRID:
        raise UsageError(f"grid {cfg.grid!r} has more than {MAX_SHANNON_GRID} points")
    grid = np.arange(start, stop + step / 2, step)
    if grid.size == 0:
        raise UsageError(f"grid {cfg.grid!r} is empty: stop lies below start")
    values = np.sinc(np.arange(-cfg.support, cfg.support + 1) - cfg.shift)
    reconstructed = shannon_reconstruct(values, grid)
    errors = np.abs(reconstructed - np.sinc(grid - cfg.shift))
    worst = float(np.max(errors))
    # the series returns the stored sample exactly at integers of the support
    stored_mask = (grid == np.rint(grid)) & (np.abs(grid) <= cfg.support)
    stored = values[grid[stored_mask].astype(int) + cfg.support]
    integer_gap = float(np.max(np.abs(reconstructed[stored_mask] - stored), initial=0.0))
    report["scalars"] = {"max_error": worst, "max_integer_gap": integer_gap}
    report["tables"]["grid_errors"] = _table(["t", "abs_error"], grid, errors)
    _verdict(report, "reconstruction", worst, cfg.tol)
    _verdict(report, "exact-at-integers", integer_gap, 0.0)


def _run_cantor_onb(cfg: argparse.Namespace, report: dict) -> None:
    lam, max_diag, row_max = lambda4_orthonormality_gaps(cfg.level)
    max_off = float(np.max(row_max))
    mu_hat_one = float(np.abs(cantor4_fourier(1.0)))
    # level 1 is left out: the completeness table starts at level 2
    levels, defects = zip(*parseval_table(cfg.freq, cfg.parseval_max)[1:])
    report["scalars"] = {
        "max_offdiagonal": max_off,
        "max_diagonal_gap": max_diag,
        "mu_hat_at_one": mu_hat_one,
        "frequencies": int(lam.shape[0]),
    }
    report["tables"]["row_max_offdiagonal"] = _table(["lambda", "max_offdiagonal"], lam, row_max)
    report["tables"]["parseval_defects"] = _table(["level", "defect"], levels, defects)
    _verdict(report, "orthogonality", max_off, cfg.tol)
    _verdict(report, "unit-norms", max_diag, cfg.tol)
    _verdict(report, "transform-zero-at-one", mu_hat_one, 1e-14)
    _verdict(report, "parseval-bounded", max(0.0, -min(defects), max(defects) - 1.0), 1e-10)


def morphism_demo():
    """Built-in refinement example: four uniform atoms collapsing onto two.

    A rank-two feature kernel over three indices, a two-atom tight frame
    boundary, and its four-atom refinement pulled back through the pairing
    map.  Returns (kernel, ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map,
    section, element).
    """
    features = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8j]], dtype=complex)
    kernel = ExplicitFeatureKernel(features)
    frames = np.array([[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]], dtype=complex)
    ext_coarse = FrameExtension(kernel, frames)
    mu_coarse = atomic([0, 1], [0.5, 0.5])
    atom_map = {0: 0, 1: 0, 2: 1, 3: 1}
    ext_fine = PullbackExtension(ext_coarse, atom_map)
    mu_fine = atomic([0, 1, 2, 3], [0.25, 0.25, 0.25, 0.25])
    section = build_section(kernel, [0, 1, 2])
    f = element(section, [1.0 + 0.5j, -0.25j, 0.75])
    return kernel, ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map, section, f


def _run_morphism(cfg: argparse.Namespace, report: dict) -> None:
    _, ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map, section, f = morphism_demo()
    diagram = commuting_diagram_defect(ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map, f)
    coarse_member = membership_defect(ext_coarse, mu_coarse, section)
    fine_member = membership_defect(ext_fine, mu_fine, section)
    report["scalars"] = {
        "pushforward_mass_error": diagram.mass_error,
        "transform_defect": diagram.transform_defect,
        "pullback_isometry_defect": diagram.pullback_isometry_defect,
    }
    report["tables"]["pushforward_masses"] = _table(
        ["atom", "mass"], diagram.image.nodes, diagram.image.weights)
    _verdict(report, "pushforward", diagram.mass_error, cfg.tol)
    _verdict(report, "coarse-membership", coarse_member.defect, cfg.tol)
    _verdict(report, "fine-membership", fine_member.defect, cfg.tol)
    _verdict(report, "commuting-diagram", diagram.transform_defect, cfg.tol)
    _verdict(report, "pullback-isometry", diagram.pullback_isometry_defect, cfg.tol)


_RUNNERS = {
    "pd-check": _run_pd_check,
    "factorize": _run_factorize,
    "isometry": _run_isometry,
    "carleson": _run_carleson,
    "adjoint-roundtrip": _run_adjoint_roundtrip,
    "project": _run_project,
    "gp": _run_gp,
    "shannon": _run_shannon,
    "cantor-onb": _run_cantor_onb,
    "morphism": _run_morphism,
}


def run(config: argparse.Namespace) -> dict:
    """Execute one command into the report document that ``emit`` serializes;
    deterministic given the config (seed included)."""
    # the output and config-file paths are delivery metadata, not part of the
    # computation; keeping them out of the echo keeps reports byte-identical
    # wherever they are written and however the settings were given
    echo = {k: v for k, v in vars(config).items()
            if v is not None and k not in ("out", "config")}
    report = {"command": config.command, "config": echo, "scalars": {}, "tables": {},
              "verdicts": [], "version": __version__}
    _RUNNERS[config.command](config, report)
    return report


def _note(line: str) -> None:
    """Print one line on stderr.  A stderr that cannot be written is ignored,
    so the exit code is always the run's outcome."""
    with contextlib.suppress(OSError):
        print(line, file=sys.stderr, flush=True)


def main(argv=None) -> int:
    text, out, note = "", None, None
    try:
        config = parse_config(argv)
        started = time.perf_counter()
        report = run(config)
        note = f"# {config.command} finished in {(time.perf_counter() - started) * 1000.0:.1f} ms"
        text, out = emit(report, config.format), config.out
        passed = all(v["passed"] for v in report["verdicts"])
        code = EXIT_PASS if passed else EXIT_VERDICT_FAIL
    except SystemExit:  # --help or --version, whose text waits in stdout's buffer
        code = EXIT_PASS
    except UsageError as exc:
        _note(f"usage error: {exc}")
        return EXIT_USAGE
    except ValueError as exc:  # domain, section, PSD and linear-algebra failures
        _note(f"error: {exc}")
        return EXIT_NUMERICAL
    except Exception as exc:  # exit 1 means a failed verdict, never a crash
        _note(f"error: {type(exc).__name__}: {exc}")
        return EXIT_NUMERICAL
    try:
        with (open(out, "w", encoding="utf-8") if out
              else contextlib.nullcontext(sys.stdout)) as stream:
            stream.write(text)
            stream.flush()
    except OSError as exc:
        _note(f"error: cannot write report: {exc}")
        return EXIT_NUMERICAL
    if note:
        _note(note)
    return code
