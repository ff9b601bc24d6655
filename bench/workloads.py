"""Operation schedules for the benchmark workloads, generated from a seed.

An operation is one ``python -m rkboundary <command> ...`` invocation.  Each
workload is a fixed cycle of operation templates; operation ``i`` is template
``i % len(cycle)`` instantiated with a generator seeded by ``(seed, i)``, so
the same seed always yields the same argv, point files and expectations, and
any prefix of the schedule can be rebuilt without the rest.  The program only
ever sees the generated files and flag values.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Default section sizes of the CLI (its builtin gridN defaults per kernel).
DEFAULT_SIZES = {"szego": 10, "bargmann": 6, "cantor4": 8, "sinc": 5}
DOMAINS = {"szego": "disk", "bargmann": "plane", "cantor4": "disk", "sinc": "line"}
ALL_KERNELS = ("szego", "bargmann", "cantor4", "sinc")
DENSE_KERNELS = ("szego", "bargmann", "sinc")
# Dense kernels whose separated sections fit their quadrature; a separated
# 60-point bargmann section reaches beyond the Gauss-Hermite rule.
PENCIL_KERNELS = ("szego", "sinc")
# Commands that need a node-based real boundary for their frequency target.
PROJECT_KERNELS = ("szego", "cantor4", "sinc")

EXIT_PASS, EXIT_VERDICT_FAIL, EXIT_USAGE, EXIT_NUMERICAL = 0, 1, 2, 3
WORK = "{work}"  # placeholder for the run's input/output directory in argv


@dataclass(frozen=True)
class Op:
    """One generated invocation plus everything the oracle needs to judge it.

    ``args`` follow the subcommand and may contain the ``{work}`` placeholder.
    ``facts`` carries the generated inputs the oracle recomputes from (points,
    kernel, level, scale, ...).  ``inputs`` maps file names in the work
    directory to the JSON documents (or raw text) written before the run.
    ``replay_of`` names an earlier operation whose argv this one repeats
    byte for byte; its report must come out byte-identical.
    """

    op_id: int
    command: str
    args: tuple
    expect_exit: int
    facts: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    replay_of: int | None = None

    @property
    def produces_report(self) -> bool:
        return self.expect_exit in (EXIT_PASS, EXIT_VERDICT_FAIL)

    def out_path(self, work: Path) -> Path:
        return work / f"out-{self.replay_of if self.replay_of is not None else self.op_id}.json"

    def argv(self, work: Path) -> list:
        args = [a.replace(WORK, str(work)) for a in self.args]
        return [self.command, *args, "--out", str(self.out_path(work))]


# ---------------------------------------------------------------------------
# input generators
# ---------------------------------------------------------------------------

def random_points(rng: np.random.Generator, kernel: str, n: int) -> list:
    """Uniform points on the kernel's domain: disk of radius 0.9, plane disk of
    radius 2, or the interval [-5, 5].  Complex values serialize as [re, im]."""
    domain = DOMAINS[kernel]
    if domain == "line":
        return [float(x) for x in rng.uniform(-5.0, 5.0, size=n)]
    radius = 0.9 if domain == "disk" else 2.0
    r = radius * np.sqrt(rng.uniform(size=n))
    z = r * np.exp(2j * np.pi * rng.uniform(size=n))
    return [[float(v.real), float(v.imag)] for v in z]


def separated_points(rng: np.random.Generator, kernel: str, n: int) -> list:
    """Points one cell apart, each placed at random within its cell.

    On the disk and the plane the cells are the n angular sectors of a
    circle; on the line they are unit intervals around the centered integers.
    The Carleson pencil resolves such sections to its 1e-8 tolerance.  On
    uniform random points it does not (a known defect; see ``defect_probes``),
    so the operations that check the Carleson estimate take these.  n
    equispaced Szego points on the circle of radius r have a Gram condition
    number of r^(2 - 2n); the disk radius keeps it near 1e4.
    """
    if DOMAINS[kernel] == "line":
        x = np.arange(n) - (n - 1) / 2.0 + rng.uniform(-0.2, 0.2, size=n)
        return [float(v) for v in x]
    radius = max(0.8, 10.0 ** (-2.0 / (n - 1))) if DOMAINS[kernel] == "disk" else 1.5
    angle = 2.0 * np.pi * (np.arange(n) + rng.uniform(0.0, 0.5, size=n) + rng.uniform()) / n
    z = radius * np.exp(1j * angle)
    return [[float(v.real), float(v.imag)] for v in z]


def _with_points(op_id: int, kernel: str, points: list, facts: dict) -> tuple:
    name = f"pts-{op_id}.json"
    doc = {"domain": DOMAINS[kernel], "points": points}
    facts = {"kernel": kernel, "points": points, **facts}
    return ("--kernel", kernel, "--points", f"{WORK}/{name}"), facts, {name: doc}


def _section_op(op_id, rng, command, kernel, n, extra=(), expect=EXIT_PASS,
                points=random_points, **facts):
    args, facts, inputs = _with_points(op_id, kernel, points(rng, kernel, n), facts)
    return Op(op_id, command, args + tuple(extra), expect, facts, inputs)


def _scaled(op_id, rng, command, kernel, n, alpha, extra=()):
    """A Carleson-checking operation (factorize or carleson) on a separated section."""
    expect = EXIT_PASS if alpha == 1.0 else EXIT_VERDICT_FAIL
    return _section_op(op_id, rng, command, kernel, n, ("--scale", repr(alpha), *extra),
                       expect, points=separated_points, scale=alpha)


def _fresh_seed(rng) -> str:
    return str(int(rng.integers(0, 2**31 - 1)))


# ---------------------------------------------------------------------------
# cli-defaults: interactive use at default sizes, all ten subcommands
# ---------------------------------------------------------------------------

def _malformed(op_id: int, rng, cycle: int) -> Op:
    """Invocations with a documented non-zero exit code (2 usage, 3 numerical)."""
    variant = cycle % 7
    if variant == 0:  # a point outside the disk
        name = f"outside-{op_id}.json"
        pts = random_points(rng, "szego", 4) + [[1.05, 0.0]]
        return Op(op_id, "factorize", ("--kernel", "szego", "--points", f"{WORK}/{name}"),
                  EXIT_NUMERICAL, inputs={name: {"points": pts}})
    if variant == 1:
        return Op(op_id, "carleson", ("--tol=-1",), EXIT_USAGE)
    if variant == 2:
        return Op(op_id, "factorize", ("--measure", "bogus:3"), EXIT_USAGE)
    if variant == 3:
        return Op(op_id, "gp", ("--points", f"{WORK}/missing-{op_id}.json"), EXIT_USAGE)
    if variant == 4:
        return Op(op_id, "isometry", ("--kernel", "nosuch"), EXIT_USAGE)
    if variant == 5:
        return Op(op_id, "cantor-onb", ("--level", "0"), EXIT_USAGE)
    name = f"config-{op_id}.json"  # a config file that is not JSON
    return Op(op_id, "pd-check", ("--config", f"{WORK}/{name}"), EXIT_USAGE,
              inputs={name: "{not json"})


def _cli_defaults(op_id: int, slot: int, cycle: int, rng) -> Op:
    k = ALL_KERNELS[(cycle + slot) % len(ALL_KERNELS)]
    n = DEFAULT_SIZES[k]
    seed = _fresh_seed(rng)
    if slot == 0:
        return _section_op(op_id, rng, "pd-check", k, n)
    if slot == 1:
        return _scaled(op_id, rng, "factorize", k, n, 1.0)
    if slot == 2:
        return _section_op(op_id, rng, "isometry", k, n, ("--seed", seed), samples=100)
    if slot == 3:
        return _scaled(op_id, rng, "carleson", k, n, 1.0)
    if slot == 4:
        return _section_op(op_id, rng, "adjoint-roundtrip", k, n, ("--seed", seed), probes=50)
    if slot == 5:
        k = PROJECT_KERNELS[cycle % len(PROJECT_KERNELS)]
        freq = int(rng.integers(-3, 4))
        return _section_op(op_id, rng, "project", k, DEFAULT_SIZES[k], (f"--freq={freq}",),
                           scale=1.0)
    if slot == 6:
        # the szego gp sets the peak RSS, so it runs in the first cycle
        k = ALL_KERNELS[cycle % len(ALL_KERNELS)]
        return _section_op(op_id, rng, "gp", k, DEFAULT_SIZES[k], ("--seed", seed),
                           samples=100000)
    if slot == 7:
        shift = round(float(rng.uniform(-0.9, 0.9)), 6)
        return Op(op_id, "shannon", (f"--shift={shift!r}",), EXIT_PASS,
                  {"shift": shift, "support": 1000, "grid": (-2.0, 2.0, 0.01)})
    if slot == 8:
        freq = int(rng.integers(0, 64))
        return Op(op_id, "cantor-onb", ("--freq", str(freq)), EXIT_PASS,
                  {"level": 6, "freq": freq, "parseval_max": 12})
    if slot == 9:
        return Op(op_id, "morphism", (), EXIT_PASS, {})
    if slot == 10:
        alpha = (0.5, 2.0, 3.0)[cycle % 3]
        return _scaled(op_id, rng, "carleson", k, n, alpha)
    if slot == 11:
        alpha = (2.0, 3.0, 0.5)[cycle % 3]
        return _scaled(op_id, rng, "factorize", k, n, alpha)
    if slot == 12:
        return Op(op_id, "shannon", ("--grid=0:1",), EXIT_USAGE)
    if slot == 13:
        return _malformed(op_id, rng, cycle)
    raise IndexError(slot)


# ---------------------------------------------------------------------------
# dense-sections: large sections on the node route (szego, bargmann, sinc)
# ---------------------------------------------------------------------------

def _dense_sections(op_id: int, slot: int, cycle: int, rng) -> Op:
    k = DENSE_KERNELS[(cycle + slot) % len(DENSE_KERNELS)]
    # sizes sweep 60..200 (and 30..60 for gp) by position in the schedule, so
    # every run covers the range alike; the points themselves come from the seed
    n = 60 + 20 * ((cycle + 3 * slot) % 8)
    if slot in (0, 1, 2, 3):
        # separated sinc sections span up to 200 units; 400 band nodes resolve them
        k = PENCIL_KERNELS[(cycle + slot) % len(PENCIL_KERNELS)]
        band = ("--measure", "band:400") if k == "sinc" else ()
        if slot == 0:
            return _scaled(op_id, rng, "factorize", k, n, 1.0, band)
        return _scaled(op_id, rng, "carleson", k, n, float(slot), band)
    if slot == 4:
        k = ("szego", "sinc")[cycle % 2]
        freq = int(rng.integers(-3, 4))
        return _section_op(op_id, rng, "project", k, n, (f"--freq={freq}",), scale=1.0)
    if slot == 5:
        return _section_op(op_id, rng, "pd-check", k, n)
    if slot == 6:
        # Gauss-Hermite nodes: every trial re-evaluates the extension on 64^2 nodes
        return _section_op(op_id, rng, "isometry", "bargmann", n,
                           ("--samples", "20", "--seed", _fresh_seed(rng)), samples=20)
    if slot == 7:
        # the 60-point gp sets the peak RSS, so it runs in the first cycle
        n = (60, 30, 50, 40)[cycle % 4]
        return _section_op(op_id, rng, "gp", k, n, ("--seed", _fresh_seed(rng)), samples=100000)
    raise IndexError(slot)


# ---------------------------------------------------------------------------
# cantor-exact: the node-free Cantor route and its node-route twin
# ---------------------------------------------------------------------------

def _cantor_exact(op_id: int, slot: int, cycle: int, rng) -> Op:
    level = 8 + (cycle + slot) % 2
    n = DEFAULT_SIZES["cantor4"]
    lvl = ("--level", str(level))
    exact = ("--measure", "cantor-exact", *lvl)
    if slot == 0:
        return _scaled(op_id, rng, "factorize", "cantor4", n, 1.0, exact)
    if slot == 1:
        return _scaled(op_id, rng, "carleson", "cantor4", n, 1.0, exact)
    if slot == 2:
        return _section_op(op_id, rng, "isometry", "cantor4", n,
                           ("--measure", "cantor-exact", "--level", "7", "--samples", "20",
                            "--seed", _fresh_seed(rng)), samples=20, level=7)
    if slot == 3:
        freq = int(rng.integers(0, 64))
        return Op(op_id, "cantor-onb", (*lvl, "--freq", str(freq)), EXIT_PASS,
                  {"level": level, "freq": freq, "parseval_max": 12})
    if slot == 4:
        return _section_op(op_id, rng, "adjoint-roundtrip", "cantor4", n,
                           ("--measure", "cantor-ifs:14", "--seed", _fresh_seed(rng)), probes=50)
    if slot == 5:
        freq = int(rng.integers(-3, 4))
        return _section_op(op_id, rng, "project", "cantor4", n,
                           ("--measure", "cantor-ifs:14", f"--freq={freq}"), scale=1.0)
    raise IndexError(slot)


@dataclass(frozen=True)
class Workload:
    """A cycle of ``slots`` templates plus one closing replay of ``replay_slot``."""

    name: str
    template: object
    slots: int
    replay_slot: int

    @property
    def cycle_length(self) -> int:
        return self.slots + 1

    def op(self, seed: int, op_id: int) -> Op:
        cycle, slot = divmod(op_id, self.cycle_length)
        if slot == self.slots:
            first = self.op(seed, cycle * self.cycle_length + self.replay_slot)
            return Op(op_id, first.command, first.args, first.expect_exit, first.facts,
                      {}, replay_of=first.op_id)
        rng = np.random.default_rng([seed, op_id])
        return self.template(op_id, slot, cycle, rng)

    def is_replayed(self, op_id: int) -> bool:
        return op_id % self.cycle_length == self.replay_slot

    def schedule(self, seed: int, count: int) -> list:
        return [self.op(seed, i) for i in range(count)]


# Why each workload exists is recorded in bench/README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in (
    Workload("cli-defaults", _cli_defaults, 14, 1),
    Workload("dense-sections", _dense_sections, 8, 0),
    # replays cantor-onb: replaying a random-section operation would count its
    # pencil outcome twice and double the run-to-run spread of the failure count
    Workload("cantor-exact", _cantor_exact, 6, 3),
)}


# ---------------------------------------------------------------------------
# known defects: fixed invocations that fail at the seed commit
# ---------------------------------------------------------------------------

DEFECT_BASE = 1_000_000  # op ids of the probes, clear of any schedule's


def defect_probes() -> list:
    """Fixed invocations that failed when the benchmark was written.

    Every run executes them once after its measurements, judges them with the
    oracle and prints the verdicts.  The timed workloads avoid these inputs,
    so that no timed operation fails; the probes keep the defects in view.
    """
    def uniform(op_id, command, kernel, n, gen_seed):
        return _section_op(op_id, np.random.default_rng(gen_seed), command, kernel, n,
                           scale=1.0)

    return [
        Op(DEFECT_BASE, "shannon", ("--grid=0:1:0",), EXIT_USAGE),
        uniform(DEFECT_BASE + 1, "carleson", "sinc", 80, 0),
        uniform(DEFECT_BASE + 2, "factorize", "szego", 120, 0),
        uniform(DEFECT_BASE + 3, "carleson", "bargmann", 100, 0),
        # about half of the random 8-point cantor4 sections fail; this one does
        uniform(DEFECT_BASE + 4, "carleson", "cantor4", 8, 5),
    ]


def write_inputs(ops, work: Path) -> None:
    """Write every generated input file of ``ops`` into ``work``."""
    for op in ops:
        for name, doc in op.inputs.items():
            text = doc if isinstance(doc, str) else json.dumps(doc)
            (work / name).write_text(text, encoding="utf-8")
