"""Process-level benchmark of the rkboundary CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload cli-defaults --seed 1 --seconds 30 --trace 0

With ``--trace 0`` one client runs a closed loop of ``python -m rkboundary``
processes (each starts after the previous one exits) for ``--seconds`` and
reports the end-to-end metrics.  With ``--trace 1`` the same schedule runs in
this process, each operation once with span wrappers and once without, and
the per-layer metrics are reported.  Every operation is judged by an oracle
that does not use the package.  The last line of standard output is one JSON
object with keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import os
import sys

NPROC = len(os.sched_getaffinity(0))
BLAS_THREADS = NPROC
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# pinned before numpy loads, so in-process runs use what the children use
for _var in BLAS_VARS:
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spawn import run_child  # noqa: E402

SETUP_REPEATS = 5
OP_TIMEOUT_S = 60.0
FLOOR_REPEATS = 5
TRACEBACK = "Traceback (most recent call last)"


class SetupError(Exception):
    """The checkout cannot run the program (no sources, or the warm-up failed)."""


@dataclass
class Result:
    op: workloads.Op
    exit_code: int | None
    wall_s: float
    max_rss_kb: int
    problems: list

    @property
    def failed(self) -> bool:
        return bool(self.problems)


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def judge(op, exit_code, timed_out, stderr, report, replayed) -> list:
    """All failure conditions of one operation, oracle included."""
    problems = []
    if timed_out:
        problems.append(oracle.Problem(f"timed out after {OP_TIMEOUT_S:.0f} s"))
    if TRACEBACK in stderr:
        last = stderr.strip().splitlines()[-1][:160]
        problems.append(oracle.Problem(f"traceback on stderr: {last}"))
    problems += oracle.check(op, exit_code, report)
    if op.replay_of is not None and report != replayed.get(op.replay_of):
        problems.append(oracle.broken(f"report bytes differ from operation {op.replay_of}"))
    return problems


def tail_latency(latencies: list) -> tuple:
    """(value, percentile) of the highest percentile with at least 10 samples above it.

    With fewer than 11 samples no percentile qualifies; the maximum is
    returned with percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Schedule:
    """The workload's operations, written to ``work`` ahead of the timed loop."""

    def __init__(self, workload, seed: int, work: Path, count: int):
        self.workload, self.seed, self.work = workload, seed, work
        self.ops: list = []
        self.extend(count)

    def extend(self, count: int) -> None:
        fresh = [self.workload.op(self.seed, i)
                 for i in range(len(self.ops), len(self.ops) + count)]
        workloads.write_inputs(fresh, self.work)
        self.ops += fresh

    def __getitem__(self, index: int):
        while index >= len(self.ops):
            self.extend(self.workload.cycle_length)
        return self.ops[index]


def whole_cycles(seconds: float):
    """Yield cycle numbers while the next whole cycle ends within half a cycle of
    the budget.  At least one cycle runs; machine speed changes how many cycles
    run, never the mix of operations in them."""
    start = time.perf_counter()
    done = 0
    while True:
        yield done
        done += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / done > seconds:
            return


def _fresh_dir(path: Path) -> None:
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        return None


# ---------------------------------------------------------------------------
# untraced: one process per operation
# ---------------------------------------------------------------------------

def run_process_op(workload, op, work: Path, env: dict, replayed: dict) -> Result:
    out = op.out_path(work)
    if out.exists():
        out.unlink()
    err_path = work / f"stderr-{op.op_id}.txt"
    outcome = run_child([sys.executable, "-m", "rkboundary", *op.argv(work)], env,
                        work / f"stdout-{op.op_id}.txt", err_path, OP_TIMEOUT_S)
    stderr = _read(err_path) or ""
    report = _read(out)
    problems = judge(op, outcome.exit_code, outcome.timed_out, stderr, report, replayed)
    _remember(workload, op, report, replayed)
    for path in (out, err_path, work / f"stdout-{op.op_id}.txt"):
        path.unlink(missing_ok=True)
    return Result(op, outcome.exit_code, outcome.wall_s, outcome.max_rss_kb, problems)


def _remember(workload, op, report, replayed: dict) -> None:
    """Keep a report until the operation that replays it has run."""
    if op.replay_of is not None:
        replayed.pop(op.replay_of, None)
    elif workload.is_replayed(op.op_id):
        replayed[op.op_id] = report


def setup(workload, seed: int, seconds: int, work: Path, env: dict) -> Schedule:
    """Generate and write the inputs, then warm the interpreter and page cache."""
    _fresh_dir(work)
    schedule = Schedule(workload, seed, work, int(seconds / 0.25) + workload.cycle_length)
    warm = run_child([sys.executable, "-m", "rkboundary", "morphism", "--out",
                      str(work / "warmup.json")], env, work / "warmup.out",
                     work / "warmup.err", OP_TIMEOUT_S)
    if warm.exit_code != 0:
        raise SetupError(f"warm-up run exited {warm.exit_code}: "
                         f"{(_read(work / 'warmup.err') or '').strip()[-400:]}")
    return schedule


def measure_processes(workload, seed: int, seconds: int, root: Path, work: Path):
    env = child_env(root)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        schedule = setup(workload, seed, seconds, work, env)
        setups.append(time.perf_counter() - start)

    replayed: dict = {}
    results = []
    start = time.perf_counter()
    for _ in whole_cycles(seconds):
        for _ in range(workload.cycle_length):
            results.append(run_process_op(workload, schedule[len(results)], work, env, replayed))
    loop_s = time.perf_counter() - start

    latencies = [1000.0 * r.wall_s for r in results]
    tail, tail_pct = tail_latency(latencies)
    failed = sum(r.failed for r in results)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(results) / loop_s, "1/s"),
        "latency_p50_ms": (statistics.median(latencies), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "peak_rss_mb": (max(r.max_rss_kb for r in results) / 1024.0, "MB"),
        "success_rate": (1.0 - failed / len(results), "ratio"),
    }
    notes = [
        f"setup_s samples: {', '.join(f'{s:.4f}' for s in setups)}",
        f"latency_tail_ms is p{tail_pct:.1f} of {len(results)} samples",
        f"failure_rate {failed / len(results):.4f} ({failed} failed / {len(results)} attempted)",
    ]
    return results, metrics, notes


# ---------------------------------------------------------------------------
# traced: the same schedule in this process, with and without span wrappers
# ---------------------------------------------------------------------------

class OpTimeout(BaseException):
    """Raised by the in-process deadline; a BaseException so no handler swallows it."""


def _raise_timeout(signum, frame):
    raise OpTimeout


def run_inprocess(cli, op, work: Path) -> tuple:
    """(exit code, wall seconds, timed out, stderr text, report text) of ``cli.main``."""
    out = op.out_path(work)
    if out.exists():
        out.unlink()
    err = io.StringIO()
    timed_out = False
    previous = signal.signal(signal.SIGALRM, _raise_timeout)
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(op.argv(work))
            except OpTimeout:
                code, timed_out = None, True
            except Exception:
                # what the interpreter would print before exiting with 1
                code = 1
                err.write(traceback.format_exc())
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    wall = time.perf_counter() - start
    return code, wall, timed_out, err.getvalue(), _read(out)


def _median_spawn(argv: list, env: dict, work: Path) -> float:
    walls = [run_child(argv, env, work / "floor.out", work / "floor.err", OP_TIMEOUT_S).wall_s
             for _ in range(FLOOR_REPEATS)]
    return 1000.0 * statistics.median(walls)


def _import_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    import rkboundary.cli as cli

    if Path(cli.__file__).resolve().parents[1] != (root / "src").resolve():
        raise SetupError(f"imported rkboundary from {cli.__file__}, not from {root / 'src'}")
    return cli


PER_LAYER = (
    # (metric, span name, field, unit); field is calls, ms, self_ms, sum:<count>, max:<count>
    ("cli.parse_config.ms", "cli.parse_config", "ms", "ms/op"),
    ("cli.run.ms", "cli.run", "ms", "ms/op"),
    ("cli.run.self_ms", "cli.run", "self_ms", "ms/op"),
    ("cli.emit.ms", "cli.emit", "ms", "ms/op"),
    ("cli.emit.bytes", "cli.emit", "sum:bytes", "bytes/op"),
    ("kernels.build_section.calls", "kernels.build_section", "calls", "calls/op"),
    ("kernels.build_section.ms", "kernels.build_section", "ms", "ms/op"),
    ("kernels.extension.calls", "kernels.extension", "calls", "calls/op"),
    ("kernels.extension.entries", "kernels.extension", "sum:entries", "entries/op"),
    ("kernels.extension.ms", "kernels.extension", "ms", "ms/op"),
    ("measures.cantor4_fourier.calls", "measures.cantor4_fourier", "calls", "calls/op"),
    ("measures.cantor4_fourier.points", "measures.cantor4_fourier", "sum:points", "points/op"),
    ("measures.cantor4_fourier.ms", "measures.cantor4_fourier", "ms", "ms/op"),
    ("measures.quadrature.ms", "measures.quadrature", "ms", "ms/op"),
    ("linalg.pivoted_cholesky.calls", "linalg.pivoted_cholesky", "calls", "calls/op"),
    ("linalg.pivoted_cholesky.ms", "linalg.pivoted_cholesky", "ms", "ms/op"),
    ("linalg.pivoted_cholesky.max_n", "linalg.pivoted_cholesky", "max:n", "count"),
    ("boundary.boundary_gram.calls", "boundary.boundary_gram", "calls", "calls/op"),
    ("boundary.boundary_gram.ms", "boundary.boundary_gram", "ms", "ms/op"),
    ("boundary.boundary_gram.macs", "boundary.boundary_gram", "sum:macs", "macs/op"),
    ("boundary.pencil_eigenvalues.calls", "boundary.pencil_eigenvalues", "calls", "calls/op"),
    ("boundary.pencil_eigenvalues.ms", "boundary.pencil_eigenvalues", "ms", "ms/op"),
    ("boundary.pencil_eigenvalues.escalations", "boundary.pencil_eigenvalues",
     "sum:escalations", "calls/op"),
    ("boundary.isometry_defect.calls", "boundary.isometry_defect", "calls", "calls/op"),
    ("boundary.isometry_defect.ms", "boundary.isometry_defect", "ms", "ms/op"),
    ("boundary.adjoint_apply.ms", "boundary.adjoint_apply", "ms", "ms/op"),
    ("boundary.onto_residual.ms", "boundary.onto_residual", "ms", "ms/op"),
    ("gaussian.build_ensemble.ms", "gaussian.build_ensemble", "ms", "ms/op"),
    ("gaussian.sample.ms", "gaussian.sample", "ms", "ms/op"),
    ("gaussian.sample.values", "gaussian.sample", "sum:values", "values/op"),
    ("gaussian.empirical_covariance.ms", "gaussian.empirical_covariance", "ms", "ms/op"),
    ("reconstruct.lambda4_set.calls", "reconstruct.lambda4_set", "calls", "calls/op"),
    ("reconstruct.parseval_table.ms", "reconstruct.parseval_table", "ms", "ms/op"),
    ("reconstruct.shannon_reconstruct.ms", "reconstruct.shannon_reconstruct", "ms", "ms/op"),
)


def layer_metrics(table: dict, ops: int) -> dict:
    """Per-operation means of the span table (maxima stay maxima)."""
    metrics = {}
    for metric, name, fieldname, unit in PER_LAYER:
        row = table.get(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "sum": {}, "max": {}})
        kind, _, key = fieldname.partition(":")
        if kind == "max":
            metrics[metric] = (row["max"].get(key, 0), unit)
        elif kind == "sum":
            metrics[metric] = (row["sum"].get(key, 0) / ops, unit)
        else:
            metrics[metric] = (row[kind] / ops, unit)
    return metrics


def measure_layers(workload, seed: int, seconds: int, root: Path, work: Path):
    env = child_env(root)
    schedule = setup(workload, seed, seconds, work, env)
    floor_ms = _median_spawn([sys.executable, "-c", "pass"], env, work)
    import_ms = _median_spawn([sys.executable, "-c", "import rkboundary.cli"], env, work)
    cli = _import_cli(root)

    recorder = spans.Recorder()
    tracer = spans.Tracer(recorder)
    replayed: dict = {}
    results = []
    walls = {"traced": 0.0, "untraced": 0.0}
    for _ in whole_cycles(seconds):
        for _ in range(workload.cycle_length):
            op = schedule[len(results)]
            for traced in ((True, False) if op.op_id % 2 else (False, True)):
                if traced:
                    recorder.op = op.op_id
                    with tracer:
                        code, wall, timed_out, stderr, report = run_inprocess(cli, op, work)
                    problems = judge(op, code, timed_out, stderr, report, replayed)
                    _remember(workload, op, report, replayed)
                    results.append(Result(op, code, wall, 0, problems))
                else:
                    wall = run_inprocess(cli, op, work)[1]
                walls["traced" if traced else "untraced"] += wall
            op.out_path(work).unlink(missing_ok=True)

    table = spans.layer_table(recorder.spans)
    metrics = {
        "cli.spawn_floor_ms": (floor_ms, "ms"),
        "cli.import_ms": (import_ms - floor_ms, "ms"),
        **layer_metrics(table, len(results)),
        "trace.overhead_ratio": (walls["traced"] / walls["untraced"], "ratio"),
    }
    ranking = sorted(((row["self_ms"] / len(results), name) for name, row in table.items()),
                     reverse=True)
    notes = [f"per-layer values are means over {len(results)} traced operations",
             "boundary.boundary_gram.macs is computed as n*n*m, not measured",
             "largest self time per op: " + ", ".join(f"{name} {ms:.2f} ms"
                                                      for ms, name in ranking[:6])]
    trace_path = work.parent / f"trace-{workload.name}-seed{seed}.json"
    trace_path.write_text(json.dumps({
        "workload": workload.name,
        "seed": seed,
        "ops": [{"op": r.op.op_id, "argv": r.op.argv(Path("{work}")),
                 "problems": [p.text for p in r.problems]}
                for r in results],
        "layers": table,
        "spans": recorder.dump(),
    }), encoding="utf-8")
    notes.append(f"spans written to {trace_path.relative_to(root)}")
    return results, metrics, notes


def probe_defects(workload, root: Path, work: Path) -> list:
    """Run the known-defect probes once, untimed; one note per probe.

    Their outcomes are printed, not counted in ``attempted`` or ``failed``.
    """
    probes = workloads.defect_probes()
    workloads.write_inputs(probes, work)
    env = child_env(root)
    notes = []
    for op in probes:
        r = run_process_op(workload, op, work, env, {})
        call = f"{op.command} {' '.join(op.args)}".replace(f"{workloads.WORK}/", "")
        if r.failed:
            notes.append(f"known defect, not counted: {call}: "
                         f"{'; '.join(p.text for p in r.problems)[:200]}")
        else:
            notes.append(f"known defect no longer reproduces: {call}")
    return notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "rkboundary" / "__main__.py").is_file():
        print(f"error: no rkboundary sources under {root / 'src'}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    work = root / ".bench_run" / f"{workload.name}-seed{args.seed}-{os.getpid()}"
    measure = measure_layers if args.trace else measure_processes
    try:
        results, metrics, notes = measure(workload, args.seed, args.seconds, root, work)
        notes += probe_defects(workload, root, work)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if work.exists():
            shutil.rmtree(work)

    failed = [r for r in results if r.failed]
    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print(f"closed loop, 1 client; nproc {NPROC}; BLAS threads {BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:42s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    for r in failed:
        print(f"  FAIL op {r.op.op_id} {r.op.command} {' '.join(r.op.args)[:80]}: "
              f"{'; '.join(p.text for p in r.problems)[:300]}")
    # every failure is counted in `failed`; only reports that contradict
    # themselves, their exit code or an identical earlier run make it incorrect
    broken = [r for r in failed if any(p.integrity for p in r.problems)]
    print(json.dumps({
        "correct": not broken,
        "attempted": len(results),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
