"""Tests of the benchmark's own code: oracle, generator, spans, deadline, tail."""

import contextlib
import io
import json
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracle
import run
import spans
import workloads
from spawn import run_child


def _run_cli(op, work):
    import rkboundary.cli as cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(op.argv(work))
    return code, op.out_path(work).read_text(encoding="utf-8")


def _op(command, args=(), expect=0, **facts):
    return workloads.Op(0, command, tuple(args), expect, facts)


def test_oracle_accepts_a_true_report_and_rejects_a_corrupted_one(tmp_path):
    op = _op("morphism")
    code, text = _run_cli(op, tmp_path)
    assert oracle.check(op, code, text) == []

    doc = json.loads(text)
    doc["tables"]["pushforward_masses"]["rows"][0][1] = 0.25
    problems = oracle.check(op, code, json.dumps(doc))
    assert [p.text for p in problems] == ["pushforward masses [0.25, 0.5]"]


def test_oracle_recomputes_gram_eigenvalues_from_closed_forms(tmp_path):
    points = [[0.1, 0.2], [-0.5, 0.3], [0.0, -0.7], [0.6, 0.6]]
    for kernel in ("szego", "cantor4"):
        name = f"pts-{kernel}.json"
        (tmp_path / name).write_text(json.dumps({"points": points}), encoding="utf-8")
        op = _op("pd-check", ("--kernel", kernel, "--points", f"{{work}}/{name}"),
                 kernel=kernel, points=points)
        code, text = _run_cli(op, tmp_path)
        assert code == 0 and oracle.check(op, code, text) == []

        doc = json.loads(text)
        doc["tables"]["eigenvalues"]["rows"][-1][1] *= 1.001
        problems = oracle.check(op, code, json.dumps(doc))
        assert problems and "closed-form Gram" in problems[0].text


def test_oracle_flags_exit_codes_and_self_contradicting_reports(tmp_path):
    op = _op("cantor-onb", ("--freq", "5"), level=6, freq=5, parseval_max=12)
    code, text = _run_cli(op, tmp_path)
    assert oracle.check(op, code, text) == []

    problems = oracle.check(op, 1, text)
    assert [p.integrity for p in problems] == [False, True]  # wrong exit, and verdicts disagree

    doc = json.loads(text)
    doc["scalars"]["frequencies"] = 63
    assert any(p.integrity for p in oracle.check(op, code, json.dumps(doc)))

    usage = _op("shannon", ("--grid=0:1:0",), expect=2)
    assert [p.text for p in oracle.check(usage, 1, None)] == ["exit 1 != expected 2"]
    assert oracle.check(usage, 2, None) == []


def test_generator_is_deterministic_per_seed_and_varies_across_seeds():
    for workload in workloads.WORKLOADS.values():
        count = 2 * workload.cycle_length
        first = workload.schedule(7, count)
        assert first == workload.schedule(7, count)
        other = workload.schedule(8, count)
        assert [op.inputs for op in first] != [op.inputs for op in other]
        # the mix of commands is fixed; only the generated inputs change
        assert [op.command for op in first] == [op.command for op in other]
        replays = [op for op in first if op.replay_of is not None]
        assert len(replays) == 2
        for op in replays:
            assert op.argv(Path("w")) == first[op.replay_of].argv(Path("w"))


def test_separated_points_keep_one_point_per_cell():
    rng = np.random.default_rng(1)
    x = np.asarray(workloads.separated_points(rng, "sinc", 50))
    assert np.all(np.diff(x) >= 0.6)
    for kernel, n in (("szego", 60), ("szego", 200), ("cantor4", 8), ("bargmann", 6)):
        z = np.asarray([complex(*p) for p in workloads.separated_points(rng, kernel, n)])
        assert np.ptp(np.abs(z)) < 1e-12
        angle = np.sort(np.angle(z) % (2 * np.pi))
        gaps = np.diff(np.append(angle, angle[0] + 2 * np.pi))
        assert gaps.min() >= 0.5 * 2 * np.pi / n - 1e-12


def test_defect_probes_are_fixed_and_kept_out_of_the_timed_schedules():
    probes = workloads.defect_probes()
    assert probes == workloads.defect_probes()
    probe_ids = {op.op_id for op in probes}
    for workload in workloads.WORKLOADS.values():
        ops = workload.schedule(3, 4 * workload.cycle_length)
        assert not probe_ids & {op.op_id for op in ops}
        assert all("--grid=0:1:0" not in op.args for op in ops)


def test_covered_length_merges_overlaps_and_clips_to_the_parent():
    assert spans.covered_length((0.0, 10.0), [(1.0, 3.0), (2.0, 5.0), (8.0, 12.0)]) == 6.0
    assert spans.covered_length((0.0, 10.0), [(11.0, 12.0)]) == 0.0
    assert spans.covered_length((0.0, 10.0), []) == 0.0


def test_self_times_subtract_only_direct_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 5.0, 7.0, 10.0])
    rec = spans.Recorder(clock=lambda: next(ticks))
    root = rec.open("cli.run")  # 0 .. 10
    pencil = rec.open("boundary.pencil_eigenvalues")  # 1 .. 5
    first = rec.open("linalg.pivoted_cholesky")  # 2 .. 4
    rec.close(first)
    rec.close(pencil)
    second = rec.open("linalg.pivoted_cholesky")  # 5 .. 7, directly under cli.run
    rec.close(second)
    rec.close(root)
    own = spans.self_times(rec.spans)
    assert own == {root.sid: 4.0, pencil.sid: 2.0, first.sid: 2.0, second.sid: 2.0}

    table = spans.layer_table(rec.spans)
    assert table["cli.run"]["self_ms"] == 4000.0
    assert table["linalg.pivoted_cholesky"]["calls"] == 2
    assert table["boundary.pencil_eigenvalues"]["sum"]["escalations"] == 0


def test_tracer_records_calls_made_through_imported_names(tmp_path):
    import rkboundary
    import rkboundary.boundary
    import rkboundary.cli as cli
    import rkboundary.gaussian

    original = rkboundary.boundary.boundary_gram
    rec = spans.Recorder()
    with spans.Tracer(rec):
        assert cli.boundary_gram is not original
        assert rkboundary.boundary_gram is cli.boundary_gram
        assert rkboundary.gaussian.pivoted_cholesky is rkboundary.boundary.pivoted_cholesky
        rec.op = 3
        assert cli.main(["factorize", "--out", str(tmp_path / "r.json")]) == 0
    assert cli.boundary_gram is original

    names = {s.name for s in rec.spans}
    assert {"cli.parse_config", "cli.run", "cli.emit", "boundary.boundary_gram",
            "boundary.pencil_eigenvalues", "linalg.pivoted_cholesky",
            "kernels.build_section", "kernels.extension", "measures.quadrature"} <= names
    assert all(s.op == 3 for s in rec.spans)
    gram = next(s for s in rec.spans if s.name == "boundary.boundary_gram")
    assert gram.counts == {"macs": 10 * 10 * 2048}
    assert rec.spans[gram.parent].name == "cli.run"
    emit = next(s for s in rec.spans if s.name == "cli.emit")
    assert emit.counts["bytes"] == len((tmp_path / "r.json").read_bytes())


def test_deadline_kills_a_hung_child(tmp_path):
    start = time.perf_counter()
    outcome = run_child([sys.executable, "-c", "import time; time.sleep(30)"], dict(os.environ),
                        tmp_path / "out", tmp_path / "err", timeout_s=0.5)
    assert outcome.timed_out and outcome.exit_code is None
    assert time.perf_counter() - start < 10


def test_child_exit_code_and_rss_are_collected(tmp_path):
    outcome = run_child([sys.executable, "-c", "import sys; sys.exit(3)"], dict(os.environ),
                        tmp_path / "out", tmp_path / "err", timeout_s=30)
    assert outcome.exit_code == 3 and not outcome.timed_out and outcome.max_rss_kb > 0


@pytest.mark.parametrize("n, index, percentile",
                         [(40, 29, 75.0), (11, 0, 100.0 / 11), (5, 4, 100.0)])
def test_tail_latency_keeps_ten_samples_above(n, index, percentile):
    values = [float(v) for v in range(n)]
    assert run.tail_latency(values[::-1]) == (values[index], percentile)
