"""Golden reports: every listed invocation must reproduce its stored report byte for byte.

The files under ``tests/golden/`` are the contract for refactors that promise
identical output.  Regenerate them only for an intended change of report
bytes, with ``PYTHONPATH=src python tests/test_golden.py``.  Before it
overwrites a golden whose bytes changed, it prints whether every verdict kept
its name and ``passed`` flag, the scalars a JSON report added or removed, and
the largest absolute change in any number both reports hold.
With ``--check`` it prints the same lines, writes nothing, and exits 1 if any
golden would change.
"""

import argparse
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from rkboundary.cli import emit, parse_config, run

GOLDEN_DIR = Path(__file__).parent / "golden"

CASES = {
    "pd-check.json": ["pd-check"],
    "factorize.json": ["factorize"],
    "isometry.json": ["isometry"],
    "carleson.json": ["carleson"],
    "adjoint-roundtrip.json": ["adjoint-roundtrip"],
    "project.json": ["project"],
    "gp.json": ["gp"],
    "shannon.json": ["shannon"],
    "cantor-onb.json": ["cantor-onb"],
    "morphism.json": ["morphism"],
    "isometry-cantor4-exact-level7.json": [
        "isometry", "--kernel", "cantor4", "--measure", "cantor-exact",
        "--level", "7", "--samples", "20",
    ],
    "isometry-bargmann-grid30.json": [
        "isometry", "--kernel", "bargmann", "--points", "grid30", "--samples", "20",
    ],
    "project-szego-grid40.json": ["project", "--kernel", "szego", "--points", "grid40"],
    "gp-sinc-grid30.json": ["gp", "--kernel", "sinc", "--points", "grid30"],
    "factorize.csv": ["factorize", "--format", "csv"],
    "cantor-onb.csv": ["cantor-onb", "--format", "csv"],
}


def render(argv) -> str:
    cfg = parse_config(argv)
    return emit(run(cfg), cfg.fmt)


def stdlib_json(report) -> str:
    """The report as the standard library's indenting encoder prints it."""
    doc = {
        "command": report.command,
        "config": report.config,
        "scalars": report.scalars,
        "tables": report.tables,
        "verdicts": report.verdicts,
        "version": report.version,
    }
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    cfg = parse_config(CASES[name])
    report = run(cfg)
    assert emit(report, cfg.fmt).encode("utf-8") == expected
    assert emit(report, "json") == stdlib_json(report)


@pytest.mark.parametrize("argv", [
    ["factorize", "--points", "grid200"],
    ["factorize", "--points", "grid0"],
    ["gp", "--points", "grid0"],
], ids=["grid200", "grid0", "gp-grid0"])
def test_json_rows_match_stdlib(argv):
    report = run(parse_config(argv))
    assert emit(report, "json") == stdlib_json(report)


def test_json_one_row_tables_match_stdlib():
    report = run(parse_config(["shannon"]))
    report.tables["grid_errors"]["rows"] = report.tables["grid_errors"]["rows"][:1]
    report.tables["single"] = {"columns": ["x"], "rows": [[-0.0]]}
    assert emit(report, "json") == stdlib_json(report)


# The default szego carleson pencil as LAPACK's generalized Hermitian solver
# computed it, before the numpy Cholesky reduction replaced it.  The goldens
# pin the bytes of the current solver; these pin the values, independently.
LAPACK_EIGENVALUES = [
    0.999999999999789, 0.9999999999999853, 0.9999999999999983, 0.9999999999999991,
    1.0000000000000002, 1.0000000000000002, 1.0000000000000007, 1.0000000000000107,
    1.0000000000003242, 1.0000000000097535,
]


@pytest.mark.parametrize("command", ["carleson", "factorize"])
def test_pencil_values_agree_with_lapack_solver(command):
    report = run(parse_config([command]))
    eigenvalues = [w for _, w in report.tables["pencil_eigenvalues"]["rows"]]
    np.testing.assert_allclose(eigenvalues, LAPACK_EIGENVALUES, rtol=1e-10, atol=0)
    estimate = report.scalars["carleson_constant_estimate"]
    assert estimate == pytest.approx(LAPACK_EIGENVALUES[-1], rel=1e-10, abs=0)


# A numeric token that is not part of a word such as ``grid30`` or ``0.1.0``.
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?(?![\w.])")


def report_verdicts(text: str) -> list:
    """(name, passed) of every verdict of a JSON or CSV report, in order."""
    if text.startswith("{"):
        return [(v["name"], v["passed"]) for v in json.loads(text)["verdicts"]]
    lines = text.splitlines()
    start = lines.index("# verdicts") + 2  # skip the section and column headers
    rows = []
    for line in lines[start:]:
        if line.startswith("# "):
            break
        name, _, _, passed = line.split(",")
        rows.append((name, passed == "true"))
    return rows


def numbers_by_path(node, path: str = "") -> dict:
    """Every number of a parsed JSON report keyed by its path, such as
    ``.tables.probe_errors.rows[3][2]``; booleans are flags, not numbers."""
    if isinstance(node, dict):
        items = ((f"{path}.{key}", child) for key, child in node.items())
    elif isinstance(node, list):
        items = ((f"{path}[{i}]", child) for i, child in enumerate(node))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        return {path: float(node)}
    else:
        return {}
    return {key: value for p, child in items for key, value in numbers_by_path(child, p).items()}


def describe_change(old: str, new: str) -> str:
    """One line on what a regenerated report changed: verdicts and numbers.

    A JSON report names the scalars added and removed and compares the
    numbers both reports hold at the same path; a CSV report compares its
    numbers in order, and only when it holds as many as before.
    """
    parts = ["verdict names and flags "
             + ("unchanged" if report_verdicts(old) == report_verdicts(new) else "CHANGED")]
    if old.startswith("{"):
        docs = json.loads(old), json.loads(new)
        before, after = (set(doc["scalars"]) for doc in docs)
        parts += [f"scalars {what}: {', '.join(sorted(keys))}"
                  for what, keys in (("added", after - before), ("removed", before - after)) if keys]
        a, b = (numbers_by_path(doc) for doc in docs)
        shared = a.keys() & b.keys()
        if len(a) != len(b):
            parts.append(f"number of values changed from {len(a)} to {len(b)}")
        change = max((abs(a[key] - b[key]) for key in shared), default=0.0)
        scope = "" if a.keys() == b.keys() else f" over the {len(shared)} values both share"
        parts.append(f"largest absolute change {change:.3e}{scope}")
        return "; ".join(parts)
    a = [float(t) for t in NUMBER.findall(old)]
    b = [float(t) for t in NUMBER.findall(new)]
    if len(a) != len(b):
        parts.append(f"number of values changed from {len(a)} to {len(b)}")
    else:
        parts.append(f"largest absolute change {max(abs(x - y) for x, y in zip(a, b)):.3e}")
    return "; ".join(parts)


def test_describe_change_reports_values_and_verdicts():
    old = render(CASES["gp.json"])
    doc = json.loads(old)
    doc["scalars"]["covariance_defect"] += 2.5e-15
    doc["tables"]["entry_errors"]["rows"][0][2] -= 1e-3
    new = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert describe_change(old, new) == (
        "verdict names and flags unchanged; largest absolute change 1.000e-03")
    doc["scalars"]["covariance_gap"] = doc["scalars"].pop("covariance_defect")
    renamed = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    shared = len(numbers_by_path(doc)) - 1
    assert describe_change(old, renamed) == (
        "verdict names and flags unchanged; scalars added: covariance_gap; "
        "scalars removed: covariance_defect; largest absolute change 1.000e-03 "
        f"over the {shared} values both share")
    doc["verdicts"][0]["passed"] = False
    flipped = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    assert describe_change(old, flipped).startswith("verdict names and flags CHANGED")
    csv = render(CASES["factorize.csv"])
    assert report_verdicts(csv) == [("membership", True)]
    count = len(NUMBER.findall(csv))
    assert describe_change(csv, csv + "# table,extra\nx\n7\n").endswith(
        f"number of values changed from {count} to {count + 1}")


def test_check_mode_writes_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(sys.modules[__name__], "GOLDEN_DIR", tmp_path)
    monkeypatch.setattr(sys.modules[__name__], "CASES", {"pd-check.json": ["pd-check"]})
    golden = tmp_path / "pd-check.json"
    golden.write_text(render(["pd-check"]), encoding="utf-8")
    assert main(["--check"]) == 0
    assert capsys.readouterr().out == "1 of 1 goldens unchanged\n"
    stale = golden.read_text(encoding="utf-8").replace('"passed": true', '"passed": false')
    golden.write_text(stale, encoding="utf-8")
    assert main(["--check"]) == 1
    assert capsys.readouterr().out == (
        "pd-check.json: verdict names and flags CHANGED; largest absolute change 0.000e+00\n"
        "0 of 1 goldens unchanged\n")
    assert golden.read_text(encoding="utf-8") == stale
    assert main([]) == 0
    assert golden.read_text(encoding="utf-8") == render(["pd-check"])
    assert main(["--check"]) == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Regenerate the golden reports.")
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if any golden would change")
    check = parser.parse_args(argv).check
    GOLDEN_DIR.mkdir(exist_ok=True)
    unchanged = 0
    for name, case in CASES.items():
        path = GOLDEN_DIR / name
        text = render(case)
        if path.exists():
            old = path.read_text(encoding="utf-8")
            if old == text:
                unchanged += 1
                continue
            print(f"{name}: {describe_change(old, text)}")
        else:
            print(f"{name}: new")
        if not check:
            path.write_bytes(text.encode("utf-8"))
    print(f"{unchanged} of {len(CASES)} goldens unchanged")
    return int(check and unchanged < len(CASES))


if __name__ == "__main__":
    sys.exit(main())
