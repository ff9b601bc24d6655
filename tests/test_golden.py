"""Golden reports: every listed invocation must reproduce its stored report byte for byte.

The files under ``tests/golden/`` are the contract for refactors that promise
identical output.  Regenerate them only for an intended change of report
bytes, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

from pathlib import Path

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert render(CASES[name]).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / name).write_bytes(render(argv).encode("utf-8"))
