"""Golden reports: every listed invocation must reproduce its stored report byte for byte.

The files under ``tests/golden/`` are the contract for refactors that promise
identical output.  Regenerate them only for an intended change of report
bytes, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

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


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name):
    expected = (GOLDEN_DIR / name).read_bytes()
    assert render(CASES[name]).encode("utf-8") == expected


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


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / name).write_bytes(render(argv).encode("utf-8"))
