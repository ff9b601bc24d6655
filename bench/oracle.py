"""Independent checks of rkboundary reports.

Nothing here imports the package.  Expectations come from closed forms:
canonical boundary measures have total mass one, so a measure scaled by alpha
has mass alpha and Carleson constant alpha; a unimodular target has L2 norm
sqrt(mass); the cardinal series with samples on [-N, N] has a tail below
2 / (pi^2 (N - 2)) on [-2, 2]; the level-L Cantor frequency set has 2^L
members and the Cantor measure's transform vanishes at 1; the built-in
morphism pushes four quarter atoms onto two halves.  Kernel Gram matrices are
recomputed from their closed forms (the cantor4 kernel as a power sum over
base-4 binary-digit frequencies rather than the package's product form).

Every problem counts the operation as failed.  A problem marked ``integrity``
means the report contradicts itself, its exit code or an earlier identical
run; a value that misses its closed form is a plain failure.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple

import numpy as np

from workloads import EXIT_PASS, EXIT_VERDICT_FAIL, Op

GP_TOL = 0.05


class Problem(NamedTuple):
    text: str
    integrity: bool = False


def broken(text: str) -> Problem:
    return Problem(text, True)


def _as_complex(points) -> np.ndarray:
    return np.asarray([complex(p[0], p[1]) if isinstance(p, list) else complex(p)
                       for p in points])


def lambda4(level: int) -> np.ndarray:
    """Integers below 4**level whose base-4 digits are all 0 or 1."""
    out = [0]
    for i in range(level):
        out = out + [x + 4 ** i for x in out]
    return np.asarray(sorted(out), dtype=float)


def closed_form_gram(kernel: str, points, level: int = 6) -> np.ndarray:
    z = _as_complex(points)
    s, t = z[:, None], z[None, :]
    if kernel == "szego":
        return 1.0 / (1.0 - np.conj(s) * t)
    if kernel == "bargmann":
        return np.exp(0.5 * np.conj(s) * t - 0.25 * (np.abs(s) ** 2 + np.abs(t) ** 2))
    if kernel == "sinc":
        return np.sinc((s - t).real).astype(complex)
    if kernel == "cantor4":
        u = np.conj(s) * t
        return sum(u ** int(lam) for lam in lambda4(level))
    raise ValueError(f"no closed form for kernel {kernel!r}")


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check(op: Op, exit_code, report_text: str | None) -> list:
    """Problems with one finished operation (empty when it behaved as documented).

    ``exit_code`` is None for an operation killed by its deadline.  Reports are
    only inspected for operations expected to produce one.
    """
    problems = []
    if exit_code != op.expect_exit:
        problems.append(Problem(f"exit {exit_code} != expected {op.expect_exit}"))
    if not op.produces_report or exit_code not in (EXIT_PASS, EXIT_VERDICT_FAIL):
        return problems
    if report_text is None:
        return problems + [broken("no report written")]
    try:
        doc = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return problems + [broken(f"report is not JSON: {exc}")]
    try:
        problems += _check_report(op, exit_code, doc)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        problems.append(broken(f"report lacks an expected field: {exc!r}"))
    return problems


def _check_report(op: Op, exit_code: int, doc: dict) -> list:
    problems = []
    if doc["command"] != op.command:
        problems.append(broken(f"report is for {doc['command']!r}"))
    verdicts = doc["verdicts"]
    all_passed = all(v["passed"] for v in verdicts)
    if (exit_code == EXIT_PASS) != all_passed:
        problems.append(broken(f"exit {exit_code} disagrees with verdicts "
                               f"(all passed: {all_passed})"))
    checker = _CHECKS.get(op.command)
    if checker is not None:
        problems += checker(op, doc)
    return problems


def _tol(doc) -> float:
    return float(doc["config"]["tol"])


def _rows(doc, table):
    return doc["tables"][table]["rows"]


def _carleson(op, doc, key="carleson_constant_estimate") -> list:
    alpha = float(op.facts.get("scale", 1.0))
    problems = []
    c = float(doc["scalars"][key])
    if abs(c - alpha) > _tol(doc) * alpha:
        problems.append(Problem(f"Carleson estimate {c!r} != {alpha!r} within {_tol(doc)!r}"))
    mass = float(doc["scalars"]["total_mass"])
    if not _close(mass, alpha, 1e-12):
        problems.append(Problem(f"total mass {mass!r} != {alpha!r}"))
    top = max(r[1] for r in _rows(doc, "pencil_eigenvalues"))
    if top != c:
        problems.append(broken("largest pencil eigenvalue differs from the reported estimate"))
    return problems


def _check_factorize(op, doc) -> list:
    problems = _carleson(op, doc)
    n = len(op.facts["points"])
    defect = float(doc["scalars"]["membership_defect"])
    rows = _rows(doc, "factorization_deviation")
    if len(rows) != n * n:
        problems.append(broken(f"{len(rows)} deviation rows for {n} points"))
    if max(r[2] for r in rows) != defect:
        problems.append(broken("membership defect is not the largest tabulated deviation"))
    alpha = float(op.facts.get("scale", 1.0))
    if alpha == 1.0:
        if not defect < _tol(doc):
            problems.append(Problem(f"membership defect {defect!r} above {_tol(doc)!r}"))
    else:
        # N = alpha conj(G), so the worst deviation is |alpha - 1| max|G_ij|
        gram = closed_form_gram(op.facts["kernel"], op.facts["points"])
        expected = abs(alpha - 1.0) * float(np.max(np.abs(gram)))
        if not _close(defect, expected, 1e-6):
            problems.append(Problem(f"membership defect {defect!r} != closed form "
                                    f"{expected!r}"))
    return problems


def _check_pd(op, doc) -> list:
    gram = closed_form_gram(op.facts["kernel"], op.facts["points"], op.facts.get("level", 6))
    expected = np.linalg.eigvalsh(0.5 * (gram + gram.conj().T))
    reported = np.asarray(sorted(r[1] for r in _rows(doc, "eigenvalues")))
    if reported.shape != expected.shape:
        return [broken(f"{reported.size} eigenvalues for {expected.size} points")]
    scale = max(float(np.max(np.abs(expected))), 1.0)
    gap = float(np.max(np.abs(reported - expected)))
    problems = []
    if gap > 1e-9 * scale:
        problems.append(Problem(f"eigenvalues differ from the closed-form Gram by {gap:.3e}"))
    if not float(doc["scalars"]["min_eigenvalue"]) >= -_tol(doc) * scale:
        problems.append(Problem("Gram matrix reported indefinite"))
    return problems


def _check_isometry(op, doc) -> list:
    problems = []
    worst = float(doc["scalars"]["max_normalized_defect"])
    if not worst < _tol(doc):
        problems.append(Problem(f"isometry defect {worst!r} above {_tol(doc)!r}"))
    rows = _rows(doc, "isometry_trials")
    if len(rows) != op.facts["samples"]:
        problems.append(broken(f"{len(rows)} trials, expected {op.facts['samples']}"))
    for _, norm_sq, defect, normalized in rows:
        if not norm_sq > 0 or not _close(normalized, defect / (1.0 + norm_sq), 1e-12):
            problems.append(broken("trial row is inconsistent"))
            break
    return problems


def _check_adjoint(op, doc) -> list:
    problems = []
    worst = float(doc["scalars"]["max_roundtrip_error"])
    if not worst < _tol(doc):
        problems.append(Problem(f"round-trip error {worst!r} above {_tol(doc)!r}"))
    if len(_rows(doc, "probe_errors")) != op.facts["probes"]:
        problems.append(broken("probe count differs"))
    return problems


def _check_project(op, doc) -> list:
    problems = []
    residual = float(doc["scalars"]["residual"])
    target = float(doc["scalars"]["target_norm"])
    expected = math.sqrt(float(op.facts.get("scale", 1.0)))
    if not _close(target, expected, 1e-9):
        problems.append(Problem(f"unimodular target norm {target!r} != {expected!r}"))
    if not 0.0 <= residual <= target + _tol(doc):
        problems.append(Problem(f"residual {residual!r} outside [0, {target!r}]"))
    if len(_rows(doc, "projection_coefficients")) != len(op.facts["points"]):
        problems.append(broken("coefficient count differs from the section size"))
    return problems


def _check_gp(op, doc) -> list:
    problems = []
    defect = float(doc["scalars"]["covariance_defect"])
    if not defect < GP_TOL:
        problems.append(Problem(f"covariance defect {defect!r} above {GP_TOL}"))
    if doc["scalars"]["sample_count"] != op.facts["samples"]:
        problems.append(broken("sample count differs"))
    n = len(op.facts["points"])
    if len(_rows(doc, "entry_errors")) != n * n:
        problems.append(broken("entry table size differs"))
    return problems


def _check_shannon(op, doc) -> list:
    problems = []
    start, stop, step = op.facts["grid"]
    support = op.facts["support"]
    worst = float(doc["scalars"]["max_error"])
    bound = 2.0 / (math.pi ** 2 * (support - 2)) + 1e-12
    if not worst <= min(bound, _tol(doc)):
        problems.append(Problem(f"reconstruction error {worst!r} above the tail "
                                f"bound {bound:.3e}"))
    count = int(round((stop - start) / step)) + 1
    if len(_rows(doc, "grid_errors")) != count:
        problems.append(broken(f"{len(_rows(doc, 'grid_errors'))} grid rows, expected {count}"))
    if doc["scalars"]["max_integer_gap"] != 0.0:
        problems.append(Problem("reconstruction is not exact at integers"))
    return problems


def _check_cantor_onb(op, doc) -> list:
    problems = []
    level = op.facts["level"]
    scalars = doc["scalars"]
    if scalars["frequencies"] != 2 ** level:
        problems.append(broken(f"{scalars['frequencies']} frequencies, expected {2 ** level}"))
    if not abs(float(scalars["mu_hat_at_one"])) < 1e-14:
        problems.append(Problem(f"mu_hat(1) = {scalars['mu_hat_at_one']!r} is not zero"))
    rows = _rows(doc, "parseval_defects")
    levels = [r[0] for r in rows]
    if levels != list(range(2, op.facts["parseval_max"] + 1)):
        problems.append(broken(f"Parseval table covers levels {levels}"))
    defects = [float(r[1]) for r in rows]
    slack = next(v["tolerance"] for v in doc["verdicts"] if v["name"] == "parseval-bounded")
    if any(not -slack <= d <= 1.0 for d in defects):
        problems.append(Problem(f"a Parseval defect lies outside [0, 1] (slack {slack!r})"))
    if any(b > a for a, b in zip(defects, defects[1:])):
        problems.append(Problem("Parseval defects increase"))
    # a frequency with base-4 digits in {0, 1} is itself a basis element
    freq = op.facts["freq"]
    if freq in set(lambda4(12).astype(int).tolist()):
        for lev, d in rows:
            if 4 ** lev > freq and not abs(d) < 1e-12:
                problems.append(Problem(f"Parseval defect {d!r} at level {lev} "
                                        "for a basis frequency"))
                break
    return problems


def _check_morphism(op, doc) -> list:
    masses = sorted(float(r[1]) for r in _rows(doc, "pushforward_masses"))
    return [] if masses == [0.5, 0.5] else [Problem(f"pushforward masses {masses}")]


_CHECKS = {
    "factorize": _check_factorize,
    "carleson": _carleson,
    "pd-check": _check_pd,
    "isometry": _check_isometry,
    "adjoint-roundtrip": _check_adjoint,
    "project": _check_project,
    "gp": _check_gp,
    "shannon": _check_shannon,
    "cantor-onb": _check_cantor_onb,
    "morphism": _check_morphism,
}
