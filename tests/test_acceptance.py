"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is checked at its stated tolerance against closed-form
oracles; the fixed point sets below are deterministic low-discrepancy spirals
inside each kernel's domain.
"""

import json
import time

import numpy as np

from conftest import kernel_dist, spiral_points

from rkboundary import (
    BargmannKernel,
    Cantor4Kernel,
    ExplicitFeatureKernel,
    FrameExtension,
    PullbackExtension,
    SincKernel,
    SzegoKernel,
    adjoint_apply,
    atomic,
    band_gauss_legendre,
    boundary_transform,
    build_ensemble,
    build_section,
    cantor4_fourier,
    cantor_exact,
    cantor_ifs,
    commuting_diagram_defect,
    covariance_gap,
    element,
    empirical_covariance,
    evaluate_element,
    gauss_hermite_plane,
    h_norm_sq,
    isometry_defect,
    lambda4_set,
    membership_defect,
    morphism_check,
    onto_residual,
    parseval_table,
    periodic_uniform,
    scale_measure,
    shannon_reconstruct,
)
from rkboundary.cli import main

SZEGO_POINTS_10 = spiral_points(10, 0.2, 0.85)
BARGMANN_POINTS_6 = spiral_points(6, 0.7, 2.0)
CANTOR_POINTS_6 = spiral_points(6, 0.35, 0.9)
SINC_POINTS_5 = np.array([-2.0, -1.0, 0.0, 1.0, 2.0])


def member_triples():
    """The three verified boundary members exercised by criteria 1-5."""
    szego = SzegoKernel()
    bargmann = BargmannKernel()
    cantor = Cantor4Kernel(level=6)
    return [
        ("szego", szego, szego.boundary_extension(), periodic_uniform(2048),
         build_section(szego, SZEGO_POINTS_10), 1e-10),
        ("bargmann", bargmann, bargmann.boundary_extension(), gauss_hermite_plane(64),
         build_section(bargmann, BARGMANN_POINTS_6), 1e-8),
        ("cantor4", cantor, cantor.boundary_extension(), cantor_exact(),
         build_section(cantor, CANTOR_POINTS_6), 1e-10),
    ]


def _report(number, name, passed, detail):
    print(f"criterion {number:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {number} {name}: {detail}"


def test_criterion_01_szego_membership():
    kernel = SzegoKernel()
    section = build_section(kernel, SZEGO_POINTS_10)
    started = time.perf_counter()
    report = membership_defect(kernel.boundary_extension(), periodic_uniform(2048), section)
    elapsed = time.perf_counter() - started
    _report(1, "szego-membership", report.defect < 1e-10 and elapsed < 1.0,
            f"defect={report.defect:.3e} tol=1e-10 runtime={elapsed:.3f}s")


def test_criterion_02_bargmann_membership():
    kernel = BargmannKernel()
    section = build_section(kernel, BARGMANN_POINTS_6)
    started = time.perf_counter()
    report = membership_defect(kernel.boundary_extension(), gauss_hermite_plane(64), section)
    elapsed = time.perf_counter() - started
    _report(2, "bargmann-membership", report.defect < 1e-8 and elapsed < 5.0,
            f"defect={report.defect:.3e} tol=1e-8 runtime={elapsed:.3f}s")


def test_criterion_03_cantor_membership():
    kernel = Cantor4Kernel(level=6)
    section = build_section(kernel, CANTOR_POINTS_6)
    started = time.perf_counter()
    report = membership_defect(kernel.boundary_extension(), cantor_exact(), section)
    elapsed = time.perf_counter() - started
    _report(3, "cantor-membership", report.defect < 1e-10 and elapsed < 10.0,
            f"defect={report.defect:.3e} tol=1e-10 runtime={elapsed:.3f}s")


def test_criterion_04_isometry():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for name, _, ext, measure, section, _ in member_triples():
        for _ in range(100):
            c = rng.standard_normal(section.size) + 1j * rng.standard_normal(section.size)
            f = element(section, c)
            defect = isometry_defect(f, ext, measure)
            worst = max(worst, defect / (1e-8 * (1.0 + h_norm_sq(f))))
    _report(4, "isometry", worst < 1.0,
            f"worst defect / (1e-8 (1 + |f|^2)) = {worst:.3e}")


def test_criterion_05_carleson():
    worst = 0.0
    for name, _, ext, measure, section, _ in member_triples():
        base = membership_defect(ext, measure, section).carleson_constant
        worst = max(worst, abs(base - 1.0))
        for alpha in (0.5, 2.0, 10.0):
            scaled = membership_defect(ext, scale_measure(measure, alpha), section)
            worst = max(worst, abs(scaled.carleson_constant - alpha))
    _report(5, "carleson", worst < 1e-8, f"worst |constant - alpha| = {worst:.3e}")


def test_criterion_06_adjoint_roundtrip():
    rng = np.random.default_rng(7)
    szego = SzegoKernel()
    bargmann = BargmannKernel()
    cantor = Cantor4Kernel(level=6)
    sinc = SincKernel()
    cases = [
        ("szego", szego, periodic_uniform(2048),
         build_section(szego, SZEGO_POINTS_10),
         lambda n: 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))),
        ("bargmann", bargmann, gauss_hermite_plane(64),
         build_section(bargmann, BARGMANN_POINTS_6),
         lambda n: 2.0 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))),
        ("cantor4", cantor, cantor_ifs(10),
         build_section(cantor, CANTOR_POINTS_6),
         lambda n: 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n))),
        ("sinc", sinc, band_gauss_legendre(160),
         build_section(sinc, SINC_POINTS_5),
         lambda n: rng.uniform(-5.0, 5.0, size=n)),
    ]
    worst = 0.0
    for name, kernel, measure, section, probe_sampler in cases:
        ext = kernel.boundary_extension()
        c = rng.standard_normal(section.size) + 1j * rng.standard_normal(section.size)
        f = element(section, c)
        samples = boundary_transform(f, ext, measure.nodes)
        probes = probe_sampler(50)
        errors = np.abs(adjoint_apply(samples, ext, measure, probes)
                        - evaluate_element(f, probes))
        worst = max(worst, float(np.max(errors)))
    _report(6, "adjoint-roundtrip", worst < 1e-9, f"max pointwise error = {worst:.3e}")


def test_criterion_07_non_ontoness():
    kernel = SzegoKernel()
    ext = kernel.boundary_extension()
    measure = periodic_uniform(2048)
    target = np.exp(-2j * np.pi * measure.nodes)
    worst = 0.0
    for size in (5, 10, 20):
        section = build_section(kernel, spiral_points(size, 0.2, 0.85))
        result = onto_residual(target, ext, measure, section)
        worst = max(worst, abs(result.residual - 1.0))
    _report(7, "non-ontoness", worst < 1e-9, f"worst |residual - 1| = {worst:.3e}")


def test_criterion_08_lambda4_orthonormality():
    started = time.perf_counter()
    lam = lambda4_set(6)  # all members below 4096
    diff = (lam[None, :] - lam[:, None]).astype(float)
    inner = cantor4_fourier(diff)
    off = np.abs(inner - np.eye(lam.shape[0]))
    max_off = float(np.max(off - np.diag(np.diag(off))))
    max_diag = float(np.max(np.abs(np.diag(inner) - 1.0)))
    mu_one = abs(cantor4_fourier(1.0))
    elapsed = time.perf_counter() - started
    ok = max_off < 1e-12 and max_diag < 1e-12 and mu_one < 1e-14 and elapsed < 30.0
    _report(8, "lambda4-orthonormality", ok,
            f"offdiag={max_off:.3e} diag={max_diag:.3e} mu_hat(1)={mu_one:.3e} "
            f"runtime={elapsed:.3f}s")


def test_criterion_09_parseval_monotone():
    rows = parseval_table(2, 12)[1:]  # levels 2..12, as cantor-onb reports them
    defects = [d for _, d in rows]
    monotone = all(b <= a for a, b in zip(defects, defects[1:]))
    bounded = all(-1e-10 <= d <= 1.0 for d in defects)
    table = "  ".join(f"L={lev}:{d:.6f}" for lev, d in rows)
    print(f"parseval table (k=2): {table}")
    _report(9, "parseval-monotone", monotone and bounded and len(rows) == 11,
            f"defects in [{min(defects):.3e}, {max(defects):.3e}], monotone={monotone}")


def test_criterion_10_gaussian_boundary():
    started = time.perf_counter()
    section = build_section(SzegoKernel(), spiral_points(5, 0.2, 0.85))
    ensemble = build_ensemble(section, 42)
    defect = covariance_gap(empirical_covariance(ensemble, 100_000), section.gram)
    product = ensemble.factor @ ensemble.factor.conj().T
    marginal_gap = max(
        float(np.max(np.abs(product[:m, :m] - section.gram[:m, :m])))
        for m in (1, 2, 3, 4, 5)
    )
    elapsed = time.perf_counter() - started
    ok = defect < 0.05 and marginal_gap < 1e-12 and elapsed < 30.0
    _report(10, "gaussian-boundary", ok,
            f"covariance defect={defect:.4f} marginal gap={marginal_gap:.3e} "
            f"runtime={elapsed:.3f}s")


def test_criterion_11_shannon():
    support = 1000
    samples = np.sinc(np.arange(-support, support + 1) - 0.3)
    grid = np.arange(-2.0, 2.0001, 0.01)
    reconstructed = shannon_reconstruct(samples, grid)
    max_error = float(np.max(np.abs(reconstructed - np.sinc(grid - 0.3))))
    integer_mask = grid == np.rint(grid)
    stored = samples[grid[integer_mask].astype(int) + support]
    integer_gap = float(np.max(np.abs(reconstructed[integer_mask] - stored)))
    ok = max_error < 1e-3 and integer_gap == 0.0
    _report(11, "shannon", ok,
            f"max error={max_error:.3e} integer gap={integer_gap:.1e}")


def test_criterion_12_metric():
    rng = np.random.default_rng(99)
    samplers = {
        "szego": lambda n: 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n)),
        "bargmann": lambda n: 2.0 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n)),
        "cantor4": lambda n: 0.9 * np.sqrt(rng.uniform(size=n)) * np.exp(2j * np.pi * rng.uniform(size=n)),
        "sinc": lambda n: rng.uniform(-5.0, 5.0, size=n),
    }
    kernels = {
        "szego": SzegoKernel(),
        "bargmann": BargmannKernel(),
        "cantor4": Cantor4Kernel(level=6),
        "sinc": SincKernel(),
    }
    worst = -np.inf
    identity_ok = True
    for name, kernel in kernels.items():
        a = samplers[name](1000)
        b = samplers[name](1000)
        c = samplers[name](1000)
        # d(s, t)**2 = K(s,s) + K(t,t) - 2 Re K(s,t), from the kernel's own values
        dab, dbc, dac = (kernel_dist(kernel, s, t) for s, t in ((a, b), (b, c), (a, c)))
        violation = np.max(dac - dab - dbc)
        worst = max(worst, float(violation))
        identity_ok = identity_ok and all(kernel_dist(kernel, p, p) == 0.0 for p in a[:10])
    _report(12, "metric", worst <= 1e-12 and identity_ok,
            f"worst triangle violation = {worst:.3e}, dist(s,s)=0: {identity_ok}")


def test_criterion_13_partial_order():
    features = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8j]], dtype=complex)
    kernel = ExplicitFeatureKernel(features)
    frames = np.array([[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]], dtype=complex)
    ext_coarse = FrameExtension(kernel, frames)
    mu_coarse = atomic([0, 1], [0.5, 0.5])
    atom_map = {0: 0, 1: 0, 2: 1, 3: 1}
    ext_fine = PullbackExtension(ext_coarse, atom_map)
    mu_fine = atomic([0, 1, 2, 3], [0.25] * 4)
    section = build_section(kernel, [0, 1, 2])
    f = element(section, [1.0 + 0.5j, -0.25j, 0.75])

    mass_error = morphism_check(mu_coarse, mu_fine, atom_map)
    diagram = commuting_diagram_defect(ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map, f)
    ok = (mass_error <= 1e-12 and diagram.transform_defect < 1e-12
          and diagram.pullback_isometry_defect < 1e-12)
    _report(13, "partial-order", ok,
            f"mass error={mass_error:.1e} "
            f"diagram defect={diagram.transform_defect:.1e} "
            f"pullback isometry defect={diagram.pullback_isometry_defect:.1e}")


def test_criterion_14_cli_determinism(tmp_path, capsys):
    argv = ["factorize", "--kernel", "szego", "--points", "grid8",
            "--measure", "uniform:1024", "--tol", "1e-9"]
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    code_a = main(argv + ["--out", str(out_a)])
    code_b = main(argv + ["--out", str(out_b)])
    capsys.readouterr()
    identical = out_a.read_bytes() == out_b.read_bytes()
    doc = json.loads(out_a.read_text())
    ok = code_a == code_b == 0 and identical and doc["command"] == "factorize"
    _report(14, "cli-determinism", ok,
            f"exit codes {code_a}/{code_b}, byte-identical={identical}")
