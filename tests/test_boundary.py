"""Boundary factorization, isometries, Carleson pencils, projections, morphisms."""

import math

import mpmath
import numpy as np
import pytest

from conftest import (
    block_rows,
    cli_process_peak,
    disk_points,
    line_points,
    plane_points,
    spiral_points,
)

import rkboundary.boundary
import rkboundary.cli as cli
from rkboundary import (
    BargmannKernel,
    Cantor4Kernel,
    DomainError,
    ExplicitFeatureKernel,
    FrameExtension,
    NotPositiveSemidefiniteError,
    PullbackExtension,
    SectionError,
    SincKernel,
    SzegoKernel,
    adjoint_apply,
    atomic,
    band_gauss_legendre,
    boundary_gram,
    boundary_transform,
    build_section,
    cantor4_fourier,
    cantor_exact,
    cantor_ifs,
    check_pair,
    commuting_diagram_defect,
    element,
    evaluate_element,
    gauss_hermite_plane,
    h_norm_sq,
    isometry_defect,
    isometry_norms,
    lambda4_set,
    membership_defect,
    morphism_check,
    onto_residual,
    pencil_eigenvalues,
    periodic_uniform,
    pivoted_cholesky,
    pushforward,
    scale_measure,
)
from rkboundary._linalg import BLOCK_BYTES, PENCIL_TOL, row_blocks


def szego_setup(n=6, nodes=2048):
    kernel = SzegoKernel()
    section = build_section(kernel, spiral_points(n, 0.2, 0.85))
    return kernel, kernel.boundary_extension(), periodic_uniform(nodes), section


# -- boundary_gram ----------------------------------------------------------

def test_boundary_gram_szego_two_points():
    kernel = SzegoKernel()
    section = build_section(kernel, [0.0, 0.5])
    nmat = boundary_gram(kernel.boundary_extension(), periodic_uniform(2048), section).matrix
    # oracle: geometric series sum_n z1^n conj(z2)^n = 1 / (1 - z1 conj(z2))
    expected = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    assert np.max(np.abs(nmat - expected)) < 1e-10


def test_boundary_gram_single_point():
    kernel = SzegoKernel()
    section = build_section(kernel, [0.0])
    nmat = boundary_gram(kernel.boundary_extension(), periodic_uniform(256), section).matrix
    assert nmat.shape == (1, 1)
    assert nmat[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_boundary_gram_matches_conjugate_gram(rng):
    # the closed-form oracle for the circle pairing is 1/(1 - z1 conj(z2))
    kernel, ext, mu, section = szego_setup()
    nmat = boundary_gram(ext, mu, section).matrix
    z = section.points
    oracle = 1.0 / (1.0 - z[:, None] * np.conj(z)[None, :])
    assert np.max(np.abs(nmat - oracle)) < 1e-12
    assert np.max(np.abs(nmat - np.conj(section.gram))) < 1e-12


def test_boundary_gram_cantor_exact():
    kernel = Cantor4Kernel(level=4)
    section = build_section(kernel, spiral_points(5, 0.3, 0.88))
    nmat = boundary_gram(kernel.boundary_extension(), cantor_exact(), section).matrix
    assert np.max(np.abs(nmat - np.conj(section.gram))) < 1e-10


@pytest.mark.parametrize("kernel", [SzegoKernel(), Cantor4Kernel(level=13)],
                         ids=["szego", "level13"])
def test_exact_cantor_measure_refuses_other_kernels(kernel):
    # refused by check_pair before the power matrix over the 2**level
    # frequencies is made
    ext, section = kernel.boundary_extension(), build_section(kernel, [0.1, 0.2j])
    with pytest.raises(DomainError,
                       match="truncated Cantor kernel at level at most 12") as refused:
        check_pair(ext, cantor_exact(), section)
    with pytest.raises(DomainError) as raised:
        boundary_gram(ext, cantor_exact(), section)
    assert str(raised.value) == str(refused.value)


_CANONICAL_PAIRS = [
    (SzegoKernel(), periodic_uniform(64)),
    (BargmannKernel(), gauss_hermite_plane(8)),
    (Cantor4Kernel(level=4), cantor_ifs(6)),
    (Cantor4Kernel(level=12), cantor_exact()),
    (SincKernel(), band_gauss_legendre(40)),
]


@pytest.mark.parametrize("kernel, mu", _CANONICAL_PAIRS,
                         ids=["szego", "bargmann", "cantor4-ifs", "cantor4-exact", "sinc"])
def test_check_pair_accepts_each_canonical_pair(kernel, mu):
    assert check_pair(kernel.boundary_extension(), mu, build_section(kernel, [])) is None


@pytest.mark.parametrize("kernel, mu, message", [
    (SzegoKernel(), gauss_hermite_plane(8), "circle coordinate requires real values"),
    (SincKernel(), periodic_uniform(64), "band frequencies must satisfy"),
    (Cantor4Kernel(level=4), atomic([0.1 + 0.2j], [1.0]), "circle coordinate requires real"),
    (BargmannKernel(), cantor_exact(), "exact Cantor measure pairs only"),
], ids=["szego-plane", "sinc-circle", "cantor4-plane", "bargmann-exact"])
def test_check_pair_refuses_a_measure_off_the_boundary(kernel, mu, message):
    with pytest.raises(DomainError, match=message):
        check_pair(kernel.boundary_extension(), mu, build_section(kernel, []))


def test_check_pair_refuses_an_extension_of_another_kernel():
    ext = Cantor4Kernel(level=4).boundary_extension()
    section = build_section(Cantor4Kernel(level=5), [0.1])
    with pytest.raises(SectionError, match="different kernels"):
        check_pair(ext, cantor_exact(), section)
    with pytest.raises(SectionError, match="different kernels"):
        boundary_gram(ext, cantor_exact(), section)


@pytest.mark.parametrize("level", range(1, 12))
def test_exact_cantor_gram_matches_one_shot(level):
    # N = (P M) P^H times the measure's one weight, with P M formed one column
    # block of M at a time (16 blocks at level 11), keeps every bit of the
    # one-shot product
    kernel = Cantor4Kernel(level=level)
    mu = scale_measure(cantor_exact(), 3.0)
    lam = lambda4_set(level)
    m = cantor4_fourier((lam[None, :] - lam[:, None]).astype(float))
    for n in (1, 2, 8):
        section = build_section(kernel, spiral_points(n, 0.3, 0.85))
        p = section.points[:, None] ** lam[None, :]
        one_shot = (p @ m @ p.conj().T) * 3.0
        nmat = boundary_gram(kernel.boundary_extension(), mu, section).matrix
        assert np.array_equal(nmat, 0.5 * (one_shot + one_shot.conj().T)), n


@pytest.mark.parametrize("level", range(1, 7))
def test_exact_cantor_gram_matches_level_atoms(level):
    # the 2**L atoms of cantor_ifs(L) integrate each product of two level-L
    # power sums exactly, an independent route to N; cantor_ifs(L - 1) misses
    # the frequency differences +-4**(L - 1), which shows the check can fail
    kernel = Cantor4Kernel(level=level)
    ext = kernel.boundary_extension()
    section = build_section(kernel, spiral_points(8, 0.3, 0.99))
    exact = boundary_gram(ext, cantor_exact(), section).matrix
    scale = np.max(np.abs(exact))
    atoms = boundary_gram(ext, cantor_ifs(level), section).matrix
    assert np.max(np.abs(atoms - exact)) <= 1e-13 * scale
    if level > 1:
        coarse = boundary_gram(ext, cantor_ifs(level - 1), section).matrix
        assert np.max(np.abs(coarse - exact)) > 1e-5 * scale


def test_boundary_gram_is_hermitian(rng):
    kernel, ext, mu, section = szego_setup()
    nmat = boundary_gram(ext, mu, section).matrix
    assert np.max(np.abs(nmat - nmat.conj().T)) == 0.0


# -- membership -------------------------------------------------------------

def test_membership_sinc_band():
    kernel = SincKernel()
    section = build_section(kernel, [-2.0, -1.0, 0.0, 1.0, 2.0])
    report = membership_defect(kernel.boundary_extension(), band_gauss_legendre(160), section)
    assert report.defect < 1e-12
    assert report.carleson_constant == pytest.approx(1.0, abs=1e-10)


def test_membership_fails_for_scaled_measure():
    kernel, ext, mu, section = szego_setup()
    report = membership_defect(ext, scale_measure(mu, 2.0), section)
    assert report.defect > 1e-8
    assert report.defect == pytest.approx(float(np.max(np.abs(section.gram))), rel=1e-10)


def test_membership_cantor_ifs_matches_exact():
    # depth >= level makes the IFS refinement exact for these integrands
    kernel = Cantor4Kernel(level=4)
    section = build_section(kernel, spiral_points(4, 0.3, 0.85))
    exact = membership_defect(kernel.boundary_extension(), cantor_exact(), section)
    refined = membership_defect(kernel.boundary_extension(), cantor_ifs(8), section)
    assert exact.defect < 1e-10 and refined.defect < 1e-10


# -- isometry ---------------------------------------------------------------

def test_isometry_zero_element():
    kernel, ext, mu, section = szego_setup()
    assert isometry_defect(element(section, np.zeros(section.size)), ext, mu) == 0.0


def test_isometry_szego_random_elements(rng):
    kernel, ext, mu, section = szego_setup()
    for _ in range(25):
        c = rng.standard_normal(section.size) + 1j * rng.standard_normal(section.size)
        f = element(section, c)
        assert isometry_defect(f, ext, mu) < 1e-9 * (1.0 + h_norm_sq(f))


def test_isometry_scaling_law(rng):
    kernel, ext, mu, section = szego_setup()
    c = rng.standard_normal(section.size) + 1j * rng.standard_normal(section.size)
    f = element(section, c)
    vals = boundary_transform(f, ext, mu.nodes)
    base_sq = float(np.sum(mu.weights * np.abs(vals) ** 2))
    alpha = 3.0
    defect = isometry_defect(f, ext, scale_measure(mu, alpha))
    assert defect == pytest.approx((alpha - 1.0) * base_sq, rel=1e-9)


def test_isometry_cantor_exact(rng):
    kernel = Cantor4Kernel(level=5)
    section = build_section(kernel, spiral_points(5, 0.3, 0.85))
    ext = kernel.boundary_extension()
    mu = cantor_exact()
    for _ in range(10):
        c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        f = element(section, c)
        assert isometry_defect(f, ext, mu) < 1e-10 * (1.0 + h_norm_sq(f))


@pytest.mark.parametrize("exact", [False, True])
def test_isometry_norms_of_a_stack_match_each_row(exact, rng):
    if exact:
        kernel = Cantor4Kernel(level=5)
        section = build_section(kernel, spiral_points(5, 0.3, 0.85))
        mu = cantor_exact()
    else:
        kernel, _, mu, section = szego_setup()
    ext = kernel.boundary_extension()
    bmat = boundary_gram(ext, mu, section)
    coeffs = rng.standard_normal((7, section.size)) + 1j * rng.standard_normal((7, section.size))
    native, transformed = isometry_norms(bmat, coeffs)
    assert native.shape == transformed.shape == (7,)
    for c, a, b in zip(coeffs, native, transformed):
        f = element(section, c)
        assert a == pytest.approx(h_norm_sq(f), rel=1e-12)
        if not exact:  # direct quadrature of the transform on the nodes
            vals = boundary_transform(f, ext, mu.nodes)
            assert b == pytest.approx(float(np.sum(mu.weights * np.abs(vals) ** 2)), rel=1e-12)
        assert isometry_defect(f, ext, mu) == pytest.approx(abs(a - b), abs=1e-12 * (1.0 + a))


@pytest.mark.parametrize("kernel, mu", [
    (BargmannKernel(), gauss_hermite_plane(64)),
    (SzegoKernel(), periodic_uniform(2048)),
    (Cantor4Kernel(level=7), cantor_exact()),
], ids=["bargmann", "szego", "cantor-exact"])
def test_blocked_transform_norms_match_one_shot(kernel, mu, rng):
    section = build_section(kernel, spiral_points(6, 0.3, 0.85))
    bmat = boundary_gram(kernel.boundary_extension(), mu, section)
    full = block_rows(bmat.evaluation.shape[1])
    for count in (1, 2, full - 1, full, full + 1, 2 * full + 1):
        c = rng.standard_normal((count, 6)) + 1j * rng.standard_normal((count, 6))
        if mu.nodes is None:  # the quadratic form of N
            one_shot = np.real(np.sum(np.conj(c) * (c @ bmat.matrix.T), axis=-1))
        else:
            one_shot = np.sum(np.abs(c @ bmat.evaluation) ** 2, axis=-1)
        assert np.array_equal(bmat.transform_norm_sq(c), one_shot), count


def test_boundary_matrix_weights_the_evaluation_once():
    kernel, ext, mu, section = szego_setup()
    mu = scale_measure(atomic(mu.nodes, 0.5 + mu.nodes), 3.0)  # unequal weights
    bmat = boundary_gram(ext, mu, section)
    a = ext(section.points[:, None], mu.nodes[None, :]) * np.sqrt(mu.weights)
    assert np.array_equal(bmat.evaluation, a)
    n = np.conj(a) @ a.T
    assert np.array_equal(bmat.matrix, 0.5 * (n + n.conj().T))


def _one_shot_gram(ext, mu, section):
    a = ext(section.points[:, None], mu.nodes[None, :]) * np.sqrt(mu.weights)
    n = np.conj(a) @ a.T
    return a, 0.5 * (n + n.conj().T)


def _gram_sizes(width):
    full = block_rows(width)
    return (1, 2, full - 1, full, full + 1, 2 * full + 1, 200)


@pytest.mark.parametrize("kernel, mu, points", [
    (SzegoKernel(), periodic_uniform(2048), lambda n: spiral_points(n, 0.2, 0.85)),
    (BargmannKernel(), gauss_hermite_plane(64), lambda n: spiral_points(n, 0.1, 2.0)),
    (SincKernel(), band_gauss_legendre(160), lambda n: np.linspace(-5.0, 5.0, n) + 0.01),
    (Cantor4Kernel(level=10), cantor_ifs(10), lambda n: spiral_points(n, 0.3, 0.85)),
], ids=["szego", "bargmann", "sinc", "cantor4"])
def test_blocked_boundary_gram_matches_one_shot(kernel, mu, points):
    # the default measures of the three dense kernels, and a Cantor product
    # whose one-shot evaluation exceeds 256 KiB: there numpy's temporary
    # elision would swap the operands of out * (1 + p), and complex multiply
    # is not bitwise commutative, so the kernel fixes their order
    ext = kernel.boundary_extension()
    for n in _gram_sizes(mu.nodes.shape[0]):
        section = build_section(kernel, points(n))
        bmat = boundary_gram(ext, mu, section)
        a, nmat = _one_shot_gram(ext, mu, section)
        assert np.array_equal(bmat.evaluation, a), n
        assert np.array_equal(bmat.matrix, nmat), n


def test_isometry_forms_no_boundary_matrix(monkeypatch, tmp_path):
    reads = []
    formed = rkboundary.boundary.BoundaryMatrix.matrix
    monkeypatch.setattr(rkboundary.boundary.BoundaryMatrix, "matrix",
                        property(lambda bmat: reads.append(bmat) or formed.func(bmat)))
    out = str(tmp_path / "r.json")
    # on the exact Cantor measure the isometry norms are the quadratic form of N
    for argv in (["isometry", "--kernel", "bargmann", "--points", "grid30"],
                 ["project", "--kernel", "szego", "--points", "grid30"]):
        assert cli.main([*argv, "--out", out]) == 0
    assert reads == []
    assert cli.main(["factorize", "--out", out]) == 0  # the spy sees a product that is made
    assert len(reads) == 1


@pytest.mark.parametrize("argv, limit_kb", [
    # one process peak per reading: the 200 x 4096 complex evaluation is 13 MB;
    # three copies of it took the process to about 80 MB, two to about 68 MB
    (("--points", "grid200", "--samples", "20"), 62_000),
    # the (trials, nodes) product grew the process by about 128 KB per trial,
    # to about 426 MB at 3000 trials
    (("--samples", "3000"), 60_000),
], ids=["grid200", "samples3000"])
def test_bargmann_isometry_process_peak(argv, limit_kb, tmp_path):
    code, max_rss_kb = cli_process_peak("isometry", "--kernel", "bargmann", *argv,
                                        "--out", str(tmp_path / "isometry.json"))
    assert code == 0
    assert max_rss_kb < limit_kb


@pytest.mark.parametrize("argv", [
    ("factorize",),
    ("isometry", "--samples", "100"),
], ids=["factorize", "isometry"])
def test_exact_cantor_level12_process_peak(argv, tmp_path):
    # the level-12 frequency matrix has 4**12 complex entries (268 MB); held
    # whole it took factorize to about 437 MB and isometry to about 443 MB.
    # With cantor4_fourier's factors formed in place they read about 67 and
    # 72 MB; with one temporary per operation, about 80 and 85 MB
    code, max_rss_kb = cli_process_peak(
        *argv, "--kernel", "cantor4", "--measure", "cantor-exact", "--level", "12",
        "--out", str(tmp_path / "report.json"))
    assert code == 0
    assert max_rss_kb < 75_000


# -- boundary transform -----------------------------------------------------

def test_transform_one_hot_is_extension_column(rng):
    kernel, ext, mu, section = szego_setup(4)
    f = element(section, [1, 0, 0, 0])
    xs = rng.uniform(size=20)
    assert np.max(np.abs(boundary_transform(f, ext, xs) - ext(section.points[0], xs))) == 0.0


def test_transform_linear(rng):
    kernel, ext, mu, section = szego_setup(4)
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    xs = rng.uniform(size=11)
    lhs = boundary_transform(element(section, c + d), ext, xs)
    rhs = boundary_transform(element(section, c), ext, xs) + \
        boundary_transform(element(section, d), ext, xs)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_transform_of_origin_kernel_is_constant_one():
    kernel = SzegoKernel()
    section = build_section(kernel, [0.0])
    xs = np.linspace(0, 0.99, 7)
    vals = boundary_transform(element(section, [1.0]), kernel.boundary_extension(), xs)
    assert np.max(np.abs(vals - 1.0)) == 0.0


# -- adjoint ----------------------------------------------------------------

def test_adjoint_zero():
    kernel, ext, mu, section = szego_setup(3)
    assert adjoint_apply(np.zeros_like(mu.nodes, dtype=complex), ext, mu, 0.3) == 0.0


def test_adjoint_annihilates_negative_frequency(rng):
    kernel, ext, mu, section = szego_setup(3, nodes=512)
    target = np.exp(-2j * np.pi * mu.nodes)
    probes = disk_points(rng, 20)
    vals = adjoint_apply(target, ext, mu, probes)
    assert np.max(np.abs(vals)) < 1e-9


def test_adjoint_roundtrip_identity(rng):
    kernel, ext, mu, section = szego_setup()
    c = rng.standard_normal(section.size) + 1j * rng.standard_normal(section.size)
    f = element(section, c)
    samples = boundary_transform(f, ext, mu.nodes)
    probes = disk_points(rng, 50)
    roundtrip = adjoint_apply(samples, ext, mu, probes)
    assert np.max(np.abs(roundtrip - evaluate_element(f, probes))) < 1e-9


@pytest.mark.parametrize("width", [0, 1, 7, 400, 2048, 16384, 50_000, 10 ** 6])
def test_row_blocks_tile_rows_without_single_rows(width):
    full = block_rows(width)
    # full blocks fill the budget, or hold the least block of three rows
    assert 16 * width * full <= BLOCK_BYTES or full == 3
    assert 16 * width * (full + 1) > BLOCK_BYTES or width == 0
    for rows in sorted({1, 2, 3, 4, full - 1, full, full + 1, 2 * full + 1, 3 * full + 2}):
        blocks = list(row_blocks(rows, width))
        assert [b.start for b in blocks] == [0] + [b.stop for b in blocks[:-1]]
        assert blocks[-1].stop == rows
        sizes = [b.stop - b.start for b in blocks]
        assert max(sizes) <= full
        assert min(sizes) >= min(rows, 2)
    assert list(row_blocks(0, width)) == []


ADJOINT_PAIRS = [
    (Cantor4Kernel(level=6), cantor_ifs(14), disk_points),
    (SzegoKernel(), periodic_uniform(2048), disk_points),
    (BargmannKernel(), gauss_hermite_plane(64), plane_points),
    (SincKernel(), band_gauss_legendre(400), line_points),
]


@pytest.mark.parametrize("kernel, mu, sampler", ADJOINT_PAIRS,
                         ids=[k.name for k, _, _ in ADJOINT_PAIRS])
def test_blocked_adjoint_matches_one_shot(kernel, mu, sampler, rng):
    ext = kernel.boundary_extension()
    width = mu.nodes.shape[0]
    fv = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    eps = np.finfo(float).eps
    for count in (1, 2, 3, 50, 120):
        probes = sampler(rng, count)
        terms = np.conj(ext(probes[:, None], mu.nodes[None, :])) * (mu.weights * fv)
        exact = np.array([complex(math.fsum(t.real), math.fsum(t.imag)) for t in terms])
        tiles = list(row_blocks(width, 4 * count))
        tile = max(b.stop - b.start for b in tiles)
        # Each term is a complex product, within sqrt(5) u |t_k| of the exact
        # product (u = eps / 2), on both sides: 5 u |t_k| apart.  A term then
        # passes through at most tile - 1 additions inside its tile and
        # len(tiles) more into the running sum, so each of the real and the
        # imaginary sums is within gamma_(tile + tiles) <= (tile + tiles) u
        # (1 + 1e-9) of its own sum of moduli, which sum_k |t_k| bounds by
        # sqrt(2) in all; fsum rounds each part once more, within u.  Hence
        # |adjoint - exact| <= (sqrt(2) (tile + tiles + 1) + 5) u sum_k |t_k|,
        # below (tile + tiles + 6) eps sum_k |t_k|.
        bound = (tile + len(tiles) + 6) * eps * np.sum(np.abs(terms), axis=-1)
        got = adjoint_apply(fv, ext, mu, probes)
        assert np.all(np.abs(got - exact) <= bound), count
        if count == 1:  # a scalar point gives the array of its one value
            one = adjoint_apply(fv, ext, mu, probes[0])
            assert isinstance(one, np.ndarray) and one.shape == (1,)
            assert one[0] == got[0]


@pytest.mark.parametrize("kernel, mu, sampler", ADJOINT_PAIRS,
                         ids=[k.name for k, _, _ in ADJOINT_PAIRS])
def test_blocked_transform_matches_one_shot(kernel, mu, sampler, rng):
    ext = kernel.boundary_extension()
    section = build_section(kernel, sampler(rng, 6))
    f = element(section, rng.standard_normal(6) + 1j * rng.standard_normal(6))
    # a block holds the evaluation beside up to three scratch arrays
    full = block_rows(4 * section.size)
    for count in (1, 2, full - 1, full, full + 1, 2 * full + 1):
        b = np.resize(mu.nodes, count)  # the nodes, repeated as often as needed
        vals = ext(section.points[:, None], b[None, :])
        one_shot = f.coeffs @ vals
        # einsum sums each column's 6 terms in order and BLAS reduces c @ vals
        # in its own order, so the two may differ by rounding: each side is
        # within 6 eps sum_j |c_j K^B(s_j, b)| of the exact sum over the 6
        # points
        bound = 12 * np.finfo(float).eps * (np.abs(f.coeffs) @ np.abs(vals))
        transformed = boundary_transform(f, ext, b)
        assert np.all(np.abs(transformed - one_shot) <= bound), count
        if count == 1:  # a scalar point gives the array of its one value
            one = boundary_transform(f, ext, b[0])
            assert isinstance(one, np.ndarray) and one.shape == (1,)
            assert one[0] == transformed[0]


def test_cantor_adjoint_process_peak(tmp_path):
    # 50 probes against 16384 nodes peak at about 40 MB, with node tiles
    # sized so that the evaluation and the Cantor product's scratch arrays
    # fit in 1 MiB together: about 43 MB when 1 MiB bounded each array alone,
    # 102 MB with the whole 13 MB evaluation held at once
    code, max_rss_kb = cli_process_peak(
        "adjoint-roundtrip", "--kernel", "cantor4", "--measure", "cantor-ifs:14",
        "--out", str(tmp_path / "adjoint.json"))
    assert code == 0
    assert max_rss_kb < 41_000


def test_cantor_project_process_peak(tmp_path):
    # filling the 8 x 16384 weighted evaluation in 2 MiB blocks with up to six
    # Cantor-product temporaries each took the process to about 44 MB
    code, max_rss_kb = cli_process_peak(
        "project", "--kernel", "cantor4", "--measure", "cantor-ifs:14",
        "--out", str(tmp_path / "project.json"))
    assert code == 0
    assert max_rss_kb < 42_000


# -- carleson constant ------------------------------------------------------

def test_carleson_member_is_one():
    kernel, ext, mu, section = szego_setup()
    assert membership_defect(ext, mu, section).carleson_constant == pytest.approx(1.0, abs=1e-8)


def test_carleson_scaling_is_linear():
    kernel, ext, mu, section = szego_setup()
    base = membership_defect(ext, mu, section).carleson_constant
    for alpha in (0.5, 2.0, 10.0):
        scaled = membership_defect(ext, scale_measure(mu, alpha), section).carleson_constant
        assert scaled == pytest.approx(alpha * base, rel=1e-12)


def test_carleson_point_mass_rank_one(rng):
    kernel = SzegoKernel()
    section = build_section(kernel, [0.2, -0.4 + 0.3j, 0.5j])
    ext = kernel.boundary_extension()
    x0 = 0.3
    mu = atomic(np.array([x0]), [1.0])
    constant = membership_defect(ext, mu, section).carleson_constant
    # closed form for the rank-one pencil: u* Q^{-1} u with u = conj(K^B(., x0))
    u = np.conj(ext(section.points, np.full(3, x0)))
    q = np.conj(section.gram)
    expected = float(np.real(np.vdot(u, np.linalg.solve(q, u))))
    assert constant == pytest.approx(expected, rel=1e-10)
    # brute-force ratio maximization never exceeds the pencil value
    nmat = boundary_gram(ext, mu, section).matrix
    best = 0.0
    for _ in range(2000):
        c = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        ratio = float(np.real(np.vdot(c, nmat @ c)) / np.real(np.vdot(c, q @ c)))
        best = max(best, ratio)
    assert best <= constant * (1.0 + 1e-10)
    assert best > 0.5 * constant


def test_carleson_exhausted_pruning():
    kernel = ExplicitFeatureKernel(np.zeros((2, 1)))
    with pytest.raises(Exception):
        build_section(kernel, [0, 1])  # duplicate under the metric
    # zero norm form through the pencil directly
    with pytest.raises(NotPositiveSemidefiniteError):
        pencil_eigenvalues(np.eye(2), np.zeros((2, 2)))


def pencil_oracle(nmat, qmat, dps=50):
    """Generalized eigenvalues of a Hermitian-definite pencil (N, Q) at ``dps`` digits.

    Factors Q = L L^H with mpmath's Cholesky, inverts the triangular factor and
    diagonalizes L^-1 N L^-H with mpmath's Hermitian eigensolver; no numpy
    linear algebra touches the matrices.  Returns the ascending spectrum.
    """
    with mpmath.workdps(dps):
        low = mpmath.cholesky(mpmath.matrix(qmat.tolist()))
        inv = mpmath.inverse(low)
        reduced = inv * mpmath.matrix(nmat.tolist()) * inv.H
        spectrum = mpmath.eighe(reduced, eigvals_only=True)
        return np.sort([float(mpmath.re(w)) for w in spectrum])


def random_pencil(rng, n, cond):
    """Hermitian N and positive definite Q with spectrum logspaced from 1 to 1/cond."""
    u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    q = (u * np.logspace(0.0, -np.log10(cond), n)) @ u.conj().T
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return 0.5 * (b + b.conj().T), 0.5 * (q + q.conj().T)


@pytest.mark.parametrize("n", [6, 20])
@pytest.mark.parametrize("cond", [1e2, 1e8])
def test_pencil_matches_high_precision_oracle(n, cond):
    nmat, qmat = random_pencil(np.random.default_rng([n, int(np.log10(cond))]), n, cond)
    # the pencil keeps the leading pivots whose squared pivot exceeds
    # PENCIL_TOL of the largest diagonal: all of them at condition 1e2, and
    # not the smallest at 1e8
    factor, pivots, _ = pivoted_cholesky(qmat)
    squared = np.abs(factor[pivots, np.arange(pivots.size)]) ** 2
    kept = pivots[squared > PENCIL_TOL * np.max(np.real(np.diag(qmat)))]
    assert (kept.size == n) == (cond < 1e6)
    retained = np.ix_(kept, kept)
    expected = pencil_oracle(nmat[retained], qmat[retained])
    got = pencil_eigenvalues(nmat, qmat)
    assert got.shape == (kept.size,)
    assert np.max(np.abs(got - expected)) <= cond * 1e-15 * np.max(np.abs(expected))


def test_pencil_szego_section_matches_oracle():
    from rkboundary.cli import builtin_grid

    kernel = SzegoKernel()
    section = build_section(kernel, builtin_grid(10, kernel))
    nmat = boundary_gram(kernel.boundary_extension(), periodic_uniform(2048), section).matrix
    qmat = np.conj(section.gram)
    with mpmath.workdps(50):
        wq = mpmath.eighe(mpmath.matrix(qmat.tolist()), eigvals_only=True)
        cond = float(max(wq) / min(wq))
    expected = pencil_oracle(nmat, qmat)
    assert np.max(np.abs(expected - 1.0)) < 1e-9  # a member: all ones up to quadrature
    got = pencil_eigenvalues(nmat, qmat)
    assert got.shape == (10,)
    assert np.max(np.abs(got - expected)) <= cond * 1e-15 * np.max(np.abs(expected))


def test_pencil_factors_the_norm_form_once(monkeypatch):
    nmat, qmat = random_pencil(np.random.default_rng(5), 6, 1e3)
    factored = []
    original_pivoted = rkboundary.boundary.pivoted_cholesky

    def recording_pivoted(matrix):
        factored.append(np.shape(matrix))
        return original_pivoted(matrix)

    def forbidden_cholesky(matrix):
        raise AssertionError("the pencil refactored the norm form")

    monkeypatch.setattr(rkboundary.boundary, "pivoted_cholesky", recording_pivoted)
    monkeypatch.setattr(np.linalg, "cholesky", forbidden_cholesky)
    got = pencil_eigenvalues(nmat, qmat)
    assert factored == [(6, 6)]
    expected = pencil_oracle(nmat, qmat)
    assert np.max(np.abs(got - expected)) <= 1e3 * 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("n, rank", [(8, 3), (20, 12)])
def test_pruned_pencil_matches_oracle_on_retained_pivots(n, rank):
    rng = np.random.default_rng([n, rank])
    a = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    qmat = a @ a.conj().T
    qmat = 0.5 * (qmat + qmat.conj().T)
    b = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    nmat = 0.5 * (b + b.conj().T)
    _, pivots, kept = pivoted_cholesky(qmat)
    assert kept == rank  # Q has rank r, so pruning drops n - r pivots
    retained = np.ix_(pivots, pivots)
    expected = pencil_oracle(nmat[retained], qmat[retained])
    got = pencil_eigenvalues(nmat, qmat)
    assert got.shape == (rank,)
    cond = np.linalg.cond(qmat[retained])
    assert np.max(np.abs(got - expected)) <= cond * 1e-15 * np.max(np.abs(expected))


@pytest.mark.parametrize("kernel, measure, draw, sizes", [
    (SzegoKernel(), periodic_uniform(4096), disk_points, (20, 40, 60)),
    (SincKernel(), band_gauss_legendre(400), line_points, (20, 40, 60)),
    (BargmannKernel(), gauss_hermite_plane(64), plane_points, (20, 40, 60)),
    (Cantor4Kernel(level=8), cantor_exact(), disk_points, (8, 16)),
], ids=["szego", "sinc", "bargmann", "cantor4"])
def test_carleson_estimate_is_one_on_random_member_sections(kernel, measure, draw, sizes):
    # nested prefixes of uniform random points, whose norm forms have
    # directions far below PENCIL_TOL; a pencil that keeps them divides N's
    # rounding by them and misses 1 by up to 3.5e-4 here
    ext = kernel.boundary_extension()
    for seed in (61, 62):
        points = draw(np.random.default_rng(seed), max(sizes))
        for n in sizes:
            report = membership_defect(ext, measure, build_section(kernel, points[:n]))
            assert abs(report.carleson_constant - 1.0) <= 1e-8, (seed, n)


# -- projections ------------------------------------------------------------

def test_projection_reproduces_span_members(rng):
    kernel, ext, mu, section = szego_setup()
    c = rng.standard_normal(section.size) + 1j * rng.standard_normal(section.size)
    samples = boundary_transform(element(section, c), ext, mu.nodes)
    result = onto_residual(samples, ext, mu, section)
    assert result.residual < 1e-9
    assert result.residual <= result.target_norm + 1e-12


# conj(z) is orthogonal to H^2, so its distance to every section's span is one.
# On clustered random sections the fit keeps singular directions near the
# rank cutoff, and rounding there moves the residual below one by up to
# 1.8e-10 (40 seeded sections of 140 and 180 points); it never moves above.
@pytest.mark.parametrize("points, tol", [
    (spiral_points(5, 0.2, 0.85), 1e-12),
    (cli.builtin_grid(40, SzegoKernel()), 1e-12),
    (disk_points(np.random.default_rng(140), 140), 1e-9),
    (disk_points(np.random.default_rng(180), 180), 1e-9),
], ids=["spiral5", "grid40", "random140", "random180"])
def test_projection_negative_frequency_residual_one(points, tol):
    kernel = SzegoKernel()
    ext, mu = kernel.boundary_extension(), periodic_uniform(2048)
    target = np.exp(-2j * np.pi * mu.nodes)
    result = onto_residual(target, ext, mu, build_section(kernel, points))
    assert result.target_norm == pytest.approx(1.0, abs=1e-12)
    # read as ||sqrt(w) F - c A|| after a least-squares solve, the residual
    # exceeds one by up to 2.1e-8 on random 120-200 point sections
    assert result.residual <= result.target_norm + 1e-12
    assert abs(result.residual - 1.0) <= tol


def szego_distance_oracle(points, k, dps=120):
    """L2 distance on the circle from z^k to span{K(s_j, .)} of the Szego kernel.

    sqrt(1 - b^H M^-1 b) with the Gram M_ij = 1 / (1 - conj(s_j) s_i) and the
    reproduced values b_i = s_i^k, solved by mpmath at ``dps`` digits; no
    quadrature and no numpy linear algebra.
    """
    with mpmath.workdps(dps):
        s = [mpmath.mpc(complex(p)) for p in points]
        gram = mpmath.matrix([[1 / (1 - mpmath.conj(sj) * si) for sj in s] for si in s])
        b = mpmath.matrix([si ** k for si in s])
        x = mpmath.lu_solve(gram, b)
        return float(mpmath.sqrt(mpmath.re(1 - sum(mpmath.conj(b[i]) * x[i] for i in range(len(s))))))


@pytest.mark.parametrize("n", [10, 40])
@pytest.mark.parametrize("k", [0, 1, 3])
def test_projection_matches_high_precision_distance(n, k):
    kernel = SzegoKernel()
    points = cli.builtin_grid(n, kernel)
    mu = periodic_uniform(2048)
    target = np.exp(2j * np.pi * k * mu.nodes)
    result = onto_residual(target, kernel.boundary_extension(), mu, build_section(kernel, points))
    assert abs(result.residual - szego_distance_oracle(points, k)) <= 1e-10


def test_projection_antitone_in_section():
    kernel = Cantor4Kernel(level=4)
    ext = kernel.boundary_extension()
    mu = cantor_ifs(10)
    points = spiral_points(12, 0.25, 0.88)
    target = np.exp(2j * np.pi * 3 * mu.nodes)  # frequency outside the spectrum
    residuals = []
    for size in (4, 8, 12):
        section = build_section(kernel, points[:size])
        residuals.append(onto_residual(target, ext, mu, section).residual)
    assert residuals[1] <= residuals[0] + 1e-10
    assert residuals[2] <= residuals[1] + 1e-10


def test_projection_idempotent(rng):
    kernel, ext, mu, section = szego_setup(5)
    target = np.exp(2j * np.pi * 2 * mu.nodes) + 0.3 * np.exp(-2j * np.pi * mu.nodes)
    first = onto_residual(target, ext, mu, section)
    fitted = first.coeffs @ ext(section.points[:, None], mu.nodes[None, :])
    second = onto_residual(fitted, ext, mu, section)
    assert second.residual < 1e-10


def test_projection_rank_deficient_fit():
    kernel = SzegoKernel()
    section = build_section(kernel, [0.3, 0.3 + 1e-5])
    mu = atomic(np.array([0.125]), [1.0])  # rank-one boundary matrix
    target = np.exp(2j * np.pi * mu.nodes)
    result = onto_residual(target, ext=kernel.boundary_extension(), measure=mu, section=section)
    assert result.rank == 1
    assert result.residual <= result.target_norm
    assert np.all(np.isfinite(result.coeffs))


# -- morphisms and the commuting diagram -------------------------------------

def refinement_setup():
    features = np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8j]], dtype=complex)
    kernel = ExplicitFeatureKernel(features)
    frames = np.array([[np.sqrt(2.0), 0.0], [0.0, np.sqrt(2.0)]], dtype=complex)
    ext_coarse = FrameExtension(kernel, frames)
    mu_coarse = atomic([0, 1], [0.5, 0.5])
    atom_map = {0: 0, 1: 0, 2: 1, 3: 1}
    ext_fine = PullbackExtension(ext_coarse, atom_map)
    mu_fine = atomic([0, 1, 2, 3], [0.25] * 4)
    section = build_section(kernel, [0, 1, 2])
    return kernel, ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map, section


def test_morphism_check_passes_and_fails():
    _, _, _, mu_coarse, mu_fine, atom_map, _ = refinement_setup()
    assert morphism_check(mu_coarse, mu_fine, atom_map) <= 1e-12
    assert morphism_check(mu_fine, mu_fine, {i: i for i in range(4)}) == 0.0
    mismatched = atomic([0, 1], [0.75, 0.25])
    assert morphism_check(mismatched, mu_fine, atom_map) == pytest.approx(0.25)


def test_memberships_of_both_boundary_pairs():
    _, ext_coarse, ext_fine, mu_coarse, mu_fine, _, section = refinement_setup()
    assert membership_defect(ext_coarse, mu_coarse, section).defect < 1e-12
    assert membership_defect(ext_fine, mu_fine, section).defect < 1e-12


def test_commuting_diagram_defect_zero(rng):
    _, ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map, section = refinement_setup()
    f = element(section, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    report = commuting_diagram_defect(ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map, f)
    assert report.transform_defect < 1e-12
    assert report.pullback_isometry_defect < 1e-12


def test_commuting_diagram_identity_map(rng):
    _, ext_coarse, _, mu_coarse, _, _, section = refinement_setup()
    f = element(section, rng.standard_normal(3) + 1j * rng.standard_normal(3))
    report = commuting_diagram_defect(
        ext_coarse, ext_coarse, mu_coarse, mu_coarse, {0: 0, 1: 1}, f
    )
    assert report.transform_defect == 0.0
    assert report.pullback_isometry_defect == 0.0


def test_commuting_diagram_rejects_bad_map(rng):
    _, ext_coarse, ext_fine, mu_coarse, mu_fine, atom_map, section = refinement_setup()
    f = element(section, np.ones(3))
    bad_target = atomic([0, 1], [0.9, 0.1])
    with pytest.raises(ValueError):
        commuting_diagram_defect(ext_coarse, ext_fine, bad_target, mu_fine, atom_map, f)


def test_pushforward_preserves_mass_exactly():
    _, _, _, _, mu_fine, atom_map, _ = refinement_setup()
    image = pushforward(mu_fine, atom_map)
    assert float(np.sum(image.weights)) == float(np.sum(mu_fine.weights))
