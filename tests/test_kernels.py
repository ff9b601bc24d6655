"""Kernel zoo, sections, and element arithmetic."""

import mpmath
import numpy as np
import pytest

from conftest import disk_points, kernel_dist, line_points, plane_points

from rkboundary import (
    BargmannKernel,
    Cantor4Kernel,
    DomainError,
    ExplicitFeatureKernel,
    ExplicitGramKernel,
    NotHermitianError,
    NotPositiveSemidefiniteError,
    SectionError,
    SincKernel,
    SzegoKernel,
    build_section,
    element,
    evaluate_element,
    h_norm_sq,
    lambda4_set,
    pd_check,
)

ZOO = [
    (SzegoKernel(), disk_points),
    (BargmannKernel(), plane_points),
    (Cantor4Kernel(level=4), disk_points),
    (SincKernel(), line_points),
]


# -- evaluation -------------------------------------------------------------

def test_szego_values():
    k = SzegoKernel()
    assert k(0, 0) == 1.0
    assert k(0.5, 0.5) == pytest.approx(4.0 / 3.0, abs=1e-15)


def test_bargmann_diagonal_is_one(rng):
    k = BargmannKernel()
    for z in plane_points(rng, 10):
        assert k(z, z) == pytest.approx(1.0, abs=1e-15)


def test_bargmann_modulus_bound():
    k = BargmannKernel()
    edge = np.array([1e150, -1e150j])
    assert np.array_equal(k(edge, edge), np.ones(2))
    for z in (1.0000000000000002e150, 1e200j, 1e300):
        with pytest.raises(DomainError, match=r"\|z\| <= 1e150"):
            k.validate_points([0.0, z])


EPS = np.finfo(float).eps


def test_bargmann_diagonal_is_one_at_large_modulus(rng):
    # the exponent conj(z) w / 2 - (|z|^2 + |w|^2) / 4 cancelled terms of size
    # |z|^2: K(z, z) - 1 reached 6.4 at |z| = 1e8 and overflowed at 1e10
    k = BargmannKernel()
    for r in (1.0, 1e4, 1e6, 1e8, 1e10):
        z = r * np.exp(2j * np.pi * rng.uniform(size=1000))
        assert np.max(np.abs(k(z, z) - 1.0)) <= 4 * EPS, r
        w = z[::-1]
        assert np.array_equal(k(z, w), np.conj(k(w, z))), r


def mp_complex(z):
    return mpmath.mpc(float(np.real(z)), float(np.imag(z)))


def oracle_points(rng, radius, extremes):
    """Random points of modulus up to ``radius``, plus fixed extreme ones."""
    r = radius * np.sqrt(rng.uniform(size=16))
    return np.concatenate([r * np.exp(2j * np.pi * rng.uniform(size=16)), extremes])


def test_szego_matches_30_digit_values(rng):
    z = oracle_points(rng, 0.999, [0.999, -0.999, 0.999j, 0.999 * np.exp(0.4j), 0.9989])
    values = SzegoKernel()(z[:, None], z[None, :])
    with mpmath.workdps(30):
        for i, a in enumerate(z):
            for j, b in enumerate(z):
                exact = complex(1 / (1 - mpmath.conj(mp_complex(a)) * mp_complex(b)))
                # rounding of 1 - conj(a) b, relative to what cancellation leaves
                cond = (1 + abs(a * b)) / abs(1 - np.conj(a) * b)
                assert abs(values[i, j] - exact) <= 4 * EPS * cond * abs(exact), (a, b)


def test_bargmann_matches_30_digit_values(rng):
    z = oracle_points(rng, 6.0, [6.0, -6.0, 6.0j, 6.0 * np.exp(2.0j), 5.99])
    values = BargmannKernel()(z[:, None], z[None, :])
    with mpmath.workdps(30):
        for i, a in enumerate(z):
            for j, b in enumerate(z):
                za, zb = mp_complex(a), mp_complex(b)
                exact = complex(mpmath.exp(
                    mpmath.conj(za) * zb / 2 - (abs(za) ** 2 + abs(zb) ** 2) / 4))
                # the exponent is exact up to rounding of size eps |a|^2 + eps |b|^2
                bound = 4 * EPS * (1 + abs(a) ** 2 + abs(b) ** 2) * abs(exact)
                assert abs(values[i, j] - exact) <= bound, (a, b)


def test_cantor_zero_point_gives_one():
    k = Cantor4Kernel(level=3)
    assert k(0, 0.7 * np.exp(0.3j)) == pytest.approx(1.0, abs=0)


def test_cantor_level_validation():
    with pytest.raises(ValueError):
        Cantor4Kernel(level=0)
    with pytest.raises(ValueError):
        Cantor4Kernel(level=21)


def test_szego_domain_rejected():
    k = SzegoKernel()
    with pytest.raises(DomainError):
        k(1.0, 0.0)
    with pytest.raises(DomainError):
        k.boundary_extension()(1.2j, 0.25)


def test_sinc_rejects_complex_points():
    with pytest.raises(DomainError):
        SincKernel()(0.5j, 0.0)


@pytest.mark.parametrize("kernel,sampler", ZOO, ids=lambda v: getattr(v, "name", ""))
def test_hermitian_symmetry(kernel, sampler, rng):
    s = sampler(rng, 1000)
    t = sampler(rng, 1000)
    gap = np.abs(kernel(s, t) - np.conj(kernel(t, s)))
    assert float(np.max(gap)) <= 1e-14


def test_cantor_product_equals_power_sum(rng):
    level = 5
    kernel = Cantor4Kernel(level=level)
    lam = lambda4_set(level)
    z = disk_points(rng, 20)
    w = disk_points(rng, 20)
    u = np.conj(z) * w
    power_sum = (u[:, None] ** lam[None, :]).sum(axis=1)
    assert np.max(np.abs(kernel(z, w) - power_sum)) < 1e-12


def _cantor_product(level):
    def formula(s, t):
        u = np.conj(s) * t
        out = np.ones_like(u)
        p = u
        for _ in range(level):
            factor = 1.0 + p  # named, so numpy cannot swap the operands below
            out = out * factor
            q = p * p
            p = q * q
        return out
    return formula


def _band(rng, n):
    return rng.uniform(-0.5, 0.5, size=n)


EVAL_CASES = [
    (SzegoKernel(), disk_points, disk_points, lambda s, t: 1.0 / (1.0 - np.conj(s) * t)),
    (Cantor4Kernel(level=6), disk_points, disk_points, _cantor_product(6)),
    (BargmannKernel().boundary_extension(), plane_points, plane_points,
     lambda s, b: np.exp(0.5 * np.conj(s) * b - 0.25 * np.abs(s) ** 2)),
    (SincKernel().boundary_extension(), line_points, _band,
     lambda s, b: np.exp(-2j * np.pi * s * b)),
]


@pytest.mark.parametrize("rule, first, second, formula", EVAL_CASES,
                         ids=["szego", "cantor4", "bargmann-plane", "sinc-band"])
def test_in_place_eval_matches_formula(rule, first, second, formula, rng):
    s0, t0 = np.asarray(first(rng, 1)[0]), np.asarray(second(rng, 1)[0])
    value = rule(s0, t0)
    assert not isinstance(value, np.ndarray)
    assert value == formula(s0, t0)
    # 8 x 1024 complex values are 128 KiB and 8 x 4096 are 512 KiB: numpy
    # elides the temporaries of an expression from 256 KiB on
    for width in (1024, 4096):
        s, t = first(rng, 8)[:, None], second(rng, width)[None, :]
        assert np.array_equal(rule(s, t), formula(s, t)), width


# -- boundary extensions ----------------------------------------------------

def test_szego_extension_values():
    ext = SzegoKernel().boundary_extension()
    assert ext(0.0, 0.37) == pytest.approx(1.0, abs=0)
    assert ext(0.5, 0.0) == pytest.approx(2.0, abs=1e-15)


def test_sinc_extension_unit_modulus(rng):
    ext = SincKernel().boundary_extension()
    t = line_points(rng, 50)
    xi = rng.uniform(-0.5, 0.5, size=50)
    assert np.max(np.abs(np.abs(ext(t, xi)) - 1.0)) < 1e-15
    with pytest.raises(DomainError):
        ext(0.0, 0.75)


# -- sections ---------------------------------------------------------------

def test_build_section_szego_gram():
    sec = build_section(SzegoKernel(), [0.0, 0.5])
    expected = np.array([[1.0, 1.0], [1.0, 4.0 / 3.0]])
    assert np.allclose(sec.gram, expected, atol=1e-15)


def test_orthonormal_features_give_identity():
    kernel = ExplicitFeatureKernel(np.eye(3))
    sec = build_section(kernel, [0, 1, 2])
    assert np.array_equal(sec.gram, np.eye(3))


def test_duplicate_points_rejected():
    with pytest.raises(SectionError, match="indistinguishable"):
        build_section(SzegoKernel(), [0.9, 0.9])


def test_sampled_grams_are_psd(rng):
    for kernel, sampler in ZOO:
        pts = sampler(rng, 12)
        sec = build_section(kernel, pts)
        verdict = pd_check(sec.gram)
        assert verdict.passed, (kernel.name, verdict)


def test_explicit_gram_kernel_requires_psd():
    with pytest.raises(Exception):
        ExplicitGramKernel(np.array([[1.0, 2.0], [2.0, 1.0]]))
    k = ExplicitGramKernel(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert k(0, 1) == 1.0


def test_explicit_gram_kernel_applies_the_pd_check_threshold():
    # eigenvalue -5e-11 at diagonal 1e-6: -5e-5 relative, far below pd_check's
    # -1e-10 relative threshold, so build_section would refuse the same matrix
    tiny = 1e-6 * np.array([[1.0, 1.00005], [1.00005, 1.0]])
    assert not pd_check(tiny).passed
    with pytest.raises(NotPositiveSemidefiniteError, match="kernel matrix has eigenvalue"):
        ExplicitGramKernel(tiny)
    ExplicitGramKernel(np.zeros((1, 1)))
    ExplicitGramKernel(1e-6 * np.eye(2))


# -- pd_check ---------------------------------------------------------------

def test_pd_check_identity():
    verdict = pd_check(np.eye(3))
    assert verdict.passed and verdict.min_eigenvalue == pytest.approx(1.0)


def test_pd_check_indefinite():
    verdict = pd_check(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert not verdict.passed
    assert verdict.min_eigenvalue == pytest.approx(-1.0, abs=1e-12)


def test_pd_check_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        pd_check(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_pd_check_szego_random_points(rng):
    pts = disk_points(rng, 20)
    gram = SzegoKernel().gram(pts)
    assert pd_check(gram).passed


# -- element arithmetic -----------------------------------------------------

def test_h_norm_values():
    sec = build_section(SzegoKernel(), [0.0, 0.5])
    assert h_norm_sq(element(sec, [0, 0])) == 0.0
    assert h_norm_sq(element(sec, [1, 0])) == pytest.approx(1.0, abs=1e-15)
    assert h_norm_sq(element(sec, [1, -1])) == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_h_norm_matches_inner_exactly(rng):
    sec = build_section(SzegoKernel(), disk_points(rng, 6))
    for _ in range(20):
        f = element(sec, rng.standard_normal(6) + 1j * rng.standard_normal(6))
        assert h_norm_sq(f) == complex(np.vdot(f.coeffs, np.conj(sec.gram) @ f.coeffs)).real
        assert h_norm_sq(f) >= -1e-12


def test_h_norm_permutation_invariant(rng):
    pts = disk_points(rng, 7)
    c = rng.standard_normal(7) + 1j * rng.standard_normal(7)
    perm = rng.permutation(7)
    a = h_norm_sq(element(build_section(SzegoKernel(), pts), c))
    b = h_norm_sq(element(build_section(SzegoKernel(), pts[perm]), c[perm]))
    assert a == pytest.approx(b, rel=1e-12)


def test_evaluate_element(rng):
    sec = build_section(SzegoKernel(), [0.0])
    assert evaluate_element(element(sec, [1.0]), 0.3) == pytest.approx(1.0, abs=0)
    pts = disk_points(rng, 4)
    sec = build_section(SzegoKernel(), pts)
    f = element(sec, [0, 1, 0, 0])
    probe = 0.2 + 0.1j
    assert evaluate_element(f, probe) == pytest.approx(SzegoKernel()(pts[1], probe), abs=1e-15)
    # at a section point the value is the Gram-row combination
    f2 = element(sec, np.arange(1, 5, dtype=complex))
    assert evaluate_element(f2, pts[2]) == pytest.approx(f2.coeffs @ sec.gram[:, 2], abs=1e-12)


# -- kernel metric ----------------------------------------------------------

def test_dist_identity_and_frozen_value():
    k = SzegoKernel()
    assert kernel_dist(k, 0.3 + 0.2j, 0.3 + 0.2j) == 0.0
    assert kernel_dist(k, 0.0, 0.5) == pytest.approx(np.sqrt(1.0 / 3.0), abs=1e-14)


@pytest.mark.parametrize("kernel,sampler", ZOO, ids=lambda v: getattr(v, "name", ""))
def test_metric_properties(kernel, sampler, rng):
    a = sampler(rng, 1000)
    b = sampler(rng, 1000)
    c = sampler(rng, 1000)
    dab = kernel_dist(kernel, a, b)
    dba = kernel_dist(kernel, b, a)
    dac = kernel_dist(kernel, a, c)
    dbc = kernel_dist(kernel, b, c)
    assert np.max(np.abs(dab - dba)) < 1e-12
    assert np.all(dab >= 0.0)
    # triangle inequality on the sampled triples
    assert np.max(dac - (dab + dbc)) <= 1e-12
    # distinct sampled points stay separated
    distinct = np.abs(a - b) > 1e-6
    assert np.all(dab[distinct] > 0.0)
