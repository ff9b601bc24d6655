"""Quadrature measures, the Cantor transform, and pushforwards."""

import math

import mpmath
import numpy as np
import pytest

from rkboundary import (
    atomic,
    band_gauss_legendre,
    cantor4_fourier,
    cantor_exact,
    cantor_ifs,
    gauss_hermite_plane,
    integrate,
    periodic_uniform,
    pushforward,
    scale_measure,
)

# independently computed through the depth-20 IFS refinement (agrees to 2.7e-12)
MU_HAT_2 = 0.3463144563497232 + 0.5998342337933138j


# -- integrate --------------------------------------------------------------

def test_total_mass_of_probability_measures():
    for mu in (periodic_uniform(64), gauss_hermite_plane(12), cantor_ifs(8),
               band_gauss_legendre(32)):
        assert integrate(mu, lambda b: np.ones_like(b, dtype=float)) == pytest.approx(1.0, abs=1e-14)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-14)


def test_periodic_uniform_annihilates_low_frequencies():
    for n in (8, 16, 64):
        mu = periodic_uniform(n)
        for k in range(1, n):
            val = integrate(mu, lambda x, k=k: np.exp(2j * np.pi * k * x))
            assert abs(val) < 1e-13


def test_gauss_hermite_moments():
    mu = gauss_hermite_plane(20)
    assert integrate(mu, lambda z: np.abs(z) ** 2) == pytest.approx(2.0, abs=1e-12)
    assert integrate(mu, lambda z: z.real ** 2) == pytest.approx(1.0, abs=1e-13)
    assert integrate(mu, lambda z: z.real ** 4) == pytest.approx(3.0, abs=1e-12)
    assert abs(integrate(mu, lambda z: z.real ** 3)) < 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 20, 64])
def test_gauss_hermite_plane_axis_moments_exact(n):
    # E[x^2a y^2b] = (2a-1)!! (2b-1)!! for the standard Gaussian on each axis,
    # integrated exactly for all 2a, 2b < 2n
    mu = gauss_hermite_plane(n)
    powers = 2 * np.arange(n)
    x = mu.nodes.real[None, :] ** powers[:, None]
    y = mu.nodes.imag[None, :] ** powers[:, None]
    moments = (x * mu.weights) @ y.T
    odd_double_factorial = np.array([float(math.prod(range(p - 1, 0, -2))) for p in powers])
    exact = np.outer(odd_double_factorial, odd_double_factorial)
    assert np.max(np.abs(moments - exact) / exact) < 1e-13


def test_integrate_linear_and_conjugation_compatible(rng):
    mu = periodic_uniform(37)
    f = lambda x: np.exp(2j * np.pi * 3 * x) + 0.5 * x
    g = lambda x: np.cos(2 * np.pi * x) ** 2
    a, b = 1.7 - 0.3j, -0.8j
    combined = integrate(mu, lambda x: a * f(x) + b * g(x))
    assert combined == pytest.approx(a * integrate(mu, f) + b * integrate(mu, g), abs=1e-14)
    assert integrate(mu, lambda x: np.conj(f(x))) == pytest.approx(
        np.conj(integrate(mu, f)), abs=1e-15
    )


def test_integrate_accepts_samples_and_scalar_callables():
    mu = periodic_uniform(16)
    assert integrate(mu, np.ones(16)) == pytest.approx(1.0, abs=1e-15)
    # a scalar-only callable falls back to node-by-node evaluation
    import math
    val = integrate(mu, lambda x: math.cos(2 * math.pi * x))
    assert abs(val) < 1e-14


def test_integrate_rejects_nodeless_measure():
    with pytest.raises(ValueError):
        integrate(cantor_exact(), lambda x: x)


# -- cantor measure ---------------------------------------------------------

def test_cantor_ifs_atoms_frozen():
    mu1 = cantor_ifs(1)
    assert np.array_equal(mu1.nodes, [0.0, 0.5])
    assert np.array_equal(mu1.weights, [0.5, 0.5])
    mu2 = cantor_ifs(2)
    assert np.array_equal(mu2.nodes, [0.0, 0.125, 0.5, 0.625])


def test_cantor_ifs_depth_guard():
    with pytest.raises(ValueError):
        cantor_ifs(0)
    with pytest.raises(ValueError):
        cantor_ifs(27)


def test_cantor4_fourier_special_values():
    assert cantor4_fourier(0.0) == 1.0
    assert abs(cantor4_fourier(1.0)) < 1e-14
    assert cantor4_fourier(2.0) == pytest.approx(MU_HAT_2, abs=1e-12)


@pytest.mark.parametrize("t", [np.inf, -np.inf, np.nan, [0.0, np.nan]])
def test_cantor4_fourier_rejects_non_finite(t):
    # an infinite frequency never reached the truncation point; NaN returned 1
    with pytest.raises(ValueError, match="finite"):
        cantor4_fourier(t)


def test_cantor4_fourier_cross_oracle_against_ifs():
    mu = cantor_ifs(20)
    for t in (1.0, 2.0, 3.5, 7.0):
        direct = integrate(mu, lambda x, t=t: np.exp(2j * np.pi * t * x))
        assert abs(direct - cantor4_fourier(t)) < 1e-9


def _mu_hat_oracle(t: float) -> complex:
    """prod_j (1 + e^{i pi t / 4^j}) / 2 at 50 digits, cut once a factor is 1e-50 from 1."""
    with mpmath.workdps(50):
        x, out, eps = mpmath.mpf(t), mpmath.mpc(1), mpmath.mpf(10) ** -50
        while abs(x) > eps:
            out *= (1 + mpmath.expjpi(x)) / 2
            x /= 4
        return complex(out)


def test_cantor4_fourier_matches_high_precision_oracle():
    # distinct differences of the level-12 frequencies: base-4 digits in {-1, 0, 1}
    level = 12
    extreme = (4 ** level - 1) // 3
    code = np.random.default_rng(0).integers(0, 3 ** level, size=40)
    drawn = sum(((code // 3 ** i) % 3 - 1) * 4 ** i for i in range(level))
    diffs = np.concatenate([[0, extreme, -extreme, 1, -1, 3, 5, 4 ** 11, -4 ** 11], drawn])
    # frequencies off the difference set, where the transform does not vanish
    generic = np.array([2.0, 0.5, 1 / 3, -7.25, 1000.7, 12345.678, 2 ** 20 + 0.1,
                        2 * 4 ** 10, 6 * 4 ** 5])
    t = np.concatenate([diffs.astype(float), generic])
    got = cantor4_fourier(t)
    want = np.array([_mu_hat_oracle(x) for x in t])
    assert want[0] == 1.0 and np.all(want[1:diffs.size] == 0.0)
    assert np.all(np.abs(want[diffs.size:]) > 1e-7)
    # zeros at the 1e-16 level; elsewhere within the documented 1e-14 tail bound
    assert np.max(np.abs(got[:diffs.size] - want[:diffs.size])) < 1e-15
    assert np.max(np.abs(got[diffs.size:] - want[diffs.size:])) < 1e-14


def test_cantor4_fourier_conjugate_symmetry(rng):
    t = rng.uniform(-50, 50, size=100)
    vals = cantor4_fourier(t)
    flipped = cantor4_fourier(-t)
    assert np.max(np.abs(np.conj(vals) - flipped)) < 1e-15


def test_lambda4_difference_orthogonality_small_level():
    from rkboundary import lambda4_set

    lam = lambda4_set(4)
    diff = (lam[None, :] - lam[:, None]).astype(float)
    vals = np.abs(cantor4_fourier(diff))
    off = vals - np.diag(np.diag(vals))
    assert float(np.max(off)) < 1e-12
    assert np.max(np.abs(np.diag(vals) - 1.0)) == 0.0


# -- pushforward and scaling -------------------------------------------------

def test_pushforward_identity_and_pairing():
    mu = atomic([0, 1, 2, 3], [0.25, 0.25, 0.25, 0.25])
    same = pushforward(mu, {i: i for i in range(4)})
    assert np.array_equal(same.nodes, mu.nodes)
    assert np.array_equal(same.weights, mu.weights)
    paired = pushforward(mu, {0: 0, 1: 0, 2: 1, 3: 1})
    assert paired.nodes.tolist() == [0, 1]
    assert paired.weights.tolist() == [0.5, 0.5]
    assert paired.total_mass == mu.total_mass


def test_pushforward_collapse_and_totality():
    mu = atomic(["a", "b"], [0.25, 0.25])
    merged = pushforward(mu, {"a": "x", "b": "x"})
    assert merged.nodes.tolist() == ["x"]
    assert merged.weights.tolist() == [0.5]
    with pytest.raises(ValueError, match="not total"):
        pushforward(mu, {"a": "x"})


def test_scale_measure():
    mu = periodic_uniform(10)
    assert scale_measure(mu, 1.0).total_mass == pytest.approx(1.0)
    doubled = scale_measure(mu, 2.0)
    assert doubled.total_mass == pytest.approx(2.0, abs=1e-15)
    assert np.array_equal(doubled.nodes, mu.nodes)
    with pytest.raises(ValueError):
        scale_measure(mu, 0.0)
    with pytest.raises(ValueError):
        scale_measure(mu, -1.0)


def test_atomic_rejects_bad_weights():
    with pytest.raises(ValueError):
        atomic([0, 1], [1.0, 0.0])
    with pytest.raises(ValueError):
        atomic([0, 1], [1.0])
