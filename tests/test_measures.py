"""Quadrature measures, the Cantor transform, and pushforwards."""

import math
from fractions import Fraction

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
    periodic_uniform,
    pushforward,
    scale_measure,
)

# independently computed through the depth-20 IFS refinement (agrees to 2.7e-12)
MU_HAT_2 = 0.3463144563497232 + 0.5998342337933138j


def _quad(mu, f):
    """The node/weight rule sum_k w_k f(b_k)."""
    return complex(np.sum(mu.weights * f(mu.nodes)))


# -- quadrature rules -------------------------------------------------------

def test_total_mass_of_probability_measures():
    for mu in (periodic_uniform(64), gauss_hermite_plane(12), cantor_ifs(8),
               band_gauss_legendre(32)):
        assert _quad(mu, lambda b: np.ones_like(b, dtype=float)) == pytest.approx(1.0, abs=1e-14)
        assert mu.total_mass == pytest.approx(1.0, abs=1e-14)


def test_periodic_uniform_annihilates_low_frequencies():
    for n in (8, 16, 64):
        mu = periodic_uniform(n)
        for k in range(1, n):
            val = _quad(mu, lambda x, k=k: np.exp(2j * np.pi * k * x))
            assert abs(val) < 1e-13


def test_gauss_hermite_moments():
    mu = gauss_hermite_plane(20)
    assert _quad(mu, lambda z: np.abs(z) ** 2) == pytest.approx(2.0, abs=1e-12)
    assert _quad(mu, lambda z: z.real ** 2) == pytest.approx(1.0, abs=1e-13)
    assert _quad(mu, lambda z: z.real ** 4) == pytest.approx(3.0, abs=1e-12)
    assert abs(_quad(mu, lambda z: z.real ** 3)) < 1e-13


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


# -- cantor measure ---------------------------------------------------------

def test_cantor_ifs_atoms_frozen():
    mu1 = cantor_ifs(1)
    assert np.array_equal(mu1.nodes, [0.0, 0.5])
    assert np.array_equal(mu1.weights, [0.5, 0.5])
    mu2 = cantor_ifs(2)
    assert np.array_equal(mu2.nodes, [0.0, 0.125, 0.5, 0.625])


@pytest.mark.parametrize("depth", range(1, 11))
def test_cantor_ifs_atoms_are_exact_digit_sums(depth):
    # every atom sum_k d_k 4^-k with d_k in {0, 2}, in increasing order
    exact = sorted(
        sum(Fraction(2 * ((m >> (depth - k)) & 1), 4 ** k) for k in range(1, depth + 1))
        for m in range(2 ** depth)
    )
    assert [Fraction(x) for x in cantor_ifs(depth).nodes.tolist()] == exact


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
        direct = _quad(mu, lambda x, t=t: np.exp(2j * np.pi * t * x))
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


def _cantor4_fourier_reference(t):
    """The product with one temporary per operation, as written before the
    factors were formed in place."""
    s = np.atleast_1d(np.asarray(t, dtype=float)).copy()
    out = np.ones(s.shape, dtype=complex)
    tail = (2.0 * np.pi / 3.0) * float(np.max(np.abs(s)))
    while tail > 1e-15:
        r = np.fmod(s, 2.0)
        out *= 0.5 * (1.0 + np.exp(1j * np.pi * r))
        s *= 0.25
        tail *= 0.25
    return out


def test_cantor4_fourier_in_place_factors_keep_every_bit():
    # the level-10 difference table, its negation and random frequencies out
    # to the level-12 extremes: real and imaginary parts equal bit for bit,
    # signs of zero included
    level = 10
    code = np.arange(3 ** level)
    diffs = sum(((code // 3 ** i) % 3 - 1) * 4 ** i for i in range(level)).astype(float)
    drawn = np.random.default_rng(7).uniform(-1e7, 1e7, size=10 ** 5)
    for t in (diffs, -diffs, drawn, np.array([0.0, -0.0, 1.0, -1.0, 2.0, -2.0])):
        got, want = cantor4_fourier(t), _cantor4_fourier_reference(t)
        assert np.array_equal(got.view(float), want.view(float))
        assert np.array_equal(np.signbit(got.view(float)), np.signbit(want.view(float)))


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


def test_scale_measure_refuses_overflowing_weights():
    mu = atomic([0.0, 0.5], [1e300, 1.0])
    with pytest.raises(ValueError, match="overflows"):
        scale_measure(mu, 1e10)
    # the node-free handle has no weights to overflow; it carries its mass
    assert scale_measure(cantor_exact(), 3.0).total_mass == 3.0


def test_atomic_rejects_bad_weights():
    with pytest.raises(ValueError):
        atomic([0, 1], [1.0, 0.0])
    with pytest.raises(ValueError):
        atomic([0, 1], [1.0])
