"""Frequency sets, cardinal-series interpolation, Cantor-basis coefficients."""

import numpy as np
import pytest

from rkboundary import (
    lambda4_set,
    parseval_table,
    shannon_reconstruct,
)
from conftest import block_rows, cli_process_peak

from rkboundary.measures import cantor4_fourier
from rkboundary.reconstruct import MAX_EXACT_LEVEL, lambda4_frequency_matrix


# -- frequency set ------------------------------------------------------------

def test_lambda4_first_levels():
    assert lambda4_set(1).tolist() == [0, 1]
    assert lambda4_set(2).tolist() == [0, 1, 4, 5]
    assert lambda4_set(4)[:10].tolist() == [0, 1, 4, 5, 16, 17, 20, 21, 64, 65]


def test_lambda4_cardinality_sorted_unique():
    for level in (1, 3, 7, 12):
        lam = lambda4_set(level)
        assert lam.shape == (2 ** level,)
        assert np.all(np.diff(lam) > 0)
        assert all(set(np.base_repr(x, 4)) <= {"0", "1"} for x in lam.tolist())


def test_lambda4_level_guard():
    with pytest.raises(ValueError):
        lambda4_set(0)
    with pytest.raises(ValueError):
        lambda4_set(21)


def test_frequency_matrix_level_guard():
    # 4**13 complex entries would need over a gigabyte; refused up front
    with pytest.raises(ValueError, match="at most 12"):
        lambda4_frequency_matrix(MAX_EXACT_LEVEL + 1)


@pytest.mark.parametrize("level", range(1, 10))
def test_frequency_matrix_equals_transform_of_every_difference(level):
    # the table of distinct differences must reproduce the full evaluation bit for bit
    lam, inner = lambda4_frequency_matrix(level)
    assert np.array_equal(lam, lambda4_set(level))
    assert np.array_equal(inner, cantor4_fourier((lam[None, :] - lam[:, None]).astype(float)))


def test_lambda4_digit_recursion():
    members = set(lambda4_set(12).tolist())
    for lam in lambda4_set(10).tolist():
        assert 4 * lam in members
        assert 4 * lam + 1 in members
    for value in (2, 3, 6, 7, 130):
        assert value not in members


# -- cardinal series ----------------------------------------------------------

def test_shannon_exact_at_stored_integers():
    samples = {n: float(np.sinc(n - 0.3)) for n in range(-50, 51)}
    for n in (-50, -3, 0, 7, 50):
        assert shannon_reconstruct(samples, float(n)) == samples[n]


def test_shannon_zero_samples():
    samples = {n: 0.0 for n in range(-10, 11)}
    assert shannon_reconstruct(samples, 0.4) == 0.0
    assert shannon_reconstruct({}, 1.3) == 0.0


def test_shannon_truncated_error_bound():
    support = 200
    samples = {n: float(np.sinc(n - 0.3)) for n in range(-support, support + 1)}
    t = np.arange(-2.0, 2.0001, 0.05)
    err = np.abs(shannon_reconstruct(samples, t) - np.sinc(t - 0.3))
    assert float(np.max(err)) < 2e-3


def test_shannon_rejects_non_integer_support():
    with pytest.raises(ValueError):
        shannon_reconstruct({0.5: 1.0}, 0.1)


@pytest.mark.parametrize("support", [3, 30, 300, 1000, 3000])
def test_blocked_shannon_matches_one_shot(support, rng):
    ns = np.arange(-support, support + 1, dtype=float)
    vals = rng.standard_normal(ns.shape) + 1j * rng.standard_normal(ns.shape)
    samples = dict(zip(range(-support, support + 1), vals))
    full = block_rows(ns.shape[0])
    for count in (1, 2, full - 1, full, full + 1, 2 * full + 1):
        # off the integers, so no stored sample replaces a series value
        t = rng.uniform(-support - 2, support + 2, size=count)
        assert not np.any(t == np.rint(t))
        one_shot = np.sinc(t[:, None] - ns[None, :]) @ vals
        assert np.array_equal(shannon_reconstruct(samples, t), one_shot), count


def test_shannon_process_peak(tmp_path):
    # the default 401-point grid against 2001 samples held its whole sinc
    # matrix and temporaries at once: the process peaked at about 56 MB
    code, max_rss_kb = cli_process_peak("shannon", "--out", str(tmp_path / "shannon.json"))
    assert code == 0
    assert max_rss_kb < 45_000


# -- completeness diagnostics --------------------------------------------------

def _parseval_defect(k: int, level: int) -> float:
    """1 - sum |mu_hat(k - lambda)|^2 over the level-L frequencies, in one sum."""
    amp = cantor4_fourier(float(k) - lambda4_set(level).astype(float))
    return float(1.0 - np.sum(np.abs(amp) ** 2))


def test_parseval_defect_zero_for_members():
    lam = lambda4_set(6)
    for k in (0, 1, 20, int(lam[-1])):
        assert abs(parseval_table(k, 6)[-1][1]) < 1e-12


def test_parseval_defect_monotone_and_bounded():
    rows = parseval_table(2, 12, min_level=2)
    defects = [d for _, d in rows]
    assert all(-1e-10 <= d <= 1.0 for d in defects)
    assert all(b <= a for a, b in zip(defects, defects[1:]))
    assert rows[0][0] == 2 and rows[-1][0] == 12


def test_parseval_table_matches_pointwise_defect():
    rows = dict(parseval_table(2, 8))
    for level in (2, 5, 8):
        assert rows[level] == pytest.approx(_parseval_defect(2, level), abs=1e-13)


def test_parseval_level_guard():
    with pytest.raises(ValueError):
        parseval_table(2, 15)
