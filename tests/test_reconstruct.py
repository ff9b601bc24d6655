"""Frequency sets, cardinal-series interpolation, Cantor-basis coefficients."""

import math

import numpy as np
import pytest

import rkboundary.reconstruct

from rkboundary import (
    lambda4_set,
    parseval_table,
    shannon_reconstruct,
)
from conftest import block_rows, cli_process_peak

from rkboundary.cli import parse_config, run
from rkboundary.measures import cantor4_fourier
from rkboundary.reconstruct import MAX_EXACT_LEVEL, lambda4_frequency_columns


def _every_difference(level):
    """The frequency matrix evaluated entry by entry, all 4**level at once."""
    lam = lambda4_set(level)
    return lam, cantor4_fourier((lam[None, :] - lam[:, None]).astype(float))


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
    # 3**13 table entries and 4**13 gathered ones are refused before the first block
    with pytest.raises(ValueError, match="at most 12"):
        next(lambda4_frequency_columns(MAX_EXACT_LEVEL + 1))


@pytest.mark.parametrize("level", range(1, 10))
def test_frequency_matrix_equals_transform_of_every_difference(level):
    # the column blocks tile M in order and reproduce the full evaluation bit for bit
    _, inner = _every_difference(level)
    blocks = list(lambda4_frequency_columns(level))
    assert [c for cols, _ in blocks for c in range(cols.start, cols.stop)] == list(
        range(2 ** level))
    assert np.array_equal(np.concatenate([b for _, b in blocks], axis=1), inner)


def test_lambda4_digit_recursion():
    members = set(lambda4_set(12).tolist())
    for lam in lambda4_set(10).tolist():
        assert 4 * lam in members
        assert 4 * lam + 1 in members
    for value in (2, 3, 6, 7, 130):
        assert value not in members


# -- cardinal series ----------------------------------------------------------

def _sinc_samples(support, shift=0.3):
    """Samples of sinc(. - shift) at -support..support."""
    return np.sinc(np.arange(-support, support + 1) - shift)


def test_shannon_exact_at_stored_integers():
    samples = _sinc_samples(50)
    for n in (-50, -3, 0, 7, 50):
        assert shannon_reconstruct(samples, float(n)) == samples[n + 50]


def test_shannon_zero_samples():
    assert shannon_reconstruct(np.zeros(21), 0.4) == 0.0
    assert shannon_reconstruct(np.zeros(1), 1.3) == 0.0


def test_shannon_truncated_error_bound():
    t = np.arange(-2.0, 2.0001, 0.05)
    err = np.abs(shannon_reconstruct(_sinc_samples(200), t) - np.sinc(t - 0.3))
    assert float(np.max(err)) < 2e-3


@pytest.mark.parametrize("samples", [np.zeros(4), np.zeros((3, 3)), np.zeros(0)],
                         ids=["even-length", "2-d", "empty"])
def test_shannon_rejects_unaligned_samples(samples):
    # only an odd-length row f(-S), ..., f(S) is aligned with the integers
    with pytest.raises(ValueError):
        shannon_reconstruct(samples, 0.1)


@pytest.mark.parametrize("support", [3, 30, 300, 1000, 3000])
def test_blocked_shannon_matches_one_shot(support, rng):
    ns = np.arange(-support, support + 1, dtype=float)
    width = ns.shape[0]
    vals = rng.standard_normal(width) + 1j * rng.standard_normal(width)
    eps = np.finfo(float).eps
    # a block holds the evaluation beside up to three scratch arrays
    full = block_rows(4 * width)
    for count in (1, 2, full - 1, full, full + 1, 2 * full + 1):
        # off the integers, so no stored sample replaces a series value
        t = rng.uniform(-support - 2, support + 2, size=count)
        assert not np.any(t == np.rint(t))
        terms = vals * np.sinc(t[:, None] - ns[None, :])
        exact = np.array([complex(math.fsum(r.real), math.fsum(r.imag)) for r in terms])
        # A complex sample times a real sinc value rounds each part of the
        # product once, so each part of a term is within u |p_k| of the exact
        # product p_k (u = eps / 2), here and in the series alike.  All width
        # terms of a point lie in one block, so the series passes each part
        # through one product and at most width - 1 additions: each of its
        # real and imaginary sums is within gamma_width <= width u (1 + 1e-9)
        # times that part's sum of |p_k| of the exact sum.  The rounded terms
        # here add u of the same, and fsum rounds each part once more, within
        # u.  The parts' sums of moduli total at most sqrt(2) sum_k |p_k|, so
        # |series - exact| <= sqrt(2) (width + 2) u (1 + 1e-9) sum_k |p_k|,
        # below (width + 1) eps sum_k |t_k| for width >= 5.
        bound = (width + 1) * eps * np.sum(np.abs(terms), axis=-1)
        got = shannon_reconstruct(vals, t)
        assert np.all(np.abs(got - exact) <= bound), count
        if count == 1:
            assert shannon_reconstruct(vals, t[0]) == got[0]


def test_shannon_process_peak(tmp_path):
    # the default 401-point grid against 2001 samples held its whole sinc
    # matrix and temporaries at once: the process peaked at about 56 MB
    code, max_rss_kb = cli_process_peak("shannon", "--out", str(tmp_path / "shannon.json"))
    assert code == 0
    assert max_rss_kb < 45_000


@pytest.mark.parametrize("level", [1, 6, 9, 10])
def test_blocked_cantor_onb_gaps_match_full_matrix(level):
    # levels 9 and 10 gather the frequency matrix in 4 and 16 column blocks
    lam, inner = _every_difference(level)
    off = np.abs(inner - np.eye(lam.shape[0]))
    max_diag = np.max(np.diag(off))
    np.fill_diagonal(off, 0.0)
    row_max = np.max(off, axis=1)
    report = run(parse_config(["cantor-onb", "--level", str(level)]))
    assert report["scalars"]["max_diagonal_gap"] == max_diag
    assert report["scalars"]["max_offdiagonal"] == np.max(row_max)
    assert report["tables"]["row_max_offdiagonal"]["rows"] == [
        [int(f), float(m)] for f, m in zip(lam, row_max)]


def test_cantor_onb_process_peak(tmp_path):
    # the level-12 frequency matrix has 4**12 complex entries (268 MB); holding
    # it and |M - I| at once took the process to about 690 MB
    code, max_rss_kb = cli_process_peak("cantor-onb", "--level", "12",
                                        "--out", str(tmp_path / "cantor-onb.json"))
    assert code == 0
    assert max_rss_kb < 120_000


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
    rows = parseval_table(2, 12)
    defects = [d for _, d in rows]
    assert all(-1e-10 <= d <= 1.0 for d in defects)
    assert all(b <= a for a, b in zip(defects, defects[1:]))
    assert [level for level, _ in rows] == list(range(1, 13))


def test_parseval_table_matches_pointwise_defect():
    rows = dict(parseval_table(2, 8))
    for level in (2, 5, 8):
        assert rows[level] == pytest.approx(_parseval_defect(2, level), abs=1e-13)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 63, -7])
@pytest.mark.parametrize("max_level", [1, 2, 5, 12])
def test_parseval_table_reads_one_frequency_set(k, max_level, monkeypatch):
    # one set of the largest level, sliced per level, sums the same terms in
    # the same order as a set rebuilt at every level
    calls = []
    original = rkboundary.reconstruct.lambda4_set

    def spy(level):
        calls.append(level)
        return original(level)

    monkeypatch.setattr(rkboundary.reconstruct, "lambda4_set", spy)
    rows = parseval_table(k, max_level)
    assert calls == [max_level]
    expected, total = [], 0.0
    for level in range(1, max_level + 1):
        fresh = original(level)[2 ** (level - 1) if level > 1 else 0:]
        total += float(np.sum(np.abs(cantor4_fourier(float(k) - fresh.astype(float))) ** 2))
        expected.append((level, 1.0 - total))
    assert rows == expected


def test_parseval_level_guard():
    with pytest.raises(ValueError):
        parseval_table(2, 15)
    with pytest.raises(ValueError):
        parseval_table(2, 0)
