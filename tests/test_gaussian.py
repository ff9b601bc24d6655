"""Gaussian ensembles: factorization, determinism, statistics."""

import json
import tracemalloc

import numpy as np
import pytest

from conftest import cli_process_peak, spiral_points

from rkboundary import (
    BargmannKernel,
    Cantor4Kernel,
    ExplicitGramKernel,
    GaussianEnsemble,
    NotPositiveSemidefiniteError,
    SincKernel,
    SzegoKernel,
    build_ensemble,
    build_section,
    covariance_defect,
    empirical_covariance,
    sample,
)
from rkboundary.cli import main
from rkboundary.gaussian import SAMPLE_BLOCK


def zoo_sections():
    yield build_section(SzegoKernel(), spiral_points(5, 0.2, 0.85))
    yield build_section(BargmannKernel(), spiral_points(5, 0.5, 2.0))
    yield build_section(Cantor4Kernel(level=5), spiral_points(5, 0.3, 0.85))
    yield build_section(SincKernel(), [-2.0, -1.0, 0.0, 1.0, 2.0])


# -- factorization ----------------------------------------------------------

def test_identity_gram_factor():
    section = build_section(ExplicitGramKernel(np.eye(3)), [0, 1, 2])
    ensemble = build_ensemble(section, 0)
    assert np.array_equal(ensemble.factor, np.eye(3))


def test_rank_one_gram_has_one_nonzero_column():
    kernel = ExplicitGramKernel(np.array([[1.0, 1.0], [1.0, 1.0]]))
    section = kernel.gram([0, 1])
    # bypass the duplicate check: the two indices are genuinely indistinguishable,
    # so factor the matrix directly through the ensemble of a 1-point section plus
    # the raw pivoted factorization
    from rkboundary import pivoted_cholesky

    factor, pivots, rank = pivoted_cholesky(section)
    assert rank == 1
    nonzero_columns = np.sum(np.any(factor != 0, axis=0))
    assert nonzero_columns == 1
    assert np.max(np.abs(factor @ factor.conj().T - section)) < 1e-14


def test_refactorization_all_zoo_sections():
    for section in zoo_sections():
        ensemble = build_ensemble(section, 7)
        gap = np.max(np.abs(ensemble.factor @ ensemble.factor.conj().T - section.gram))
        scale = float(np.max(np.real(np.diag(section.gram))))
        assert gap < 1e-12 * max(scale, 1.0), section.kernel.name
        assert ensemble.factor_residual == gap, section.kernel.name


def test_indefinite_gram_rejected():
    with pytest.raises(NotPositiveSemidefiniteError):
        from rkboundary import pivoted_cholesky

        pivoted_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


# -- sampling ---------------------------------------------------------------

def one_shot_draws(ensemble, count):
    """z of a whole (count, n) batch, drawn in one request from a fresh stream."""
    rng = np.random.default_rng(ensemble.seed)
    n = ensemble.section.size
    if ensemble.complex_valued:
        z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        z /= np.sqrt(2.0)
        return z
    return rng.standard_normal((count, n))


COMPLEX_AND_REAL = pytest.mark.parametrize("kernel, points", [
    (SzegoKernel(), spiral_points(7, 0.2, 0.85)),
    (SincKernel(), [-2.0, -0.5, 0.0, 1.0, 2.5]),
], ids=["complex", "real"])


@COMPLEX_AND_REAL
@pytest.mark.parametrize("count", [2, 100, SAMPLE_BLOCK + 1, 2 * SAMPLE_BLOCK + 37])
def test_sample_matches_one_shot_draws(kernel, points, count):
    ensemble = build_ensemble(build_section(kernel, points), 17)
    batch = sample(ensemble, count)
    assert batch.samples.shape == (count, len(points))
    assert np.array_equal(batch.samples, one_shot_draws(ensemble, count) @ ensemble.factor.T)


def test_sample_determinism():
    section = build_section(SzegoKernel(), spiral_points(4, 0.2, 0.8))
    ensemble = build_ensemble(section, 123)
    a = sample(ensemble, 50)
    b = sample(ensemble, 50)
    assert np.array_equal(a.samples, b.samples)
    other = sample(build_ensemble(section, 124), 50)
    assert not np.array_equal(a.samples, other.samples)


def test_zero_gram_samples_are_zero():
    kernel = ExplicitGramKernel(np.zeros((1, 1)))
    section = build_section(kernel, [0])
    batch = sample(build_ensemble(section, 5), 1)
    assert np.array_equal(batch.samples, np.zeros((1, 1)))


def test_real_kernel_gets_real_samples():
    section = build_section(SincKernel(), [-1.0, 0.0, 1.0])
    batch = sample(build_ensemble(section, 3), 10)
    assert not batch.complex_valued
    assert not np.iscomplexobj(batch.samples)


def test_sample_count_validation():
    section = build_section(SzegoKernel(), [0.1])
    with pytest.raises(ValueError):
        sample(build_ensemble(section, 0), 0)


def test_empirical_mean_bound():
    section = build_section(SzegoKernel(), spiral_points(5, 0.2, 0.85))
    batch = sample(build_ensemble(section, 11), 100_000)
    mean = batch.samples.mean(axis=0)
    bound = 4.0 * np.sqrt(np.real(np.diag(section.gram)) / batch.count)
    assert np.all(np.abs(mean) < bound)


# -- empirical covariance ----------------------------------------------------

def test_covariance_of_repeated_vector():
    # a factor whose only column is v makes every sample a multiple z_k v of
    # v, so the covariance is mean |z_k|^2 times v v*
    v = np.array([1.0 + 1j, -2.0])
    gram = np.outer(v, np.conj(v))
    section = build_section(ExplicitGramKernel(gram), [0, 1])
    factor = np.column_stack([v, np.zeros(2)])
    ensemble = GaussianEnsemble(section=section, factor=factor, seed=0,
                                complex_valued=True, factor_residual=0.0)
    count = 5
    z = one_shot_draws(ensemble, count)[:, 0]
    cov = empirical_covariance(ensemble, count)
    assert np.max(np.abs(cov - np.mean(np.abs(z) ** 2) * gram)) < 1e-15


def test_covariance_hermitian_exactly():
    section = build_section(SzegoKernel(), spiral_points(4, 0.2, 0.8))
    cov = empirical_covariance(build_ensemble(section, 9), 500)
    assert np.max(np.abs(cov - cov.conj().T)) == 0.0


def test_covariance_identity_gram_rate():
    section = build_section(ExplicitGramKernel(np.eye(4)), [0, 1, 2, 3])
    n = 40_000
    cov = empirical_covariance(build_ensemble(section, 21), n)
    assert np.max(np.abs(cov - np.eye(4))) < 5.0 / np.sqrt(n)


def test_covariance_needs_two_samples():
    section = build_section(SzegoKernel(), [0.1])
    with pytest.raises(ValueError):
        empirical_covariance(build_ensemble(section, 1), 1)


@COMPLEX_AND_REAL
@pytest.mark.parametrize("count", [2, SAMPLE_BLOCK, SAMPLE_BLOCK + 1, 3 * SAMPLE_BLOCK + 5])
def test_streamed_covariance_matches_whole_batch(kernel, points, count):
    ensemble = build_ensemble(build_section(kernel, points), 8)
    s = sample(ensemble, count).samples
    whole = s.T @ np.conj(s) / count
    streamed = empirical_covariance(ensemble, count)
    assert np.max(np.abs(streamed - whole)) <= 1e-13 * np.max(np.abs(whole))


@pytest.mark.parametrize("kernel, points", [
    (SzegoKernel(), spiral_points(60, 0.2, 0.9)),
    (SincKernel(), 0.37 * np.arange(60) - 11.0),
], ids=["complex", "real"])
def test_covariance_never_holds_the_batch(kernel, points):
    # the real parts of 100k draws over 60 points alone take 45.8 MiB; the
    # covariance may hold a quarter of that, complex or real
    ensemble = build_ensemble(build_section(kernel, points), 2)
    count = 100_000
    tracemalloc.start()
    try:
        empirical_covariance(ensemble, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * count * len(points) * 8


def test_complex_gp_process_peak(tmp_path):
    # a 60-point complex gp at 100k samples; holding the real parts of the
    # draws took about 100 MB
    code, max_rss_kb = cli_process_peak("gp", "--kernel", "bargmann", "--points", "grid60",
                                        "--samples", "100000", "--out", str(tmp_path / "gp.json"))
    assert code == 0
    assert max_rss_kb < 70_000


# -- covariance defect -------------------------------------------------------

def test_defect_zoo_statistical():
    for section in zoo_sections():
        ensemble = build_ensemble(section, 42)
        assert covariance_defect(ensemble, 100_000) < 0.05, section.kernel.name


def test_defect_zero_gram_guarded():
    section = build_section(ExplicitGramKernel(np.zeros((1, 1))), [0])
    assert covariance_defect(build_ensemble(section, 1), 10) == 0.0


def test_defect_decreases_with_more_samples():
    section = build_section(SzegoKernel(), spiral_points(5, 0.2, 0.85))
    small, large = [], []
    for seed in range(10):
        ensemble = build_ensemble(section, seed)
        small.append(covariance_defect(ensemble, 100))
        large.append(covariance_defect(ensemble, 10_000))
    assert np.mean(large) < np.mean(small)


def test_marginal_subblocks_match_subgrams():
    for section in zoo_sections():
        ensemble = build_ensemble(section, 1)
        product = ensemble.factor @ ensemble.factor.conj().T
        for m in (1, 2, 3, 5):
            assert np.max(np.abs(product[:m, :m] - section.gram[:m, :m])) < 1e-12


def test_gp_on_empty_section(capsys):
    assert main(["gp", "--points", "grid0"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["scalars"]["covariance_defect"] == 0.0
    assert doc["scalars"]["sample_count"] == 100_000
    assert doc["tables"]["entry_errors"]["rows"] == []
