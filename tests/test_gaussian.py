"""Gaussian ensembles: factorization, determinism, statistics."""

import numpy as np
import pytest

from conftest import spiral_points

from rkboundary import (
    BargmannKernel,
    Cantor4Kernel,
    ExplicitGramKernel,
    NotPositiveSemidefiniteError,
    SincKernel,
    SzegoKernel,
    build_ensemble,
    build_section,
    covariance_defect,
    empirical_covariance,
    sample,
)


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
    from rkboundary import SampleBatch

    v = np.array([1.0 + 1j, -2.0])
    batch = SampleBatch(samples=np.tile(v, (5, 1)), seed=0, complex_valued=True)
    cov = empirical_covariance(batch)
    assert np.max(np.abs(cov - np.outer(v, np.conj(v)))) < 1e-15


def test_covariance_hermitian_exactly():
    section = build_section(SzegoKernel(), spiral_points(4, 0.2, 0.8))
    cov = empirical_covariance(sample(build_ensemble(section, 9), 500))
    assert np.max(np.abs(cov - cov.conj().T)) == 0.0


def test_covariance_identity_gram_rate():
    section = build_section(ExplicitGramKernel(np.eye(4)), [0, 1, 2, 3])
    n = 40_000
    cov = empirical_covariance(sample(build_ensemble(section, 21), n))
    assert np.max(np.abs(cov - np.eye(4))) < 5.0 / np.sqrt(n)


def test_covariance_needs_two_samples():
    section = build_section(SzegoKernel(), [0.1])
    with pytest.raises(ValueError):
        empirical_covariance(sample(build_ensemble(section, 1), 1))


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
