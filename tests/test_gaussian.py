"""Gaussian ensembles: factorization, determinism, statistics."""

import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from conftest import SRC, cli_process_peak, spiral_points

from rkboundary import (
    BargmannKernel,
    Cantor4Kernel,
    ExplicitFeatureKernel,
    GaussianEnsemble,
    NotPositiveSemidefiniteError,
    SincKernel,
    SzegoKernel,
    build_ensemble,
    build_section,
    covariance_gap,
    empirical_covariance,
    sample,
)
from rkboundary.cli import main


def zoo_sections():
    yield build_section(SzegoKernel(), spiral_points(5, 0.2, 0.85))
    yield build_section(BargmannKernel(), spiral_points(5, 0.5, 2.0))
    yield build_section(Cantor4Kernel(level=5), spiral_points(5, 0.3, 0.85))
    yield build_section(SincKernel(), [-2.0, -1.0, 0.0, 1.0, 2.0])


# -- factorization ----------------------------------------------------------

def test_identity_gram_factor():
    section = build_section(ExplicitFeatureKernel(np.eye(3)), [0, 1, 2])
    ensemble = build_ensemble(section, 0)
    assert np.array_equal(ensemble.factor, np.eye(3))


def test_rank_one_gram_has_one_nonzero_column():
    kernel = ExplicitFeatureKernel(np.array([[1.0], [1.0]]))  # the all-ones Gram
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
    """z of a whole (count, n) batch, drawn in one request from a fresh stream;
    a complex sample takes its n real parts, then its n imaginary parts."""
    rng = np.random.default_rng(ensemble.seed)
    n = ensemble.section.size
    if ensemble.complex_valued:
        parts = rng.standard_normal((count, 2, n))
        return (parts[:, 0] + 1j * parts[:, 1]) / np.sqrt(2.0)
    return rng.standard_normal((count, n))


COMPLEX_AND_REAL = pytest.mark.parametrize("kernel, points", [
    (SzegoKernel(), spiral_points(7, 0.2, 0.85)),
    (SincKernel(), [-2.0, -0.5, 0.0, 1.0, 2.5]),
], ids=["complex", "real"])


@COMPLEX_AND_REAL
@pytest.mark.parametrize("count", [2, 100, 4097, 8229])
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
    kernel = ExplicitFeatureKernel(np.zeros((1, 1)))  # the zero Gram
    section = build_section(kernel, [0])
    batch = sample(build_ensemble(section, 5), 1)
    assert np.array_equal(batch.samples, np.zeros((1, 1)))


def test_real_kernel_gets_real_samples():
    section = build_section(SincKernel(), [-1.0, 0.0, 1.0])
    batch = sample(build_ensemble(section, 3), 10)
    assert not np.iscomplexobj(batch.samples)


def test_sample_count_validation():
    section = build_section(SzegoKernel(), [0.1])
    with pytest.raises(ValueError):
        sample(build_ensemble(section, 0), 0)


def test_empirical_mean_bound():
    section = build_section(SzegoKernel(), spiral_points(5, 0.2, 0.85))
    batch = sample(build_ensemble(section, 11), 100_000)
    mean = batch.samples.mean(axis=0)
    bound = 4.0 * np.sqrt(np.real(np.diag(section.gram)) / batch.samples.shape[0])
    assert np.all(np.abs(mean) < bound)


# -- empirical covariance ----------------------------------------------------

def test_covariance_of_repeated_vector():
    # a factor whose only column is v makes every sample a multiple z_k v of
    # v, so the covariance is c v v* with c = mean |z_k|^2; the entries of v
    # make every product exact
    v = np.array([1.0 + 1j, -2.0])
    gram = np.outer(v, np.conj(v))
    section = build_section(ExplicitFeatureKernel(np.conj(v)[:, None]), [0, 1])
    factor = np.column_stack([v, np.zeros(2)])
    for seed in range(20):
        for count in (2, 5, 1000):
            ensemble = GaussianEnsemble(section=section, factor=factor, seed=seed,
                                        complex_valued=True, factor_residual=0.0)
            cov = empirical_covariance(ensemble, count)
            c = cov[1, 1].real / 4.0
            assert c >= 0.0
            assert np.array_equal(cov, c * gram)


def test_covariance_hermitian_exactly():
    section = build_section(SzegoKernel(), spiral_points(4, 0.2, 0.8))
    cov = empirical_covariance(build_ensemble(section, 9), 500)
    assert np.max(np.abs(cov - cov.conj().T)) == 0.0


def test_covariance_identity_gram_rate():
    section = build_section(ExplicitFeatureKernel(np.eye(4)), [0, 1, 2, 3])
    n = 40_000
    cov = empirical_covariance(build_ensemble(section, 21), n)
    assert np.max(np.abs(cov - np.eye(4))) < 5.0 / np.sqrt(n)


def test_covariance_needs_two_samples():
    section = build_section(SzegoKernel(), [0.1])
    with pytest.raises(ValueError):
        empirical_covariance(build_ensemble(section, 1), 1)


@pytest.mark.parametrize("count", [2, 7])
@pytest.mark.parametrize("complex_valued", [True, False], ids=["complex", "real"])
def test_second_moment_law(complex_valued, count):
    # W = sum_k z z* over N draws z ~ N(0, I_3): E W_ii = N, E|W_ij|^2 = N for
    # i != j, and Var W_ii = 2N for real draws, N for complex ones, at N below
    # and above the dimension alike; the factor I makes the estimate W / N
    section = build_section(ExplicitFeatureKernel(np.eye(3)), [0, 1, 2])
    ensemble = GaussianEnsemble(section=section, factor=np.eye(3), seed=0,
                                complex_valued=complex_valued, factor_residual=0.0)
    seeds = 3000
    diag, spread, off = [], [], []
    rows, cols = np.triu_indices(3, 1)
    for seed in range(seeds):
        w = count * empirical_covariance(dataclasses.replace(ensemble, seed=seed), count)
        d = np.real(np.diag(w))
        diag.append(d.mean())
        spread.append(np.mean((d - count) ** 2))
        off.append(np.mean(np.abs(w[rows, cols]) ** 2))
    variance = count if complex_valued else 2 * count
    for values, expected in ((diag, count), (spread, variance), (off, count)):
        error = np.std(values) / np.sqrt(seeds)
        assert abs(np.mean(values) - expected) < 5.0 * error


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance between empirical distributions."""
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    fb = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


@COMPLEX_AND_REAL
@pytest.mark.parametrize("count", [2, 7])
def test_covariance_law_matches_sample_batches(kernel, points, count):
    # the covariances of N = count draws of sample(), on seeds disjoint from
    # those of the drawn second moment, must have the same law: KS distance
    # of the defect and of two off-diagonal entries below the 0.1% critical value
    section = build_section(kernel, points[:3])
    ensemble = build_ensemble(section, 0)
    seeds = 2000
    drawn, sampled = [], []
    for seed in range(seeds):
        cov = empirical_covariance(dataclasses.replace(ensemble, seed=seed), count)
        x = sample(dataclasses.replace(ensemble, seed=seeds + seed), count).samples
        for out, c in ((drawn, cov), (sampled, x.T @ np.conj(x) / count)):
            out.append((covariance_gap(c, section.gram), np.real(c[0, 1]), np.imag(c[0, 2])))
    critical = np.sqrt(-0.5 * np.log(0.0005)) * np.sqrt(2.0 / seeds)
    drawn, sampled = np.array(drawn), np.array(sampled)
    for k in range(drawn.shape[1]):
        assert ks_statistic(drawn[:, k], sampled[:, k]) < critical


class CountingGenerator:
    """A generator that counts the normals and chi-squares asked of it."""

    def __init__(self, rng):
        self.rng = rng
        self.normals = 0
        self.chisquares = 0

    def standard_normal(self, size=None, *args, **kwargs):
        self.normals += int(np.prod(size))
        return self.rng.standard_normal(size, *args, **kwargs)

    def chisquare(self, df, size=None):
        self.chisquares += int(np.size(df) if size is None else np.prod(size))
        return self.rng.chisquare(df, size)

    def __getattr__(self, name):
        return getattr(self.rng, name)


@COMPLEX_AND_REAL
def test_covariance_draws_do_not_grow_with_samples(kernel, points, monkeypatch):
    # one generator per call, and d min(d, N) normals with d = n real parts
    # (2n complex), however many samples it stands for
    ensemble = build_ensemble(build_section(kernel, points), 5)
    d = len(points) * (2 if ensemble.complex_valued else 1)
    made = []
    default_rng = np.random.default_rng

    def spy(*args, **kwargs):
        made.append(CountingGenerator(default_rng(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", spy)
    for count in (2, 1000, 100_000):
        made.clear()
        empirical_covariance(ensemble, count)
        assert len(made) == 1
        assert made[0].normals == d * min(d, count)
        assert made[0].chisquares == min(d, count)


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
    assert max_rss_kb < 44_000


@pytest.mark.parametrize("count", [10 ** 12, 2 ** 53])
def test_gp_any_sample_count_ends_quickly(count):
    # the drawn second moment costs the same for every count up to the 2^53
    # bound of gp --samples, where the float chi-square degrees of freedom
    # are still the integers N - k
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-m", "rkboundary", "gp", "--samples", str(count)],
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 0, done.stderr
    doc = json.loads(done.stdout)
    assert doc["scalars"]["sample_count"] == count
    assert doc["config"]["samples"] == count


# -- covariance defect -------------------------------------------------------

def test_defect_zoo_statistical():
    for section in zoo_sections():
        cov = empirical_covariance(build_ensemble(section, 42), 100_000)
        assert covariance_gap(cov, section.gram) < 0.05, section.kernel.name


def test_defect_zero_gram_guarded():
    section = build_section(ExplicitFeatureKernel(np.zeros((1, 1))), [0])
    cov = empirical_covariance(build_ensemble(section, 1), 10)
    assert covariance_gap(cov, section.gram) == 0.0


def test_defect_decreases_with_more_samples():
    section = build_section(SzegoKernel(), spiral_points(5, 0.2, 0.85))
    small, large = [], []
    for seed in range(10):
        ensemble = build_ensemble(section, seed)
        small.append(covariance_gap(empirical_covariance(ensemble, 100), section.gram))
        large.append(covariance_gap(empirical_covariance(ensemble, 10_000), section.gram))
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
