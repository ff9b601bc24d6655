"""Gaussian ensembles whose covariance is a section's Gram matrix.

These are the finite-dimensional marginals of the process boundary: a
zero-mean Gaussian vector indexed by the section's points with covariance
G_ij = K(s_i, s_j).  Real-symmetric kernels get real samples; everything else
gets circularly symmetric complex samples so the second-moment identity
E[x x*] = G holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import NotPositiveSemidefiniteError, pivoted_cholesky
from .kernels import Section

__all__ = [
    "FACTOR_TOL",
    "SAMPLE_BLOCK",
    "GaussianEnsemble",
    "SampleBatch",
    "build_ensemble",
    "sample",
    "empirical_covariance",
    "covariance_gap",
    "covariance_defect",
]

FACTOR_TOL = 1e-10

# Rows per block of draws: 4096 rows of a 60-point section take 1.97 MB.
SAMPLE_BLOCK = 4096


@dataclass(frozen=True, eq=False)
class GaussianEnsemble:
    """Zero-mean Gaussian model over a section, with covariance factor L (G = L L*).

    ``factor_residual`` is the refactorization gap max |L L* - G|.
    """

    section: Section
    factor: np.ndarray
    seed: int
    complex_valued: bool
    factor_residual: float


@dataclass(frozen=True, eq=False)
class SampleBatch:
    """Batch of section-indexed sample vectors, reproducible from (seed, count)."""

    samples: np.ndarray
    seed: int
    complex_valued: bool

    @property
    def count(self) -> int:
        return int(self.samples.shape[0])


def build_ensemble(section: Section, seed: int) -> GaussianEnsemble:
    """Factor the Gram matrix for sampling.

    The factor comes from a pivoted semidefinite Cholesky, so rank deficiency
    shows up as zero columns rather than a failure; an indefinite Gram is
    rejected.  The refactorization residual is checked against FACTOR_TOL.
    """
    g = section.gram
    factor, _, _ = pivoted_cholesky(g)
    gap = 0.0
    if section.size:
        scale = float(np.max(np.real(np.diag(g))))
        gap = float(np.max(np.abs(factor @ factor.conj().T - g)))
        if gap > FACTOR_TOL * max(scale, 1.0):
            raise NotPositiveSemidefiniteError(f"factorization residual {gap:.3e} too large")
    complex_valued = not section.kernel.is_real
    if not complex_valued:
        factor = np.real(factor)
    return GaussianEnsemble(
        section=section, factor=factor, seed=int(seed), complex_valued=complex_valued,
        factor_residual=gap,
    )


def sample(ensemble: GaussianEnsemble, count: int) -> SampleBatch:
    """Draw ``count`` vectors x = L z with iid standard normal z.

    In the complex case z is circularly symmetric with unit second absolute
    moment and vanishing pseudo-covariance, so E[x x*] equals the Gram matrix.
    Identical (seed, count) reproduce the batch bit for bit.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(ensemble.seed)
    n = ensemble.section.size
    if ensemble.complex_valued:
        z = rng.standard_normal((count, n)) + 1j * rng.standard_normal((count, n))
        z /= np.sqrt(2.0)
    else:
        z = rng.standard_normal((count, n))
    return SampleBatch(
        samples=z @ ensemble.factor.T,
        seed=ensemble.seed,
        complex_valued=ensemble.complex_valued,
    )


def empirical_covariance(ensemble: GaussianEnsemble, count: int) -> np.ndarray:
    """(1/N) sum_k x x* over the ``count`` samples x = L z that :func:`sample`
    draws, symmetrized so Hermitian symmetry holds exactly.

    It is computed as L W L* from the second moment W = (1/N) sum_k z z* of
    the draws, which is accumulated in real arithmetic one block of at most
    SAMPLE_BLOCK rows at a time: with z = (a + ib)/sqrt(2),
    2 sum z z* = sum (a a^T + b b^T) + i (X - X^T) with X = sum b a^T.
    The seeded stream draws every real part before the first imaginary part,
    so in the complex case a second generator on the same seed draws the
    real parts again beside the imaginary parts of the first.  Neither the
    ``(count, n)`` draws nor a complex block is ever held.
    """
    if count < 2:
        raise ValueError("need at least two samples")
    n = ensemble.section.size
    blocks = [min(SAMPLE_BLOCK, count - start) for start in range(0, count, SAMPLE_BLOCK)]
    rng = np.random.default_rng(ensemble.seed)
    re_rng = rng
    if ensemble.complex_valued:
        for rows in blocks:  # pass over the real parts
            rng.standard_normal((rows, n))
        re_rng = np.random.default_rng(ensemble.seed)
    moment = np.zeros((n, n))
    cross = np.zeros((n, n))
    for rows in blocks:
        re = re_rng.standard_normal((rows, n))
        moment += re.T @ re
        if ensemble.complex_valued:
            im = rng.standard_normal((rows, n))
            moment += im.T @ im
            cross += im.T @ re
    if ensemble.complex_valued:
        moment = 0.5 * (moment + 1j * (cross - cross.T))
    factor = ensemble.factor
    c = factor @ moment @ factor.conj().T / count
    return 0.5 * (c + c.conj().T)


def covariance_gap(cov: np.ndarray, gram: np.ndarray) -> float:
    """Relative Frobenius gap ||C - G|| / ||G||, defined as zero for the zero Gram."""
    gnorm = float(np.linalg.norm(gram))
    if gnorm == 0.0:
        return 0.0
    return float(np.linalg.norm(cov - gram) / gnorm)


def covariance_defect(ensemble: GaussianEnsemble, count: int) -> float:
    """:func:`covariance_gap` of the empirical covariance of ``count`` fresh samples.

    Decays at the Monte-Carlo rate count^{-1/2}.
    """
    return covariance_gap(empirical_covariance(ensemble, count), ensemble.section.gram)
