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

# Rows per sample block: 4096 complex rows of a 60-point section take 3.9 MB.
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


def _draw_blocks(ensemble: GaussianEnsemble, count: int):
    """Yield the draws z of ``count`` samples in consecutive blocks of at most
    SAMPLE_BLOCK rows.

    The seeded stream draws every real part of z before the first imaginary
    part, so the complex case keeps the ``(count, n)`` real parts and draws
    the imaginary parts block by block; the real case draws block by block.
    Either way the blocks stack to the draws of one ``(count, n)`` request.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(ensemble.seed)
    n = ensemble.section.size
    re = rng.standard_normal((count, n)) if ensemble.complex_valued else None
    for start in range(0, count, SAMPLE_BLOCK):
        rows = min(SAMPLE_BLOCK, count - start)
        if re is None:
            yield rng.standard_normal((rows, n))
        else:
            z = re[start:start + rows] + 1j * rng.standard_normal((rows, n))
            z /= np.sqrt(2.0)
            yield z


def sample(ensemble: GaussianEnsemble, count: int) -> SampleBatch:
    """Draw ``count`` vectors x = L z with iid standard normal z.

    In the complex case z is circularly symmetric with unit second absolute
    moment and vanishing pseudo-covariance, so E[x x*] equals the Gram matrix.
    Identical (seed, count) reproduce the batch bit for bit.  The product
    with L is taken once over the whole batch: BLAS rounds a product of a
    few rows differently from the same rows inside a larger one.
    """
    z = np.concatenate(list(_draw_blocks(ensemble, count)))
    return SampleBatch(
        samples=z @ ensemble.factor.T,
        seed=ensemble.seed,
        complex_valued=ensemble.complex_valued,
    )


def empirical_covariance(ensemble: GaussianEnsemble, count: int) -> np.ndarray:
    """(1/N) sum_k x x* over ``count`` fresh samples, symmetrized so Hermitian
    symmetry holds exactly.

    The sum is accumulated one block x = z L^T at a time, so the
    ``(count, n)`` batch is never held.
    """
    if count < 2:
        raise ValueError("need at least two samples")
    factor_t = ensemble.factor.T
    blocks = (z @ factor_t for z in _draw_blocks(ensemble, count))
    c = sum(x.T @ np.conj(x) for x in blocks) / count
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
