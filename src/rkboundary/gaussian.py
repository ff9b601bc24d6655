"""Gaussian ensembles whose covariance is a section's Gram matrix.

These are the finite-dimensional marginals of the process boundary: a
zero-mean Gaussian vector indexed by the section's points with covariance
G_ij = K(s_i, s_j).  Real-symmetric kernels get real samples; everything else
gets circularly symmetric complex samples so the second-moment identity
E[x x*] = G holds.

:func:`empirical_covariance` draws the second moment of N draws from its
Wishart law through one Bartlett factor (Bartlett 1933; Odell & Feiveson,
JASA 61, 1966), so its cost does not depend on N.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._linalg import NotPositiveSemidefiniteError, pivoted_cholesky
from .kernels import Section

__all__ = [
    "FACTOR_TOL",
    "GaussianEnsemble",
    "SampleBatch",
    "build_ensemble",
    "sample",
    "empirical_covariance",
    "covariance_gap",
]

FACTOR_TOL = 1e-10


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
    moment and vanishing pseudo-covariance, so E[x x*] equals the Gram matrix;
    each sample reads its n real parts and then its n imaginary parts from the
    stream.  Identical (seed, count) reproduce the batch bit for bit.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(ensemble.seed)
    n = ensemble.section.size
    if ensemble.complex_valued:
        parts = rng.standard_normal((count, 2, n))
        z = parts[:, 0] + 1j * parts[:, 1]
        z /= np.sqrt(2.0)
    else:
        z = rng.standard_normal((count, n))
    return SampleBatch(
        samples=z @ ensemble.factor.T,
        seed=ensemble.seed,
        complex_valued=ensemble.complex_valued,
    )


def empirical_covariance(ensemble: GaussianEnsemble, count: int) -> np.ndarray:
    """(1/N) sum_k x x* over N = ``count`` samples x = L z, as L W L* / N with
    W = sum_k z z*, symmetrized so Hermitian symmetry holds exactly.

    W is drawn from its law, not from N draws.  A draw's d = n real parts (2n:
    real, then imaginary parts, for a complex kernel) give M = sum u u^T ~
    Wishart W_d(N, I) = T T^T, whose Bartlett factor T is d x min(d, N) lower
    trapezoidal: iid N(0, 1) below the diagonal, T_ii = sqrt(chi2(N - i)).
    With z = (a + ib)/sqrt(2), W = (M_11 + M_22 + i (M_21 - M_21^T)) / 2 in
    the n x n blocks of M.  The degrees of freedom are floats, so any N >= 2
    costs the same d min(d, N) normals.
    """
    if count < 2:
        raise ValueError("need at least two samples")
    n = ensemble.section.size
    d = 2 * n if ensemble.complex_valued else n
    rank = min(d, count)
    rng = np.random.default_rng(ensemble.seed)
    bartlett = np.tril(rng.standard_normal((d, rank)), -1)
    np.fill_diagonal(bartlett, np.sqrt(rng.chisquare(float(count) - np.arange(rank))))
    moment = bartlett @ bartlett.T
    if ensemble.complex_valued:
        cross = moment[n:, :n]
        moment = 0.5 * (moment[:n, :n] + moment[n:, n:] + 1j * (cross - cross.T))
    factor = ensemble.factor
    c = factor @ moment @ factor.conj().T / count
    return 0.5 * (c + c.conj().T)


def covariance_gap(cov: np.ndarray, gram: np.ndarray) -> float:
    """Relative Frobenius gap ||C - G|| / ||G||, defined as zero for the zero Gram."""
    gnorm = float(np.linalg.norm(gram))
    if gnorm == 0.0:
        return 0.0
    return float(np.linalg.norm(cov - gram) / gnorm)

