"""Boundary factorization machinery: membership defects, boundary isometries,
Carleson constants, adjoints, least-squares projections, and measure morphisms.

A boundary pair (extension, measure) "factors" a kernel when the matrix of
weighted boundary products reproduces the conjugated Gram matrix of every
finite section.  All diagnostics below quantify how far a candidate pair is
from that identity and what it implies: the transform into L2 of the measure
is an isometry exactly for members, members have Carleson constant one, and
the adjoint inverts the transform on section spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._linalg import NotPositiveSemidefiniteError, pivoted_cholesky, row_blocks
from .kernels import (
    BoundaryExtension,
    Cantor4Kernel,
    RkhsElement,
    Section,
    SectionError,
)
from .measures import QuadMeasure, pushforward
from .reconstruct import lambda4_frequency_matrix

__all__ = [
    "MEMBERSHIP_TOL",
    "BoundaryMatrix",
    "MembershipReport",
    "ProjectionResult",
    "MorphismReport",
    "CommutingReport",
    "boundary_gram",
    "membership_defect",
    "isometry_norms",
    "isometry_defect",
    "boundary_transform",
    "adjoint_apply",
    "pencil_eigenvalues",
    "carleson_constant",
    "onto_residual",
    "morphism_check",
    "commuting_diagram_defect",
]

MEMBERSHIP_TOL = 1e-8
RIDGE_FACTOR = 1e-12


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Matrix of boundary products <K^B(s_i, .), K^B(s_j, .)> in L2 of the measure,
    kept with the evaluation it was assembled from.

    On a node measure ``evaluation`` is the weighted evaluation
    A[i, k] = K^B(s_i, b_k) sqrt(w_k), so the matrix is conj(A) A^T, and
    ``frequencies`` is None.  On the exact Cantor measure ``evaluation`` is the
    power matrix P[i, j] = s_i ** lambda_j over the Lambda4 frequencies and
    ``frequencies`` the matrix mu_hat(lambda_k - lambda_j).
    """

    section: Section
    measure: QuadMeasure
    matrix: np.ndarray
    evaluation: np.ndarray
    frequencies: np.ndarray | None

    def transform_norm_sq(self, coeffs: np.ndarray) -> np.ndarray:
        """Squared L2 norms of the boundary transforms b -> sum_j c_j K^B(s_j, b)
        of each row c of a ``(trials, n)`` coefficient stack.

        Direct quadrature sum |c A|^2 on node measures; the quadratic form of
        the frequency matrix in the amplitudes c conj(P) on the exact one.
        The rows are reduced one block of at most ``BLOCK_BYTES`` at a time.
        """
        out = np.empty(coeffs.shape[0])
        if self.frequencies is None:
            for rows in row_blocks(coeffs.shape[0], self.evaluation.shape[1]):
                out[rows] = np.sum(np.abs(coeffs[rows] @ self.evaluation) ** 2, axis=-1)
            return out
        power = np.conj(self.evaluation)
        for rows in row_blocks(coeffs.shape[0], power.shape[1]):
            amp = coeffs[rows] @ power
            out[rows] = np.real(np.sum(np.conj(amp) * (amp @ self.frequencies.T), axis=-1))
        return out * self.measure.scale


@dataclass(frozen=True, eq=False)
class MembershipReport:
    """Factorization verdict: worst entrywise deviation plus the Carleson estimate.

    ``deviation`` holds the entrywise |N - conj(G)| and ``eigenvalues`` the
    ascending pencil spectrum whose maximum is the estimate; both are empty,
    and the scalars zero, for an empty section.
    """

    defect: float
    carleson_constant: float
    passed: bool
    deviation: np.ndarray
    eigenvalues: np.ndarray


def _check_pair(ext: BoundaryExtension, section: Section) -> None:
    if ext.kernel is section.kernel or ext.kernel == section.kernel:
        return
    raise SectionError("extension and section are built on different kernels")


def boundary_gram(ext: BoundaryExtension, measure: QuadMeasure, section: Section) -> BoundaryMatrix:
    """Assemble N_ij = integral of conj(K^B(s_i, b)) K^B(s_j, b) dmu(b).

    On a node measure the evaluation is weighted once, A = E sqrt(w), and
    N = conj(A) A^T.  Hermitian symmetry is enforced by symmetrized
    accumulation.  The node-free exact Cantor measure is evaluated through the
    frequency double sum with the measure's Fourier transform instead of
    quadrature.
    """
    _check_pair(ext, section)
    frequencies = None
    if measure.nodes is None:
        if not isinstance(ext.kernel, Cantor4Kernel):
            raise ValueError("the exact Cantor measure pairs only with the truncated Cantor kernel")
        lam, frequencies = lambda4_frequency_matrix(ext.kernel.level)
        e = section.points[:, None] ** lam[None, :]
        n = (e @ frequencies @ e.conj().T) * measure.scale
    else:
        e = ext(section.points[:, None], measure.nodes[None, :]) * np.sqrt(measure.weights)
        n = np.conj(e) @ e.T
    n = 0.5 * (n + n.conj().T)
    return BoundaryMatrix(section, measure, n, e, frequencies)


def membership_defect(
    ext: BoundaryExtension,
    measure: QuadMeasure,
    section: Section,
    tol: float = MEMBERSHIP_TOL,
) -> MembershipReport:
    """Compare the boundary product matrix with the conjugated Gram matrix.

    The deviation is measured against conj(G): under the toolkit's norm
    orientation that is the identity the canonical circle/plane/Cantor
    extensions satisfy exactly, and for real-symmetric kernels conj(G) = G.
    """
    nmat = boundary_gram(ext, measure, section).matrix
    norm_form = np.conj(section.gram)
    deviation = np.abs(nmat - norm_form)
    if section.size:
        eigenvalues = pencil_eigenvalues(nmat, norm_form)
        defect = float(np.max(deviation))
        constant = float(eigenvalues[-1])
    else:
        eigenvalues = np.zeros(0)
        defect = 0.0
        constant = 0.0
    return MembershipReport(
        defect=defect,
        carleson_constant=constant,
        passed=bool(defect < tol),
        deviation=deviation,
        eigenvalues=eigenvalues,
    )


def boundary_transform(f: RkhsElement, ext: BoundaryExtension):
    """Boundary-side function b -> sum_j c_j K^B(s_j, b), as a vectorized callable."""
    points = f.section.points
    coeffs = f.coeffs

    def transform(b):
        arr = np.asarray(b)
        vals = ext(points[:, None], np.atleast_1d(arr)[None, :])
        out = coeffs @ vals
        return complex(out[0]) if arr.ndim == 0 else out

    return transform


def isometry_norms(bmat: BoundaryMatrix, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Native and boundary squared norms of each row of a ``(trials, n)`` stack.

    Row c stands for f = sum_j c_j K(s_j, .) on the boundary matrix's section;
    its native norm is the quadratic form of conj(G) (see
    :func:`~rkboundary.kernels.h_norm_sq`) and its boundary norm is
    ``bmat.transform_norm_sq``.  A member pair gives equal norms.
    """
    c = np.asarray(coeffs, dtype=complex)
    form = np.conj(bmat.section.gram)
    native = np.real(np.sum(np.conj(c) * (c @ form.T), axis=-1))
    return native, bmat.transform_norm_sq(c)


def isometry_defect(f: RkhsElement, ext: BoundaryExtension, measure: QuadMeasure) -> float:
    """|  ||f||^2 - ||transform of f||^2_{L2(mu)}  | for one element.

    Assembles the boundary matrix of the element's section.  To check many
    elements of one section, assemble :func:`boundary_gram` once and pass
    their coefficient rows to :func:`isometry_norms`.
    """
    native, transformed = isometry_norms(boundary_gram(ext, measure, f.section), f.coeffs[None, :])
    return float(abs(native[0] - transformed[0]))


def _node_samples(boundary_values, measure: QuadMeasure) -> np.ndarray:
    fv = np.asarray(
        boundary_values(measure.nodes) if callable(boundary_values) else boundary_values,
        dtype=complex,
    )
    if fv.shape != measure.nodes.shape:
        raise ValueError("boundary samples must align with the quadrature nodes")
    return fv


def adjoint_apply(boundary_values, ext: BoundaryExtension, measure: QuadMeasure, s):
    """Adjoint of the boundary transform: s -> integral conj(K^B(s, b)) F(b) dmu(b).

    ``boundary_values`` is a callable on the quadrature nodes or an array of
    samples aligned with them; ``s`` may be a scalar point or an array.  The
    extension is evaluated and reduced one block of points at a time.
    """
    if measure.nodes is None:
        raise ValueError("adjoint evaluation needs a node-based measure")
    fv = _node_samples(boundary_values, measure)
    arr = np.asarray(s)
    pts = np.atleast_1d(arr)
    out = np.empty(pts.shape, dtype=complex)
    for rows in row_blocks(pts.shape[0], measure.nodes.shape[0]):
        cols = ext(pts[rows, None], measure.nodes[None, :])
        out[rows] = (np.conj(cols) * measure.weights) @ fv
    return complex(out[0]) if arr.ndim == 0 else out


def pencil_eigenvalues(nmat: np.ndarray, norm_matrix: np.ndarray) -> np.ndarray:
    """Generalized eigenvalues of (N, Q) ascending, with Q pruned by pivoted factorization.

    Q is the matrix of the native norm's quadratic form.  Kernel Gram matrices
    are notoriously ill conditioned for clustered points, so the pencil is
    restricted to the pivots that :func:`pivoted_cholesky` retains.  Their
    rows of its factor are the Cholesky factor L of the restricted Q = L L^H,
    which reduces the restricted pencil to the standard Hermitian problem
    L^-1 N L^-H.
    """
    factor, pivots, rank = pivoted_cholesky(norm_matrix)
    if rank == 0:
        raise NotPositiveSemidefiniteError(
            "norm form is numerically singular; pruning exhausted the section"
        )
    low = factor[pivots, :rank]
    half = np.linalg.solve(low, nmat[np.ix_(pivots, pivots)])
    reduced = np.linalg.solve(low, half.conj().T)
    return np.linalg.eigvalsh(0.5 * (reduced + reduced.conj().T))


def carleson_constant(ext: BoundaryExtension, measure: QuadMeasure, section: Section) -> float:
    """Largest generalized eigenvalue of the (boundary matrix, norm form) pencil.

    The exact supremum of the boundary-to-native norm ratio over the section's
    span, hence a finite-section *estimate* (a lower bound) of the least
    Carleson constant of the measure; zero for an empty section.
    """
    return membership_defect(ext, measure, section).carleson_constant


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Least-squares projection of boundary samples onto a section's boundary span."""

    residual: float
    coeffs: np.ndarray
    target_norm: float
    ridged: bool


def onto_residual(
    boundary_values,
    ext: BoundaryExtension,
    measure: QuadMeasure,
    section: Section,
) -> ProjectionResult:
    """Project boundary samples onto span{K^B(s_j, .)} in L2 of the measure.

    Solves the normal equations N c = conj(A) (sqrt(w) F) built from the
    weighted evaluation A of the boundary matrix; a numerically singular
    system is ridge-stabilized and flagged.  The residual is recomputed as
    ||sqrt(w) F - c A||, the quadrature of |F - fit|^2, so it is meaningful
    either way and always lies in [0, ||F||].  An empty section has the empty
    fit: no coefficients, residual ||F||, not ridged.
    """
    if measure.nodes is None:
        raise ValueError("projection needs a node-based measure")
    fv = _node_samples(boundary_values, measure) * np.sqrt(measure.weights)
    bmat = boundary_gram(ext, measure, section)
    nmat, a = bmat.matrix, bmat.evaluation
    rhs = np.conj(a) @ fv  # the adjoint at the section points
    w = np.linalg.eigvalsh(nmat)
    ridged = bool(w.size and w[0] <= 1e-12 * max(float(w[-1]), 0.0))
    if ridged:
        ridge = RIDGE_FACTOR * float(np.real(np.trace(nmat))) / max(section.size, 1)
        solve_mat = nmat + ridge * np.eye(section.size)
    else:
        solve_mat = nmat
    coeffs = np.linalg.solve(solve_mat, rhs)
    return ProjectionResult(
        residual=float(np.sqrt(np.sum(np.abs(fv - coeffs @ a) ** 2))),
        coeffs=coeffs,
        target_norm=float(np.sqrt(np.sum(np.abs(fv) ** 2))),
        ridged=ridged,
    )


@dataclass(frozen=True)
class MorphismReport:
    """Atom-by-atom comparison of a pushforward with its intended image measure."""

    passed: bool
    max_mass_error: float


def morphism_check(
    mu_coarse: QuadMeasure,
    mu_fine: QuadMeasure,
    atom_map: Mapping,
    tol: float = 1e-12,
) -> MorphismReport:
    """Verify the image of the fine measure under the atom map is the coarse one.

    The sigma-algebra half of the ordering holds by construction here: the
    fine partition is taken to be the preimage partition of the map, so only
    the mass identity needs checking.
    """
    image = pushforward(mu_fine, atom_map)
    pushed = dict(zip(image.nodes.tolist(), image.weights.tolist()))
    target = dict(zip(mu_coarse.nodes.tolist(), mu_coarse.weights.tolist()))
    err = 0.0
    for atom in set(pushed) | set(target):
        err = max(err, abs(pushed.get(atom, 0.0) - target.get(atom, 0.0)))
    return MorphismReport(passed=bool(err <= tol), max_mass_error=float(err))


@dataclass(frozen=True)
class CommutingReport:
    """Agreement of the two boundary transforms through a refining atom map."""

    transform_defect: float
    pullback_isometry_defect: float


def commuting_diagram_defect(
    ext_coarse: BoundaryExtension,
    ext_fine: BoundaryExtension,
    mu_coarse: QuadMeasure,
    mu_fine: QuadMeasure,
    atom_map: Mapping,
    f: RkhsElement,
) -> CommutingReport:
    """Sup-norm gap between the fine transform and the coarse transform pulled
    back through the atom map, plus the pullback's isometry defect.

    Requires the atom map to push the fine measure onto the coarse one; both
    boundary pairs are expected to factor the kernel (checked by the caller
    via :func:`membership_defect` when in doubt).
    """
    check = morphism_check(mu_coarse, mu_fine, atom_map)
    if not check.passed:
        raise ValueError(
            "atom map does not push the fine measure onto the coarse one "
            f"(mass error {check.max_mass_error:.3e})"
        )
    coarse_vals = np.atleast_1d(boundary_transform(f, ext_coarse)(mu_coarse.nodes))
    fine_vals = np.atleast_1d(boundary_transform(f, ext_fine)(mu_fine.nodes))
    index_of = {atom: i for i, atom in enumerate(mu_coarse.nodes.tolist())}
    pulled = np.asarray(
        [coarse_vals[index_of[atom_map[b]]] for b in mu_fine.nodes.tolist()],
        dtype=complex,
    )
    transform_defect = float(np.max(np.abs(pulled - fine_vals))) if pulled.size else 0.0
    fine_sq = float(np.sum(mu_fine.weights * np.abs(pulled) ** 2))
    coarse_sq = float(np.sum(mu_coarse.weights * np.abs(coarse_vals) ** 2))
    return CommutingReport(
        transform_defect=transform_defect,
        pullback_isometry_defect=abs(fine_sq - coarse_sq),
    )
