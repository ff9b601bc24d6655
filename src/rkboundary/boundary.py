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
from functools import cached_property
from typing import Mapping

import numpy as np

from ._linalg import NotPositiveSemidefiniteError, blocked_sum, pivoted_cholesky, row_blocks
from .kernels import (
    BoundaryExtension,
    Cantor4Kernel,
    DomainError,
    RkhsElement,
    Section,
    SectionError,
)
from .measures import QuadMeasure, pushforward
from .reconstruct import MAX_EXACT_LEVEL, lambda4_frequency_columns, lambda4_set

__all__ = [
    "BoundaryMatrix",
    "MembershipReport",
    "ProjectionResult",
    "CommutingReport",
    "check_pair",
    "boundary_gram",
    "membership_defect",
    "isometry_norms",
    "isometry_defect",
    "boundary_transform",
    "adjoint_apply",
    "pencil_eigenvalues",
    "onto_residual",
    "morphism_check",
    "commuting_diagram_defect",
]


@dataclass(frozen=True, eq=False)
class BoundaryMatrix:
    """Matrix of boundary products <K^B(s_i, .), K^B(s_j, .)> in L2 of the measure,
    kept with the evaluation it is assembled from.

    On a node measure ``evaluation`` is the weighted evaluation
    A[i, k] = K^B(s_i, b_k) sqrt(w_k), so the matrix is conj(A) A^T.  On the
    exact Cantor measure it is the power matrix P[i, j] = s_i ** lambda_j over
    the Lambda4 frequencies, and the matrix is P M P^H times the measure's
    scale, with M the frequency matrix mu_hat(lambda_k - lambda_j).  The
    matrix is formed on first read, so a caller that reads only the node
    evaluation (the isometry norms, the projection) never pays for the product.
    """

    section: Section
    measure: QuadMeasure
    evaluation: np.ndarray

    @cached_property
    def matrix(self) -> np.ndarray:
        """N_ij = integral of conj(K^B(s_i, b)) K^B(s_j, b) dmu(b), Hermitian.

        On a node measure N = conj(A) A^T is formed one block of rows at a
        time, so only one block of A is ever conjugated.  On the exact Cantor
        measure P M is formed one block of the frequency matrix's columns at a
        time, then multiplied by P^H.  Hermitian symmetry is enforced by
        symmetrized accumulation.
        """
        e = self.evaluation
        if self.measure.nodes is None:
            pm = np.empty(e.shape, dtype=complex)
            for cols, block in lambda4_frequency_columns(self.section.kernel.level):
                pm[:, cols] = e @ block
            n = (pm @ e.conj().T) * self.measure.scale
        else:
            n = np.empty((e.shape[0], e.shape[0]), dtype=complex)
            for rows in row_blocks(*e.shape):
                n[rows] = np.conj(e[rows]) @ e.T
        return 0.5 * (n + n.conj().T)

    def transform_norm_sq(self, coeffs: np.ndarray) -> np.ndarray:
        """Squared L2 norms of the boundary transforms b -> sum_j c_j K^B(s_j, b)
        of each row c of a ``(trials, n)`` coefficient stack.

        Direct quadrature sum |c A|^2 on node measures, its rows reduced one
        block of at most ``BLOCK_BYTES`` at a time; the quadratic form of the
        matrix on the exact Cantor measure.
        """
        if self.measure.nodes is None:
            return _quadratic_form(coeffs, self.matrix)
        out = np.empty(coeffs.shape[0])
        for rows in row_blocks(coeffs.shape[0], self.evaluation.shape[1]):
            out[rows] = np.sum(np.abs(coeffs[rows] @ self.evaluation) ** 2, axis=-1)
        return out


def _quadratic_form(coeffs: np.ndarray, form: np.ndarray) -> np.ndarray:
    """c^H Q c for each row c of a coefficient stack."""
    return np.real(np.sum(np.conj(coeffs) * (coeffs @ form.T), axis=-1))


@dataclass(frozen=True, eq=False)
class MembershipReport:
    """Factorization measurements: worst entrywise deviation plus the Carleson estimate.

    ``deviation`` holds the entrywise |N - conj(G)| and ``eigenvalues`` the
    ascending pencil spectrum whose maximum is the estimate; both are empty,
    and the scalars zero, for an empty section.  The estimate is the exact
    supremum of the boundary-to-native norm ratio over the section's span,
    hence a lower bound of the least Carleson constant of the measure.
    """

    defect: float
    carleson_constant: float
    deviation: np.ndarray
    eigenvalues: np.ndarray


def check_pair(ext: BoundaryExtension, measure: QuadMeasure, section: Section) -> None:
    """Refuse a boundary pair that cannot serve the section, before anything is built.

    Raises SectionError when the extension is built on another kernel than
    the section, and DomainError when the measure is off the extension's
    boundary: the extension refuses its nodes, or it is the node-free exact
    Cantor measure beside any kernel but the truncated Cantor kernel at
    level at most ``MAX_EXACT_LEVEL``.
    """
    if not (ext.kernel is section.kernel or ext.kernel == section.kernel):
        raise SectionError("extension and section are built on different kernels")
    if measure.nodes is not None:
        ext.validate_boundary(measure.nodes)
    elif not isinstance(ext.kernel, Cantor4Kernel) or ext.kernel.level > MAX_EXACT_LEVEL:
        raise DomainError("the exact Cantor measure pairs only with the truncated Cantor "
                          f"kernel at level at most {MAX_EXACT_LEVEL}")


def boundary_gram(ext: BoundaryExtension, measure: QuadMeasure, section: Section) -> BoundaryMatrix:
    """The boundary matrix N_ij = integral of conj(K^B(s_i, b)) K^B(s_j, b) dmu(b)
    of a section, with the evaluation it is assembled from.

    On a node measure the weighted evaluation A = E sqrt(w) is filled in
    place one block of rows at a time, so neither E nor a second full-size
    copy of A is ever held.  On the node-free exact Cantor measure the
    evaluation is the power matrix of the section over the Lambda4
    frequencies; the matrix pairs it with the measure's Fourier transform
    instead of quadrature.
    """
    check_pair(ext, measure, section)
    points = section.points
    if measure.nodes is None:
        lam = lambda4_set(ext.kernel.level)
        return BoundaryMatrix(section, measure, points[:, None] ** lam[None, :])
    nodes = measure.nodes
    root = np.sqrt(measure.weights)
    a = np.empty((points.shape[0], nodes.shape[0]), dtype=complex)
    for rows in row_blocks(*a.shape):
        np.multiply(ext(points[rows, None], nodes[None, :]), root, out=a[rows])
    return BoundaryMatrix(section, measure, a)


def membership_defect(ext: BoundaryExtension, measure: QuadMeasure,
                      section: Section) -> MembershipReport:
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
        deviation=deviation,
        eigenvalues=eigenvalues,
    )


def boundary_transform(f: RkhsElement, ext: BoundaryExtension):
    """Boundary-side function b -> sum_j c_j K^B(s_j, b), as a vectorized callable
    summed by :func:`~rkboundary._linalg.blocked_sum`."""
    return lambda b: blocked_sum(f.coeffs, f.section.points, ext, b)


def isometry_norms(bmat: BoundaryMatrix, coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Native and boundary squared norms of each row of a ``(trials, n)`` stack.

    Row c stands for f = sum_j c_j K(s_j, .) on the boundary matrix's section;
    its native norm is the quadratic form of conj(G) (see
    :func:`~rkboundary.kernels.h_norm_sq`) and its boundary norm is
    ``bmat.transform_norm_sq``.  A member pair gives equal norms.
    """
    c = np.asarray(coeffs, dtype=complex)
    return _quadratic_form(c, np.conj(bmat.section.gram)), bmat.transform_norm_sq(c)


def isometry_defect(f: RkhsElement, ext: BoundaryExtension, measure: QuadMeasure) -> float:
    """|  ||f||^2 - ||transform of f||^2_{L2(mu)}  | for one element.

    Assembles the boundary matrix of the element's section.  To check many
    elements of one section, assemble :func:`boundary_gram` once and pass
    their coefficient rows to :func:`isometry_norms`.
    """
    native, transformed = isometry_norms(boundary_gram(ext, measure, f.section), f.coeffs[None, :])
    return float(abs(native[0] - transformed[0]))


def _node_samples(boundary_values, measure: QuadMeasure) -> np.ndarray:
    fv = np.asarray(boundary_values, dtype=complex)
    if fv.shape != measure.nodes.shape:
        raise ValueError("boundary samples must align with the quadrature nodes")
    return fv


def adjoint_apply(boundary_values, ext: BoundaryExtension, measure: QuadMeasure, s):
    """Adjoint of the boundary transform: s -> integral conj(K^B(s, b)) F(b) dmu(b).

    ``boundary_values`` is an array of samples aligned with the quadrature
    nodes; ``s`` may be a scalar point or an array.  The extension is
    evaluated at every point on one tile of nodes at a time, each tile sized
    for the evaluation and up to three scratch arrays beside it, and the
    tiles' sums are accumulated.  ``einsum`` reduces a tile in a fixed
    order, so the values do not depend on the BLAS thread count.
    """
    if measure.nodes is None:
        raise ValueError("adjoint evaluation needs a node-based measure")
    weighted = _node_samples(boundary_values, measure) * measure.weights
    arr = np.asarray(s)
    pts = np.atleast_1d(arr)
    out = np.zeros(pts.shape, dtype=complex)
    for tile in row_blocks(measure.nodes.shape[0], 4 * pts.shape[0]):
        cols = ext(pts[:, None], measure.nodes[None, tile])
        out += np.einsum("ik,k->i", np.conj(cols, out=cols), weighted[tile])
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


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Least-squares projection of boundary samples onto a section's boundary span,
    with the numerical rank of the fit."""

    residual: float
    coeffs: np.ndarray
    target_norm: float
    rank: int


def onto_residual(
    boundary_values,
    ext: BoundaryExtension,
    measure: QuadMeasure,
    section: Section,
) -> ProjectionResult:
    """Project boundary samples onto span{K^B(s_j, .)} in L2 of the measure.

    ``boundary_values`` is an array F of samples aligned with the quadrature
    nodes.  Minimizes ||sqrt(w) F - c A|| over c, with A the weighted
    evaluation of the boundary matrix, without forming the normal equations,
    which square the condition of A.  The R factor of the QR of
    [A^T, sqrt(w) F] has the form [[R, z], [0, rho]], with no rho row when
    there are at most n nodes; the SVD R = U S V^H keeps the singular values
    above numpy's ``lstsq`` cutoff S_0 eps max(nodes, n), their count is the
    rank r, and c = V_r (U_r^H z / S_r) is the minimum-norm fit.  The
    residual, the quadrature of |F - fit|^2, is the sum of squares
    sqrt(rho^2 + ||U_perp^H z||^2), so it lies in [0, ||F||] up to rounding.
    An empty section has the empty fit: no coefficients, rank 0, residual ||F||.
    """
    if measure.nodes is None:
        raise ValueError("projection needs a node-based measure")
    fv = _node_samples(boundary_values, measure) * np.sqrt(measure.weights)
    n, m = section.size, fv.size
    # qr copies its input twice more, so A is not kept beside the stacked copy
    r = np.linalg.qr(np.concatenate([boundary_gram(ext, measure, section).evaluation,
                                     fv[None, :]]).T, mode="r")
    u, sigma, vh = np.linalg.svd(r[:n, :n])
    rank = int(np.sum(sigma > sigma.max(initial=0.0) * np.finfo(float).eps * max(m, n)))
    z = u.conj().T @ r[:n, n]
    return ProjectionResult(
        residual=float(np.sqrt(np.sum(np.abs(r[n:, n]) ** 2) + np.sum(np.abs(z[rank:]) ** 2))),
        coeffs=vh[:rank].conj().T @ (z[:rank] / sigma[:rank]),
        target_norm=float(np.sqrt(np.sum(np.abs(fv) ** 2))),
        rank=rank,
    )


def morphism_check(mu_coarse: QuadMeasure, mu_fine: QuadMeasure, atom_map: Mapping) -> float:
    """Largest atom-by-atom mass gap between the image of the fine measure
    under the atom map and the coarse measure; zero when the map pushes one
    onto the other.

    The sigma-algebra half of the ordering holds by construction here: the
    fine partition is taken to be the preimage partition of the map, so only
    the mass identity needs checking.
    """
    return _mass_gap(pushforward(mu_fine, atom_map), mu_coarse)


def _mass_gap(image: QuadMeasure, mu_coarse: QuadMeasure) -> float:
    pushed = dict(zip(image.nodes.tolist(), image.weights.tolist()))
    target = dict(zip(mu_coarse.nodes.tolist(), mu_coarse.weights.tolist()))
    err = 0.0
    for atom in set(pushed) | set(target):
        err = max(err, abs(pushed.get(atom, 0.0) - target.get(atom, 0.0)))
    return err


@dataclass(frozen=True, eq=False)
class CommutingReport:
    """Agreement of the two boundary transforms through a refining atom map,
    with the image of the fine measure and its mass gap to the coarse one
    (see :func:`morphism_check`)."""

    transform_defect: float
    pullback_isometry_defect: float
    mass_error: float
    image: QuadMeasure


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
    image = pushforward(mu_fine, atom_map)
    mass_error = _mass_gap(image, mu_coarse)
    if mass_error > 1e-12:
        raise ValueError(
            "atom map does not push the fine measure onto the coarse one "
            f"(mass error {mass_error:.3e})"
        )
    coarse_vals = boundary_transform(f, ext_coarse)(mu_coarse.nodes)
    fine_vals = boundary_transform(f, ext_fine)(mu_fine.nodes)
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
        mass_error=mass_error,
        image=image,
    )
