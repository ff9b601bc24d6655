"""Dense Hermitian linear-algebra helpers shared across the toolkit."""

from __future__ import annotations

import numpy as np

__all__ = [
    "NotHermitianError",
    "NotPositiveSemidefiniteError",
    "pivoted_cholesky",
]

# pivoted_cholesky: a residual diagonal below PRUNE_TOL of the largest diagonal
# is zero; one below -NEGATIVE_TOL of that scale is a negative direction
PRUNE_TOL = 1e-12
NEGATIVE_TOL = 1e-10
# row_blocks: each complex array that one block of rows holds stays within
# this, the evaluation and any scratch array beside it alike
BLOCK_BYTES = 1024 * 1024


class NotHermitianError(ValueError):
    """A matrix expected to be Hermitian is not."""


class NotPositiveSemidefiniteError(ValueError):
    """A matrix expected to be PSD has a significantly negative direction."""


def hermitian_gap(matrix) -> float:
    """Largest entrywise deviation between a matrix and its conjugate transpose."""
    a = np.asarray(matrix)
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - a.conj().T)))


def require_hermitian(matrix, rel_tol: float = 1e-12, what: str = "matrix") -> np.ndarray:
    """Validate Hermitian symmetry and return the exactly symmetrized copy."""
    a = np.asarray(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what} must be square, got shape {a.shape}")
    scale = float(np.max(np.abs(a))) if a.size else 0.0
    gap = hermitian_gap(a)
    if gap > rel_tol * max(scale, 1.0):
        raise NotHermitianError(f"{what} is not Hermitian (gap {gap:.3e})")
    return 0.5 * (a + a.conj().T)


def row_blocks(rows: int, width: int):
    """Slices of ``range(rows)`` whose complex ``(block, width)`` arrays each
    fit in ``BLOCK_BYTES``, or hold three rows where fewer fit.

    The budget bounds each array live at once, not their sum: an extension
    evaluates a block into one array beside at most two scratch arrays of the
    same shape.

    A block never has one row unless ``rows`` is one: numpy reduces a
    one-row matrix against a vector by another BLAS path, which rounds
    differently, while every block of two or more rows reproduces the rows
    of the one-shot product bit for bit.
    """
    step = max(3, BLOCK_BYTES // max(16 * width, 1))
    start = 0
    while start < rows:
        stop = min(start + step, rows)
        if rows - stop == 1:
            stop -= 1
        yield slice(start, stop)
        start = stop


def pivoted_cholesky(matrix):
    """Diagonally pivoted Cholesky factorization of a Hermitian PSD matrix.

    Returns ``(factor, pivots, rank)`` with ``factor @ factor.conj().T``
    reproducing the input.  Rows of ``factor`` follow the original ordering
    (so the factor is triangular up to the pivot permutation) and columns from
    ``rank`` on are zero, which is how rank deficiency shows up.
    ``pivots`` lists the ``rank`` retained indices in elimination order, so
    ``factor[pivots, :rank]`` is the lower-triangular Cholesky factor of the
    matrix restricted to them.

    Elimination stops once every residual diagonal entry is at most
    ``PRUNE_TOL`` times the largest diagonal entry; a residual diagonal below
    ``-NEGATIVE_TOL`` times that scale (or one) declares the matrix indefinite.
    A looser prune is a prefix of the same elimination: truncate the factor.
    """
    a = np.array(matrix, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"matrix must be square, got shape {a.shape}")
    n = a.shape[0]
    diag = np.real(np.diag(a))
    scale = float(np.max(diag)) if n else 0.0
    cutoff = PRUNE_TOL * max(scale, 0.0)
    neg_cut = NEGATIVE_TOL * max(scale, 1.0)
    if n and float(np.min(diag)) < -neg_cut:
        raise NotPositiveSemidefiniteError(
            f"diagonal entry {float(np.min(diag)):.3e} is negative"
        )

    factor = np.zeros((n, n), dtype=complex)
    piv = np.arange(n)
    rank = n
    for k in range(n):
        resid = np.real(np.diag(a))
        j = k + int(np.argmax(resid[k:]))
        if float(np.min(resid[k:])) < -neg_cut:
            raise NotPositiveSemidefiniteError(
                f"residual diagonal {float(np.min(resid[k:])):.3e} is negative"
            )
        if resid[j] <= cutoff:
            rank = k
            break
        if j != k:
            a[[k, j], :] = a[[j, k], :]
            a[:, [k, j]] = a[:, [j, k]]
            factor[[k, j], :k] = factor[[j, k], :k]
            piv[[k, j]] = piv[[j, k]]
        root = np.sqrt(np.real(a[k, k]))
        factor[k, k] = root
        if k + 1 < n:
            col = a[k + 1:, k] / root
            factor[k + 1:, k] = col
            a[k + 1:, k + 1:] -= np.outer(col, np.conj(col))

    out = np.zeros_like(factor)
    out[piv] = factor
    return out, piv[:rank].copy(), rank
