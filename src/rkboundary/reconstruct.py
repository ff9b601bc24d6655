"""Sampling and reconstruction: cardinal-series interpolation on the line and
the exponential basis of the quarter-Cantor measure."""

from __future__ import annotations

import numpy as np

from ._linalg import blocked_sum, row_blocks
from .measures import _bits_in_base, cantor4_fourier

__all__ = [
    "MAX_LAMBDA_LEVEL",
    "MAX_EXACT_LEVEL",
    "lambda4_set",
    "lambda4_frequency_columns",
    "lambda4_orthonormality_gaps",
    "shannon_reconstruct",
    "parseval_table",
]

MAX_LAMBDA_LEVEL = 20
MAX_PARSEVAL_LEVEL = 14
# the exact Cantor route evaluates the transform at 3**level points and gathers
# 4**level entries one column block at a time: factorize at level 12 takes
# about 1.5 s and 80 MB of process memory on a 2-CPU host, and the transform's
# time triples per further level
MAX_EXACT_LEVEL = 12


def lambda4_set(level: int) -> np.ndarray:
    """All integers below 4**level whose base-4 digits are 0 or 1, sorted.

    These are the frequencies whose exponentials e^{2 pi i lambda x} form an
    orthonormal family in L2 of the quarter-Cantor measure; there are exactly
    2**level of them.
    """
    if not 1 <= level <= MAX_LAMBDA_LEVEL:
        raise ValueError(f"level must be in 1..{MAX_LAMBDA_LEVEL} (int64 overflow guard)")
    return _bits_in_base(level, 4)


def lambda4_frequency_columns(level: int):
    """The matrix M[j, k] = mu_hat(lambda_k - lambda_j) over the level-L
    frequencies, yielded as ``(cols, M[:, cols])`` one block of columns at a
    time, so no reader holds all 4**level entries at once.

    M is the Gram matrix of the exponentials e^{2 pi i lambda x} in L2 of the
    quarter-Cantor measure: the identity up to rounding, by orthonormality.  The
    truncated Cantor kernel is a power sum over exactly these frequencies, so
    its boundary products against the exact measure reduce to M.  Levels above
    ``MAX_EXACT_LEVEL`` are refused before anything is allocated.

    A difference of two frequencies has base-4 digits t_i - 1 with t_i in
    {0, 1, 2}, so only 3**level of the 4**level entries are distinct.  The
    transform is evaluated once on the table of all sum_i (t_i - 1) 4**i,
    listed in the order of the base-3 code sum_i t_i 3**i, and M is gathered
    from it: with c the bits of each frequency read in base 3, lambda_k -
    lambda_j sits at code c_k - c_j + (3**level - 1) / 2.  The table has the
    same extreme frequencies +-(4**level - 1) / 3 as the full difference
    matrix, so the transform truncates its product at the same factor and M is
    bit-identical to evaluating every entry.
    """
    if level > MAX_EXACT_LEVEL:
        raise ValueError(f"level must be at most {MAX_EXACT_LEVEL} for the frequency matrix")
    diffs = np.zeros(1, dtype=np.int64)
    for i in range(level):
        diffs = (np.arange(-1, 2, dtype=np.int64)[:, None] * np.int64(4) ** i + diffs).ravel()
    table = cantor4_fourier(diffs.astype(float))
    code = _bits_in_base(level, 3)
    for cols in row_blocks(code.shape[0], code.shape[0]):
        yield cols, table[code[None, cols] + table.shape[0] // 2 - code[:, None]]


def lambda4_orthonormality_gaps(level: int) -> tuple[np.ndarray, float, np.ndarray]:
    """The level-L frequencies, the largest |M - I| on the diagonal and the
    largest |M| off it in each row, for M of :func:`lambda4_frequency_columns`.

    The row maxima accumulate across column blocks, which leaves them exact.
    """
    lam = lambda4_set(level)
    max_diag, row_max = 0.0, np.zeros(lam.shape[0])
    for cols, block in lambda4_frequency_columns(level):
        # rows ``cols`` of a column block are the square holding M's diagonal
        max_diag = max(max_diag, float(np.max(np.abs(np.diagonal(block[cols]) - 1.0))))
        off = np.abs(block)
        np.fill_diagonal(off[cols], 0.0)
        np.maximum(row_max, np.max(off, axis=1), out=row_max)
    return lam, max_diag, row_max


def shannon_reconstruct(values, t):
    """Truncated cardinal series sum_n f(n) sinc(t - n) over n = -S..S, as an
    array with one value per point t (a scalar t gives shape (1,)).

    ``values`` is the odd-length array of samples f(-S), ..., f(S), aligned
    with the integers of the support.  At integers inside the support the
    stored sample is returned exactly (sinc is 1 at zero and vanishes at the
    other integers); elsewhere the truncation error is the usual tail of the
    full bilateral series.  The series is summed by
    :func:`~rkboundary._linalg.blocked_sum`.
    """
    vals = np.asarray(values)
    if vals.ndim != 1 or vals.shape[0] % 2 == 0:
        raise ValueError("samples must be one odd-length array f(-S), ..., f(S), "
                         f"got shape {vals.shape}")
    support = vals.shape[0] // 2
    pts = np.atleast_1d(np.asarray(t, dtype=float))
    out = blocked_sum(vals, np.arange(-support, support + 1.0), lambda n, x: np.sinc(x - n), pts)
    stored = (pts == np.rint(pts)) & (np.abs(pts) <= support)
    out[stored] = vals[pts[stored].astype(int) + support]
    return out


def parseval_table(k: int, max_level: int) -> list[tuple[int, float]]:
    """Defect per level 1..max_level, accumulated incrementally so the
    sequence is exactly monotone.

    Each level only adds nonnegative terms to the running Bessel sum, so the
    returned defects never increase even at the rounding level.  The level-L
    frequencies are the first 2**L of the level-``max_level`` set, so the set
    is built once and each level reads its new half.
    """
    if not 1 <= max_level <= MAX_PARSEVAL_LEVEL:
        raise ValueError(f"max_level must be in 1..{MAX_PARSEVAL_LEVEL}")
    lam = lambda4_set(max_level).astype(float)
    rows: list[tuple[int, float]] = []
    total = 0.0
    previous = 0
    for level in range(1, max_level + 1):
        amp = cantor4_fourier(float(k) - lam[previous:2 ** level])
        previous = 2 ** level
        total += float(np.sum(np.abs(amp) ** 2))
        rows.append((level, 1.0 - total))
    return rows
