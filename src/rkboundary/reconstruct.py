"""Sampling and reconstruction: cardinal-series interpolation on the line and
the exponential basis of the quarter-Cantor measure."""

from __future__ import annotations

from typing import Mapping

import numpy as np

from ._linalg import row_blocks
from .measures import cantor4_fourier

__all__ = [
    "MAX_LAMBDA_LEVEL",
    "MAX_EXACT_LEVEL",
    "lambda4_set",
    "lambda4_frequency_matrix",
    "shannon_reconstruct",
    "parseval_table",
]

MAX_LAMBDA_LEVEL = 20
MAX_PARSEVAL_LEVEL = 14
# the frequency matrix holds 4**level complex entries: about 130 MB peak and
# 0.5 s at level 11 on a 2-CPU host, four times the memory per further level
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


def _bits_in_base(level: int, base: int) -> np.ndarray:
    """sum_i b_i base**i for the bits b_i of each m in 0..2**level - 1."""
    m = np.arange(2 ** level, dtype=np.int64)
    out = np.zeros_like(m)
    for i in range(level):
        out += ((m >> i) & 1) * np.int64(base) ** i
    return out


def lambda4_frequency_matrix(level: int) -> tuple[np.ndarray, np.ndarray]:
    """The level-L frequencies and the matrix M[j, k] = mu_hat(lambda_k - lambda_j).

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
    lam = lambda4_set(level)
    diffs = np.zeros(1, dtype=np.int64)
    for i in range(level):
        diffs = (np.arange(-1, 2, dtype=np.int64)[:, None] * np.int64(4) ** i + diffs).ravel()
    table = cantor4_fourier(diffs.astype(float))
    code = _bits_in_base(level, 3)
    return lam, table[code[None, :] + (3 ** level - 1) // 2 - code[:, None]]


def shannon_reconstruct(samples: Mapping[int, complex], t):
    """Truncated cardinal series sum_n f(n) sinc(t - n) over the stored support.

    ``samples`` maps integers to sample values.  At integers inside the
    support the stored sample is returned exactly (sinc is 1 at zero and
    vanishes at the other integers); elsewhere the truncation error is the
    usual tail of the full bilateral series.  The series is summed one block
    of evaluation points at a time.
    """
    tt = np.asarray(t, dtype=float)
    scalar = tt.ndim == 0
    pts = np.atleast_1d(tt)
    if not samples:
        out = np.zeros(pts.shape, dtype=complex)
        return complex(out[0]) if scalar else out
    support = sorted(int(n) for n in samples)
    if any(int(n) != n for n in samples):
        raise ValueError("sample support must consist of integers")
    ns = np.asarray(support, dtype=float)
    vals = np.asarray([samples[n] for n in support], dtype=complex)
    out = np.empty(pts.shape, dtype=complex)
    for rows in row_blocks(pts.shape[0], ns.shape[0]):
        out[rows] = np.sinc(pts[rows, None] - ns[None, :]) @ vals
    nearest = np.rint(pts)
    for idx in np.nonzero(pts == nearest)[0]:
        n = int(nearest[idx])
        if n in samples:
            out[idx] = complex(samples[n])
    return complex(out[0]) if scalar else out


def parseval_table(k: int, max_level: int, min_level: int = 1) -> list[tuple[int, float]]:
    """Defect per level, accumulated incrementally so the sequence is exactly monotone.

    Each level only adds nonnegative terms to the running Bessel sum, so the
    returned defects never increase even at the rounding level.
    """
    if not 1 <= min_level <= max_level <= MAX_PARSEVAL_LEVEL:
        raise ValueError(f"levels must satisfy 1 <= min <= max <= {MAX_PARSEVAL_LEVEL}")
    rows: list[tuple[int, float]] = []
    total = 0.0
    previous = 0
    for level in range(1, max_level + 1):
        lam = lambda4_set(level)
        fresh = lam[previous:]
        previous = lam.shape[0]
        amp = cantor4_fourier(float(k) - fresh.astype(float))
        total += float(np.sum(np.abs(amp) ** 2))
        if level >= min_level:
            rows.append((level, 1.0 - total))
    return rows
