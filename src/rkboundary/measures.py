"""Boundary measures realized as node/weight integrators.

The circle gets equispaced nodes (spectrally accurate for periodic analytic
integrands), the plane gets tensor Gauss-Hermite against the standard complex
Gaussian, the frequency band gets Gauss-Legendre, and the quarter-Cantor
measure comes in two flavors: a finite iterated-function-system refinement
with 2^depth equal atoms, and a node-free "exact" handle whose integrals are
evaluated through the measure's Fourier transform.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Mapping

import numpy as np

__all__ = [
    "QuadMeasure",
    "periodic_uniform",
    "gauss_hermite_plane",
    "cantor_ifs",
    "band_gauss_legendre",
    "atomic",
    "cantor_exact",
    "scale_measure",
    "cantor4_fourier",
    "pushforward",
]

MAX_CANTOR_DEPTH = 26


@dataclass(frozen=True, eq=False)
class QuadMeasure:
    """A boundary measure realized by quadrature nodes and positive weights.

    The quadrature constructors build unit-mass measures, and
    :func:`scale_measure` is the one place a measure is scaled.  The exact
    Cantor handle has no nodes and carries its mass in ``scale``; everything
    else stores weights with the scale factor folded in.
    """

    nodes: np.ndarray | None
    weights: np.ndarray | None
    scale: float = 1.0

    @property
    def total_mass(self) -> float:
        if self.weights is None:
            return float(self.scale)
        return float(np.sum(self.weights))


def periodic_uniform(n: int) -> QuadMeasure:
    """n equispaced nodes on [0, 1) with equal weights.

    Integrates trigonometric polynomials of degree < n exactly and annihilates
    e^{2 pi i k x} for 0 < |k| < n.
    """
    if n < 1:
        raise ValueError("need at least one node")
    nodes = np.arange(n, dtype=float) / n
    return QuadMeasure(nodes, np.full(n, 1.0 / n))


def gauss_hermite_plane(n: int) -> QuadMeasure:
    """Tensor Gauss-Hermite rule for the standard complex Gaussian on the plane.

    Parameters
    ----------
    n : int
        Nodes per axis.  Polynomial integrands of per-axis degree < 2n are
        integrated exactly against (1/2 pi) e^{-|z|^2 / 2} dA(z).
    """
    if n < 1:
        raise ValueError("need at least one node per axis")
    x, w = np.polynomial.hermite.hermgauss(n)
    u = x * np.sqrt(2.0)
    wu = w / np.sqrt(np.pi)
    nodes = (u[:, None] + 1j * u[None, :]).ravel()
    return QuadMeasure(nodes, (wu[:, None] * wu[None, :]).ravel())


def cantor_ifs(depth: int) -> QuadMeasure:
    """Depth-D refinement of the quarter-Cantor measure: 2^D equal atoms.

    Atoms sit at sum_{k<=D} d_k 4^{-k} with digits d_k in {0, 2}, listed in
    increasing order, and the atom coordinates are exact dyadics.  Integrals
    of a Lipschitz f converge at rate Lip(f) * 4^{-D} / 3.
    """
    if not 1 <= depth <= MAX_CANTOR_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_CANTOR_DEPTH}")
    x = 2.0 * _bits_in_base(depth, 4) / 4.0 ** depth
    return QuadMeasure(x, np.full(2 ** depth, 2.0 ** (-depth)))


def _bits_in_base(level: int, base: int) -> np.ndarray:
    """sum_i b_i base**i for the bits b_i of each m in 0..2**level - 1."""
    m = np.arange(2 ** level, dtype=np.int64)
    out = np.zeros_like(m)
    for i in range(level):
        out += ((m >> i) & 1) * np.int64(base) ** i
    return out


def band_gauss_legendre(n: int) -> QuadMeasure:
    """Gauss-Legendre rule for Lebesgue measure on the frequency band [-1/2, 1/2]."""
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadMeasure(x / 2.0, w / 2.0)


def atomic(nodes, weights) -> QuadMeasure:
    """Finitely many atoms with strictly positive masses."""
    node_arr = np.asarray(nodes)
    w = np.asarray(weights, dtype=float)
    if node_arr.shape != w.shape or node_arr.ndim != 1:
        raise ValueError("nodes and weights must be matching 1-d sequences")
    if w.size and (not np.all(np.isfinite(w)) or np.any(w <= 0)):
        raise ValueError("weights must be strictly positive and finite")
    return QuadMeasure(node_arr, w)


def cantor_exact() -> QuadMeasure:
    """Node-free handle for the true quarter-Cantor measure.

    Integrals against it are evaluated through :func:`cantor4_fourier`; see
    the boundary module for the code paths that accept it.
    """
    return QuadMeasure(None, None)


def scale_measure(measure: QuadMeasure, alpha: float) -> QuadMeasure:
    """Multiply all weights by alpha > 0 (Carleson constants scale the same way).

    Raises ValueError when a scaled weight overflows to infinity.
    """
    if not alpha > 0:
        raise ValueError("scale factor must be positive")
    with np.errstate(over="ignore"):
        weights = None if measure.weights is None else measure.weights * alpha
    if weights is not None and not np.all(np.isfinite(weights)):
        raise ValueError(f"scaling by {alpha!r} overflows a weight")
    return dataclasses.replace(measure, weights=weights, scale=measure.scale * alpha)


def cantor4_fourier(t):
    """Fourier transform of the quarter-Cantor measure at frequency t.

    Computed as the infinite product of factors (1 + e^{i pi t / 4^j}) / 2,
    truncated adaptively once the remaining factors sit within 1e-15 of unity
    (the tail perturbs the value by less than 1e-14).  Each factor's argument
    is reduced modulo the period exactly, so the characteristic zeros at odd
    multiples of powers of four come out at the 1e-16 level even for large
    integer frequencies.  Accepts scalars or arrays; a non-finite frequency
    raises ValueError, since the product has no truncation point for it.
    """
    tt = np.asarray(t, dtype=float)
    scalar = tt.ndim == 0
    s = np.atleast_1d(tt).astype(float)
    if not np.all(np.isfinite(s)):
        raise ValueError("frequencies must be finite")
    tail = (2.0 * np.pi / 3.0) * (float(np.max(np.abs(s))) if s.size else 0.0)
    out = np.ones(s.shape, dtype=complex)
    # each factor is formed in two scratch arrays, in the operand order of
    # 0.5 * (1.0 + np.exp(1j * np.pi * np.fmod(s, 2.0))), so it keeps every bit
    r = np.empty(s.shape)
    factor = np.empty(s.shape, dtype=complex)
    while tail > 1e-15:
        np.fmod(s, 2.0, out=r)
        np.multiply(1j * np.pi, r, out=factor)
        np.exp(factor, out=factor)
        factor += 1.0
        factor *= 0.5
        out *= factor
        s *= 0.25
        tail *= 0.25
    return complex(out[0]) if scalar else out


def pushforward(measure: QuadMeasure, atom_map: Mapping) -> QuadMeasure:
    """Image measure under an atom-to-atom map; fiber masses add.

    The map must be total on the atoms of the input measure.  Total mass is
    preserved, and image atoms keep the order of first appearance.
    """
    if measure.nodes is None:
        raise ValueError("pushforward needs an atomic measure")
    masses: dict = {}
    order: list = []
    for node, w in zip(measure.nodes.tolist(), measure.weights.tolist()):
        try:
            image = atom_map[node]
        except KeyError:
            raise ValueError(f"atom map is not total: no image for {node!r}") from None
        if image not in masses:
            masses[image] = 0.0
            order.append(image)
        masses[image] += w
    return atomic(order, [masses[a] for a in order])
