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
    "integrate",
    "cantor4_fourier",
    "pushforward",
]

MAX_CANTOR_DEPTH = 26


@dataclass(frozen=True, eq=False)
class QuadMeasure:
    """A boundary measure realized by quadrature nodes and positive weights.

    ``kind`` is one of ``uniform``, ``gauss-hermite``, ``cantor-ifs``,
    ``band``, ``atomic``, or ``cantor-exact``.  The exact Cantor handle has no
    nodes; everything else stores weights with the scale factor folded in.
    """

    kind: str
    nodes: np.ndarray | None
    weights: np.ndarray | None
    scale: float = 1.0

    @property
    def total_mass(self) -> float:
        if self.weights is None:
            return float(self.scale)
        return float(np.sum(self.weights))


def periodic_uniform(n: int, scale: float = 1.0) -> QuadMeasure:
    """n equispaced nodes on [0, 1) with equal weights.

    Integrates trigonometric polynomials of degree < n exactly and annihilates
    e^{2 pi i k x} for 0 < |k| < n.
    """
    if n < 1:
        raise ValueError("need at least one node")
    nodes = np.arange(n, dtype=float) / n
    weights = np.full(n, scale / n)
    return QuadMeasure("uniform", nodes, weights, float(scale))


def gauss_hermite_plane(n: int, scale: float = 1.0) -> QuadMeasure:
    """Tensor Gauss-Hermite rule for the standard complex Gaussian on the plane.

    Parameters
    ----------
    n : int
        Nodes per axis.  Polynomial integrands of per-axis degree < 2n are
        integrated exactly against (1/2 pi) e^{-|z|^2 / 2} dA(z).
    scale : float
        Total mass of the realized measure (1 gives a probability measure).
    """
    if n < 1:
        raise ValueError("need at least one node per axis")
    x, w = np.polynomial.hermite.hermgauss(n)
    u = x * np.sqrt(2.0)
    wu = w / np.sqrt(np.pi)
    nodes = (u[:, None] + 1j * u[None, :]).ravel()
    weights = scale * (wu[:, None] * wu[None, :]).ravel()
    return QuadMeasure("gauss-hermite", nodes, weights, float(scale))


def cantor_ifs(depth: int, scale: float = 1.0) -> QuadMeasure:
    """Depth-D refinement of the quarter-Cantor measure: 2^D equal atoms.

    Atoms sit at sum_{k<=D} d_k 4^{-k} with digits d_k in {0, 2}, listed in
    increasing order, and the atom coordinates are exact dyadics.  Integrals
    of a Lipschitz f converge at rate Lip(f) * 4^{-D} / 3.
    """
    if not 1 <= depth <= MAX_CANTOR_DEPTH:
        raise ValueError(f"depth must be in 1..{MAX_CANTOR_DEPTH}")
    m = np.arange(2 ** depth, dtype=np.int64)
    x = np.zeros(m.shape, dtype=float)
    for k in range(1, depth + 1):
        bit = (m >> (depth - k)) & 1
        x += bit * (2.0 * 4.0 ** (-k))
    weights = np.full(2 ** depth, scale * 2.0 ** (-depth))
    return QuadMeasure("cantor-ifs", x, weights, float(scale))


def band_gauss_legendre(n: int, scale: float = 1.0) -> QuadMeasure:
    """Gauss-Legendre rule for Lebesgue measure on the frequency band [-1/2, 1/2]."""
    if n < 1:
        raise ValueError("need at least one node")
    x, w = np.polynomial.legendre.leggauss(n)
    return QuadMeasure("band", x / 2.0, scale * w / 2.0, float(scale))


def atomic(nodes, weights, scale: float = 1.0) -> QuadMeasure:
    """Finitely many atoms with strictly positive masses."""
    node_arr = np.asarray(nodes)
    w = scale * np.asarray(weights, dtype=float)
    if node_arr.shape != w.shape or node_arr.ndim != 1:
        raise ValueError("nodes and weights must be matching 1-d sequences")
    if w.size and (not np.all(np.isfinite(w)) or np.any(w <= 0)):
        raise ValueError("weights must be strictly positive and finite")
    return QuadMeasure("atomic", node_arr, w, float(scale))


def cantor_exact(scale: float = 1.0) -> QuadMeasure:
    """Node-free handle for the true quarter-Cantor measure.

    Integrals against it are evaluated through :func:`cantor4_fourier`; see
    the boundary module for the code paths that accept it.
    """
    return QuadMeasure("cantor-exact", None, None, float(scale))


def scale_measure(measure: QuadMeasure, alpha: float) -> QuadMeasure:
    """Multiply all weights by alpha > 0 (Carleson constants scale the same way)."""
    if not alpha > 0:
        raise ValueError("scale factor must be positive")
    weights = None if measure.weights is None else measure.weights * alpha
    return dataclasses.replace(measure, weights=weights, scale=measure.scale * alpha)


def integrate(measure: QuadMeasure, f) -> complex:
    """Apply the node/weight rule: sum_k w_k f(b_k).

    ``f`` may be a callable on the node array (a non-vectorized callable is
    applied node by node) or an array of samples aligned with the nodes.
    Summation is numpy's pairwise reduction, so results are deterministic for
    a fixed node count.
    """
    if measure.nodes is None:
        raise ValueError("measure has no quadrature nodes; use the exact Cantor code paths")
    if callable(f):
        try:
            vals = np.asarray(f(measure.nodes))
        except (TypeError, ValueError):
            vals = np.asarray([f(b) for b in measure.nodes.tolist()])
    else:
        vals = np.asarray(f)
    if vals.ndim == 0:
        vals = np.full(measure.nodes.shape, vals)
    if vals.shape != measure.nodes.shape:
        raise ValueError("integrand samples do not match the node count")
    return complex(np.sum(measure.weights * vals))


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
    s = np.atleast_1d(tt).astype(float).copy()
    if not np.all(np.isfinite(s)):
        raise ValueError("frequencies must be finite")
    out = np.ones(s.shape, dtype=complex)
    tail = (2.0 * np.pi / 3.0) * (float(np.max(np.abs(s))) if s.size else 0.0)
    while tail > 1e-15:
        r = np.fmod(s, 2.0)
        out *= 0.5 * (1.0 + np.exp(1j * np.pi * r))
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
