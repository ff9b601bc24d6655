"""Positive definite kernel zoo, boundary extensions, and finite sections.

Every kernel here is Hermitian positive definite on its point domain, and each
closed-form kernel carries a canonical boundary extension: an evaluation rule
on (domain point, boundary point) pairs whose weighted boundary products
reproduce the kernel.  Finite sections -- ordered point sets with their Gram
matrices -- are the computational stand-in for the full kernel space.

Orientation convention used throughout the toolkit: the squared norm of a
combination ``f = sum_j c_j K(s_j, .)`` is ``sum_{ij} c_i conj(c_j) G_ij``
(the conjugate sits on the *second* coefficient).  Under this convention the
canonical extensions below turn the boundary transform into an exact isometry;
for real-symmetric kernels it coincides with the usual quadratic form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ._linalg import blocked_sum, require_hermitian
from .reconstruct import MAX_LAMBDA_LEVEL

__all__ = [
    "DomainError",
    "SectionError",
    "Kernel",
    "SzegoKernel",
    "BargmannKernel",
    "Cantor4Kernel",
    "SincKernel",
    "ExplicitFeatureKernel",
    "BoundaryExtension",
    "CircleExtension",
    "BargmannPlaneExtension",
    "SincBandExtension",
    "FrameExtension",
    "PullbackExtension",
    "Section",
    "RkhsElement",
    "PdVerdict",
    "pd_check",
    "build_section",
    "element",
    "h_norm_sq",
    "evaluate_element",
    "DEFAULT_PSD_TOL",
    "DUPLICATE_DIST_TOL",
    "BARGMANN_MAX_MODULUS",
    "SINC_BAND_MAX_POINT",
]

DEFAULT_PSD_TOL = 1e-10
DUPLICATE_DIST_TOL = 1e-12
# Above about 1.3e154 the products of coordinates in the Bargmann exponent
# overflow, and inf - inf = NaN, although K(z, z) = 1.
BARGMANN_MAX_MODULUS = 1e150
# The band phase pi s xi, |xi| <= 1/2, has a unit in its last place near 0.25
# at |s| = 1e15 and near 2 at 1e16: past the bound it carries no digits.
SINC_BAND_MAX_POINT = 1e15


class DomainError(ValueError):
    """A point lies outside the domain of a kernel or boundary."""


class SectionError(ValueError):
    """A finite section failed validation (duplicate points or indefinite Gram)."""


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

class Kernel:
    """Base class for Hermitian positive definite kernels.

    Subclasses implement ``_eval`` on validated numpy arrays (broadcasting
    like numpy) and ``validate_points``.  Instances are immutable and safe to
    share across threads.
    """

    name: str = "kernel"
    domain: str = "abstract"
    is_real: bool = False

    def __call__(self, s, t):
        """Evaluate K(s, t); arguments broadcast like numpy arrays."""
        return self._eval(self.validate_points(s), self.validate_points(t))

    def _eval(self, s, t):
        raise NotImplementedError

    def validate_points(self, points):
        raise NotImplementedError

    def boundary_extension(self) -> "BoundaryExtension":
        raise DomainError(f"kernel {self.name!r} has no canonical boundary extension")

    def gram(self, points) -> np.ndarray:
        """Gram matrix over a 1-d point list, symmetrized so Hermitian holds exactly."""
        pts = np.atleast_1d(self.validate_points(points))
        g = np.asarray(self._eval(pts[:, None], pts[None, :]), dtype=complex)
        return 0.5 * (g + g.conj().T)


def _disk_points(points) -> np.ndarray:
    z = np.asarray(points, dtype=complex)
    if not np.all(np.isfinite(z)):
        raise DomainError("points must be finite")
    if np.any(np.abs(z) >= 1.0):
        raise DomainError("disk kernels require |z| < 1")
    return z


def _real_points(points, what: str) -> np.ndarray:
    arr = np.asarray(points)
    if np.iscomplexobj(arr):
        if np.any(arr.imag != 0):
            raise DomainError(f"{what} requires real values")
        arr = arr.real
    arr = np.asarray(arr, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    return arr


def _index_points(points, size: int) -> np.ndarray:
    idx = np.asarray(points)
    if idx.dtype.kind not in "iu":
        raise DomainError("index kernels take integer point labels")
    if idx.size and (np.any(idx < 0) or np.any(idx >= size)):
        raise DomainError(f"index out of range 0..{size - 1}")
    return idx.astype(np.intp)


@dataclass(frozen=True)
class SzegoKernel(Kernel):
    """Kernel 1 / (1 - conj(z) w) on the open unit disk."""

    name = "szego"
    domain = "disk"

    def validate_points(self, points):
        return _disk_points(points)

    def _eval(self, s, t):
        out = np.asarray(np.conj(s) * t)
        np.subtract(1.0, out, out=out)
        np.divide(1.0, out, out=out)
        return out[()]

    def boundary_extension(self):
        return CircleExtension(self)


@dataclass(frozen=True)
class BargmannKernel(Kernel):
    """Kernel exp(conj(z) w / 2 - (|z|^2 + |w|^2) / 4) on the complex plane."""

    name = "bargmann"
    domain = "plane"

    def validate_points(self, points):
        z = np.asarray(points, dtype=complex)
        if not np.all(np.isfinite(z)):
            raise DomainError("points must be finite")
        if np.any(np.abs(z) > BARGMANN_MAX_MODULUS):
            raise DomainError("bargmann points require |z| <= 1e150")
        return z

    def _eval(self, s, t):
        # the same exponent as -|s - t|^2 / 4 + (i/2) Im(conj(s) t), which
        # cancels no terms of size |z|^2, so K(z, z) = 1 exactly
        d = s - t
        im_st = s.real * t.imag - s.imag * t.real
        return np.exp(-0.25 * (d.real ** 2 + d.imag ** 2) + 0.5j * im_st)

    def boundary_extension(self):
        return BargmannPlaneExtension(self)


@dataclass(frozen=True)
class Cantor4Kernel(Kernel):
    """Truncated product kernel prod_{l < level} (1 + (conj(z) w)^(4^l)) on the disk.

    ``level`` is the number of product factors.  The dropped tail of the
    infinite product is geometrically small: below 1e-14 for |z|, |w| <= 0.9
    once level >= 3.  Equivalently the kernel is the power sum of conj(z) w
    over the base-4 binary-digit frequencies below 4**level.
    """

    level: int

    name = "cantor4"
    domain = "disk"

    def __post_init__(self):
        if not 1 <= int(self.level) <= MAX_LAMBDA_LEVEL:
            raise ValueError(f"truncation level must be in 1..{MAX_LAMBDA_LEVEL}")

    def validate_points(self, points):
        return _disk_points(points)

    def _eval(self, s, t):
        # the running power p = u^(4^l) and 1 + p are the only scratch arrays;
        # the product keeps the order out * (1 + p), because complex multiply
        # is not bitwise commutative and numpy's temporary elision would swap
        # the operands of an expression on arrays of 256 KiB or more
        p = np.asarray(np.conj(s) * t)
        out = np.ones_like(p)
        factor = np.empty_like(p)
        for _ in range(self.level):
            np.add(1.0, p, out=factor)
            np.multiply(out, factor, out=out)
            np.multiply(p, p, out=p)
            np.multiply(p, p, out=p)
        return out[()]

    def boundary_extension(self):
        return CircleExtension(self)


@dataclass(frozen=True)
class SincKernel(Kernel):
    """Kernel sinc(s - t) = sin(pi (s - t)) / (pi (s - t)) on the real line."""

    name = "sinc"
    domain = "line"
    is_real = True

    def validate_points(self, points):
        return _real_points(points, "sinc kernel")

    def _eval(self, s, t):
        return np.sinc(s - t)

    def boundary_extension(self):
        return SincBandExtension(self)


@dataclass(frozen=True, eq=False)
class ExplicitFeatureKernel(Kernel):
    """Kernel <v_i, v_j> from one finite feature vector per integer index.

    The feature of the first argument carries the conjugate, matching the
    orientation of the closed-form kernels in the zoo.  Boundary extensions
    over weighted atoms are built with :class:`FrameExtension`.
    """

    features: np.ndarray

    name = "explicit-feature"
    domain = "index"

    def __post_init__(self):
        v = np.asarray(self.features, dtype=complex)
        if v.ndim != 2:
            raise ValueError("features must be a (points, dim) array")
        object.__setattr__(self, "features", v)

    @property
    def is_real(self) -> bool:  # type: ignore[override]
        return bool(np.all(self.features.imag == 0))

    def validate_points(self, points):
        return _index_points(points, self.features.shape[0])

    def _eval(self, s, t):
        return np.einsum("...k,...k->...", np.conj(self.features[s]), self.features[t])


# ---------------------------------------------------------------------------
# boundary extensions
# ---------------------------------------------------------------------------

class BoundaryExtension:
    """Evaluation rule for (domain point, boundary point) pairs.

    Calling an extension broadcasts like the kernels do; boundary points are
    validated against the extension's boundary domain.
    """

    def __init__(self, kernel: Kernel):
        self.kernel = kernel

    def __call__(self, s, b):
        return self._eval(self.validate_points(s), self.validate_boundary(b))

    def validate_points(self, s):
        return self.kernel.validate_points(s)

    def _eval(self, s, b):
        raise NotImplementedError

    def validate_boundary(self, b):
        raise NotImplementedError


class CircleExtension(BoundaryExtension):
    """Disk kernel continued to the circle: K^B(z, x) = K(z, e^{2 pi i x}).

    x is the 1-periodic coordinate: the Szego values are
    1 / (1 - conj(z) e^{2 pi i x}), the cantor4 values
    prod_{l < level} (1 + (conj(z) e^{2 pi i x})^(4^l)).
    """

    def validate_boundary(self, b):
        return _real_points(b, "circle coordinate")

    def _eval(self, s, b):
        return self.kernel._eval(s, np.exp(2j * np.pi * b))


class BargmannPlaneExtension(BoundaryExtension):
    """Plane values exp(conj(z) b / 2 - |z|^2 / 4).

    The Gaussian half-density of the plane measure is folded into this rule,
    so boundary products against the standard complex Gaussian quadrature
    (:func:`rkboundary.measures.gauss_hermite_plane`) reproduce the kernel
    with a finite-mass integrator.
    """

    def validate_boundary(self, b):
        z = np.asarray(b, dtype=complex)
        if not np.all(np.isfinite(z)):
            raise DomainError("boundary points must be finite")
        return z

    def _eval(self, s, b):
        out = np.asarray(0.5 * np.conj(s) * b)
        np.subtract(out, 0.25 * np.abs(s) ** 2, out=out)
        np.exp(out, out=out)
        return out[()]


class SincBandExtension(BoundaryExtension):
    """Band values e^{-2 pi i s xi} for frequencies |xi| <= 1/2."""

    def validate_boundary(self, b):
        xi = _real_points(b, "band frequency")
        if np.any(np.abs(xi) > 0.5 + 1e-12):
            raise DomainError("band frequencies must satisfy |xi| <= 1/2")
        return xi

    def validate_points(self, s):
        pts = self.kernel.validate_points(s)
        if np.any(np.abs(pts) > SINC_BAND_MAX_POINT):
            raise DomainError("sinc band points require |s| <= 1e15")
        return pts

    def _eval(self, s, b):
        out = np.asarray(-2j * np.pi * s * b)
        np.exp(out, out=out)
        return out[()]


class FrameExtension(BoundaryExtension):
    """Feature-kernel extension onto finitely many atoms carrying frame vectors.

    Atom ``b`` holds frame vector ``frames[b]``; the boundary value at (i, b)
    is ``<v_i, f_b>`` with the conjugate on the point feature.  When the
    weighted frames resolve the identity (``sum_b w_b f_b f_b^* = I``) the
    atoms with those weights factor the kernel exactly.
    """

    def __init__(self, kernel: ExplicitFeatureKernel, frames):
        if not isinstance(kernel, ExplicitFeatureKernel):
            raise TypeError("frame extensions require an explicit feature kernel")
        super().__init__(kernel)
        f = np.asarray(frames, dtype=complex)
        if f.ndim != 2 or f.shape[1] != kernel.features.shape[1]:
            raise ValueError("frames must be (atoms, dim) with the kernel's feature dim")
        self.frames = f

    def validate_boundary(self, b):
        return _index_points(b, self.frames.shape[0])

    def _eval(self, s, b):
        return np.einsum("...k,...k->...", np.conj(self.kernel.features[s]), self.frames[b])


class PullbackExtension(BoundaryExtension):
    """Extension transported through an atom map: value at (s, b) is the base value at (s, map[b])."""

    def __init__(self, base: BoundaryExtension, atom_map: Mapping):
        super().__init__(base.kernel)
        self.base = base
        self.atom_map = dict(atom_map)

    def validate_boundary(self, b):
        arr = np.asarray(b)
        flat = arr.ravel()
        try:
            mapped = np.asarray([self.atom_map[x] for x in flat.tolist()])
        except KeyError as exc:
            raise DomainError(f"atom {exc.args[0]!r} has no image under the atom map") from None
        return mapped.reshape(arr.shape)

    def _eval(self, s, b):
        # b arrives already mapped by validate_boundary
        return self.base(s, b)


# ---------------------------------------------------------------------------
# sections and element arithmetic
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Section:
    """Ordered point set with its Gram matrix: a finite-resolution kernel space."""

    kernel: Kernel
    points: np.ndarray
    gram: np.ndarray

    @property
    def size(self) -> int:
        return int(self.points.shape[0])


@dataclass(frozen=True, eq=False)
class PdVerdict:
    """Outcome of a positive-semidefiniteness check, with the ascending spectrum."""

    passed: bool
    min_eigenvalue: float
    threshold: float
    eigenvalues: np.ndarray


def pd_check(gram, tol: float = DEFAULT_PSD_TOL) -> PdVerdict:
    """Check a Hermitian matrix for positive semidefiniteness.

    Passes iff the smallest eigenvalue is at least ``-tol`` times the largest
    diagonal entry (a scale-free threshold).  Non-Hermitian input is rejected.
    """
    g = require_hermitian(gram, what="gram matrix")
    if g.size == 0:
        return PdVerdict(True, 0.0, 0.0, np.zeros(0))
    w = np.linalg.eigvalsh(g)
    scale = float(np.max(np.real(np.diag(g))))
    threshold = -tol * max(scale, 0.0)
    return PdVerdict(bool(w[0] >= threshold), float(w[0]), threshold, w)


def build_section(kernel: Kernel, points) -> Section:
    """Assemble and validate the Gram matrix of a point list.

    Rejects point lists containing indistinguishable entries (kernel distance
    below ``DUPLICATE_DIST_TOL``, the metric reading of injectivity) and Gram
    matrices that fail the PSD check.
    """
    pts = np.atleast_1d(kernel.validate_points(points))
    if pts.ndim != 1:
        raise SectionError("points must form a one-dimensional list")
    g = kernel.gram(pts)
    verdict = pd_check(g, DEFAULT_PSD_TOL)
    if not verdict.passed:
        raise SectionError(
            f"gram matrix is not PSD: min eigenvalue {verdict.min_eigenvalue:.3e} "
            f"below threshold {verdict.threshold:.3e}"
        )
    if pts.shape[0] > 1:
        diag = np.real(np.diag(g))
        sq = diag[:, None] + diag[None, :] - 2.0 * np.real(g)
        np.fill_diagonal(sq, np.inf)
        if float(np.min(sq)) < DUPLICATE_DIST_TOL ** 2:
            i, j = divmod(int(np.argmin(sq)), pts.shape[0])
            raise SectionError(
                f"points {i} and {j} are indistinguishable under the kernel metric"
            )
    return Section(kernel=kernel, points=pts, gram=g)


@dataclass(frozen=True, eq=False)
class RkhsElement:
    """Finite combination f = sum_j coeffs[j] * K(points[j], .) over a section."""

    section: Section
    coeffs: np.ndarray


def element(section: Section, coeffs) -> RkhsElement:
    """Wrap a coefficient vector as an element of the section's span."""
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (section.size,):
        raise ValueError(f"need {section.size} coefficients, got shape {c.shape}")
    return RkhsElement(section=section, coeffs=c)


def h_norm_sq(f: RkhsElement) -> float:
    """Squared native-space norm ``sum_{ij} c_i conj(c_j) G_ij`` (see module docstring)."""
    return complex(np.vdot(f.coeffs, np.conj(f.section.gram) @ f.coeffs)).real


def evaluate_element(f: RkhsElement, t):
    """Pointwise values sum_j c_j K(s_j, t), one per point t (a scalar t gives
    shape (1,)), summed by :func:`~rkboundary._linalg.blocked_sum`."""
    return blocked_sum(f.coeffs, f.section.points, f.section.kernel, t)
