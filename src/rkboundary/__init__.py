"""Numerical toolkit for boundary measures of positive definite kernels.

Given a Hermitian positive definite kernel, a boundary measure is a measure
space together with an extension of the kernel to (point, boundary) pairs
whose weighted boundary products reproduce the kernel.  This package verifies
such factorizations at finite resolution, computes the induced boundary
isometries and their adjoints, estimates Carleson embedding constants through
generalized eigenvalue pencils, samples Gaussian ensembles with kernel
covariance, and reconstructs band-limited and Cantor-spectral targets.

The canonical kernel zoo: the Hardy-space kernel on the disk against the unit
circle, the coherent-state kernel on the plane against the complex Gaussian,
the truncated quarter-Cantor product kernel against the quarter-Cantor
measure, and the sinc kernel against its frequency band.
"""

from . import _linalg, boundary, gaussian, kernels, measures, reconstruct
from ._linalg import *
from .boundary import *
from .gaussian import *
from .kernels import *
from .measures import *
from .reconstruct import *

__version__ = "0.1.0"

__all__ = ["__version__", *_linalg.__all__, *kernels.__all__, *measures.__all__,
           *boundary.__all__, *gaussian.__all__, *reconstruct.__all__]
