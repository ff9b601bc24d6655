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

from ._linalg import (
    NotHermitianError,
    NotPositiveSemidefiniteError,
    pivoted_cholesky,
)
from .boundary import (
    BoundaryMatrix,
    CommutingReport,
    MembershipReport,
    MorphismReport,
    ProjectionResult,
    adjoint_apply,
    boundary_gram,
    boundary_transform,
    commuting_diagram_defect,
    isometry_defect,
    isometry_norms,
    membership_defect,
    morphism_check,
    onto_residual,
    pencil_eigenvalues,
)
from .gaussian import (
    GaussianEnsemble,
    SampleBatch,
    build_ensemble,
    covariance_gap,
    empirical_covariance,
    sample,
)
from .kernels import (
    BargmannKernel,
    BargmannPlaneExtension,
    BoundaryExtension,
    Cantor4CircleExtension,
    Cantor4Kernel,
    DomainError,
    ExplicitFeatureKernel,
    ExplicitGramKernel,
    FrameExtension,
    Kernel,
    PdVerdict,
    PullbackExtension,
    RkhsElement,
    Section,
    SectionError,
    SincBandExtension,
    SincKernel,
    SzegoCircleExtension,
    SzegoKernel,
    build_section,
    dist_k,
    element,
    evaluate_element,
    h_norm_sq,
    pd_check,
)
from .measures import (
    QuadMeasure,
    atomic,
    band_gauss_legendre,
    cantor4_fourier,
    cantor_exact,
    cantor_ifs,
    gauss_hermite_plane,
    periodic_uniform,
    pushforward,
    scale_measure,
)
from .reconstruct import (
    lambda4_frequency_columns,
    lambda4_set,
    parseval_table,
    shannon_reconstruct,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # kernels and sections
    "Kernel",
    "SzegoKernel",
    "BargmannKernel",
    "Cantor4Kernel",
    "SincKernel",
    "ExplicitGramKernel",
    "ExplicitFeatureKernel",
    "BoundaryExtension",
    "SzegoCircleExtension",
    "Cantor4CircleExtension",
    "BargmannPlaneExtension",
    "SincBandExtension",
    "FrameExtension",
    "PullbackExtension",
    "Section",
    "RkhsElement",
    "PdVerdict",
    "DomainError",
    "SectionError",
    "build_section",
    "element",
    "pd_check",
    "h_norm_sq",
    "evaluate_element",
    "dist_k",
    # measures
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
    # boundary machinery
    "BoundaryMatrix",
    "MembershipReport",
    "ProjectionResult",
    "MorphismReport",
    "CommutingReport",
    "boundary_gram",
    "membership_defect",
    "isometry_defect",
    "isometry_norms",
    "boundary_transform",
    "adjoint_apply",
    "pencil_eigenvalues",
    "onto_residual",
    "morphism_check",
    "commuting_diagram_defect",
    # gaussian ensembles
    "GaussianEnsemble",
    "SampleBatch",
    "build_ensemble",
    "sample",
    "empirical_covariance",
    "covariance_gap",
    # reconstruction
    "lambda4_set",
    "lambda4_frequency_columns",
    "shannon_reconstruct",
    "parseval_table",
    # shared linear algebra
    "NotHermitianError",
    "NotPositiveSemidefiniteError",
    "pivoted_cholesky",
]
