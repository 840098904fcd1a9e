"""High-dimensional two-sample mean testing with nonlinear eigenvalue shrinkage.

The library provides a family of two-sample mean-shift detectors built around
a rotation-equivariant shrinkage estimate of the covariance, together with a
seeded Monte Carlo harness for null-distribution checks and ROC comparisons.
"""

from .detectors import (
    DetectorKind,
    ScoreResult,
    bs96_score,
    cq10_score,
    hotelling_score,
    lappw_score,
    lw_score,
    mahalanobis_score,
)
from .errors import (
    DegenerateSpectrumError,
    DegenerateVarianceError,
    DomainError,
    HdTestError,
    SingularCovarianceError,
    StructuralError,
    UnsupportedAspectRatioError,
)
from .shrinkage import (
    LoadingResult,
    optimize_loading,
    shrink_eigenvalues,
)
from .simulation import (
    NormalitySummary,
    RocCurve,
    ScoreTable,
    SimulationConfig,
    generate_sample,
    make_covariance,
    normality_check,
    null_z_samples,
    roc_curve,
    run_trials,
    sample_sphere,
)
from .spectral import (
    SamplePair,
    SpectralDecomposition,
    decompose_pair,
    pooled_scm,
    quad_form_inverse,
    read_matrix_csv,
    spectral_decompose,
    write_matrix_csv,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "HdTestError",
    "StructuralError",
    "DomainError",
    "SingularCovarianceError",
    "UnsupportedAspectRatioError",
    "DegenerateSpectrumError",
    "DegenerateVarianceError",
    # spectral core
    "SamplePair",
    "SpectralDecomposition",
    "pooled_scm",
    "spectral_decompose",
    "decompose_pair",
    "quad_form_inverse",
    "read_matrix_csv",
    "write_matrix_csv",
    # shrinkage
    "shrink_eigenvalues",
    "LoadingResult",
    "optimize_loading",
    # detectors
    "DetectorKind",
    "ScoreResult",
    "mahalanobis_score",
    "hotelling_score",
    "lw_score",
    "bs96_score",
    "cq10_score",
    "lappw_score",
    # simulation
    "make_covariance",
    "sample_sphere",
    "generate_sample",
    "SimulationConfig",
    "ScoreTable",
    "run_trials",
    "RocCurve",
    "roc_curve",
    "NormalitySummary",
    "normality_check",
    "null_z_samples",
]
