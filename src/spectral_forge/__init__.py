"""Numerical toolkit for normal operators at desk scale.

Splits a normal matrix T into the bounded pair A = (I + T*T)^-1 and
B = TA from one one-sided Jacobi solve of T, builds discrete
projection-valued measures for both, forms their product measure, and
pushes it forward through (t, w) -> w/t to recover the spectral measure
of T without diagonalizing T directly.  Every stage ships with
residual-based verification.
"""

from .decomposition import Decomposition, decompose, norm_bounds, verify
from .errors import (
    BadSpec,
    DimensionMismatch,
    FileError,
    NoConvergence,
    NonFiniteValue,
    NotCommuting,
    NotHermitian,
    NotNormal,
    ParseError,
    ScaleLimit,
    SpectralForgeError,
)
from .gallery import KINDS, OperatorSpec, generate
from .io import (
    read_decomposition,
    read_matrix,
    read_pvm,
    read_report,
    write_decomposition,
    write_matrix,
    write_pvm,
    write_report,
)
from .linalg import (
    EigenSystem,
    OperatorMatrix,
    Tolerances,
    cluster_points,
    frobenius,
    hermitian_eig,
    is_hermitian,
    is_normal,
    normal_eig,
    op_norm_2,
)
from .measures import (
    SpectralMeasure,
    pvm_from_normal,
    pvm_integrate,
    pvm_validate,
)
from .pipeline import PipelineResult, spectral_theorem
from .product import (
    ProductMeasure,
    commute_check,
    fubini_check,
    marginal_residuals,
    product_measure,
    product_validate,
    pushforward,
)
from .report import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "BadSpec", "DimensionMismatch", "FileError", "NoConvergence",
    "NonFiniteValue", "NotCommuting", "NotHermitian", "NotNormal",
    "ParseError", "ScaleLimit", "SpectralForgeError",
    "OperatorMatrix", "EigenSystem", "Tolerances",
    "frobenius", "is_hermitian", "is_normal",
    "hermitian_eig", "normal_eig", "op_norm_2",
    "cluster_points",
    "Decomposition", "decompose", "verify", "norm_bounds",
    "SpectralMeasure", "pvm_from_normal", "pvm_integrate", "pvm_validate",
    "ProductMeasure", "commute_check", "product_measure",
    "product_validate", "marginal_residuals", "fubini_check",
    "pushforward",
    "PipelineResult", "spectral_theorem",
    "OperatorSpec", "generate", "KINDS",
    "read_matrix", "write_matrix", "read_pvm", "write_pvm",
    "read_decomposition", "write_decomposition",
    "read_report", "write_report",
    "VerificationReport",
]
