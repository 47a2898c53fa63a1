"""Exception types raised by the spectral_forge package."""

__all__ = [
    "SpectralForgeError",
    "DimensionMismatch",
    "NonFiniteValue",
    "NotHermitian",
    "NotNormal",
    "NoConvergence",
    "NotCommuting",
    "ScaleLimit",
    "BadSpec",
    "FileError",
    "ParseError",
]


class SpectralForgeError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(SpectralForgeError):
    """Operands act on spaces of different dimension."""


class NonFiniteValue(SpectralForgeError):
    """A matrix entry, weight, or function value is NaN or infinite."""


class NotHermitian(SpectralForgeError):
    """Input fails the Hermitian test at the requested tolerance."""


class NotNormal(SpectralForgeError):
    """Input fails the normality test at the requested tolerance."""


class NoConvergence(SpectralForgeError):
    """A Jacobi solve stopped above its target: its rotation budget ran
    out, its sweeps stalled, or they reached the relative rounding floor
    first."""


class NotCommuting(SpectralForgeError):
    """Two spectral measures (or their projections) fail to commute."""


class ScaleLimit(SpectralForgeError):
    """Operator norm past the pipeline's ``NORM_LIMIT``, the end of its
    documented range, without ``force_scale``; or an entry past 2^128,
    which every route refuses."""


class BadSpec(SpectralForgeError):
    """An operator specification is malformed or incomplete."""


class FileError(SpectralForgeError):
    """A file could not be read or written."""


class ParseError(SpectralForgeError):
    """A document is not valid JSON or violates the expected schema."""
