"""Exception types shared across the package.

Every failure mode that callers may want to distinguish gets its own class.
All inherit from :class:`SelfTestingError` so a bare ``except SelfTestingError``
catches any domain failure while leaving programming errors (TypeError and
friends) alone.
"""

from __future__ import annotations

__all__ = [
    "SelfTestingError",
    "DimensionError",
    "HermiticityError",
    "NormalizationError",
    "CoefficientRangeError",
    "AngleRangeError",
    "CoverageError",
    "IsometryConsistencyError",
    "ParseError",
]


class SelfTestingError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionError(SelfTestingError):
    """A dimension argument is out of range (for example d < 2)."""


class HermiticityError(SelfTestingError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NormalizationError(SelfTestingError):
    """A state vector or density matrix fails its normalization check."""


class CoefficientRangeError(SelfTestingError):
    """A Schmidt coefficient is outside the open interval (0, 1)."""


class AngleRangeError(SelfTestingError):
    """A derived angle left its admissible open interval."""


class CoverageError(SelfTestingError):
    """A correlation table required for an operation is missing."""


class IsometryConsistencyError(SelfTestingError):
    """The extraction isometry lost norm beyond the allowed budget."""


class ParseError(SelfTestingError):
    """A JSON input file is malformed or missing required fields."""
