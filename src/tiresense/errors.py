"""Exception types shared across the package.

Everything raised on purpose derives from :class:`TireSenseError`, so the
command line can map validation failures to a single exit code while real
I/O problems (`OSError`) keep their own.
"""

import sys


def quote_count(n: int) -> str:
    """An input integer as an error quotes it: 12 significant digits, or the float bound."""
    if abs(n) > sys.float_info.max:
        return f"{'below -' if n < 0 else 'above '}{sys.float_info.max:.4g}"
    return f"{n:.12g}"


class TireSenseError(Exception):
    """Base class for all validation and processing errors."""


class ScenarioError(TireSenseError):
    """A scenario or sensor field violates its physical constraints."""


class GeometryError(TireSenseError):
    """Degenerate contact geometry (deflection not smaller than the radius)."""


class ResolutionError(TireSenseError):
    """Sample rate too low to resolve the contact patch."""


class NoPeakError(TireSenseError):
    """Autocorrelation has no usable peak inside the allowed lag window."""


class TooShortError(TireSenseError):
    """Trace does not contain enough complete wheel turns."""


class InvalidCutoffError(TireSenseError):
    """High-pass cutoff outside (0, Nyquist)."""


class RankDeficiencyError(TireSenseError):
    """Least-squares design matrix is singular within tolerance."""


class DenominatorError(TireSenseError):
    """Load measurement denominator too close to zero to invert."""


class InvalidArgumentError(TireSenseError, ValueError):
    """A library call got an argument of the wrong shape or out of range."""


class SchemaError(TireSenseError):
    """File does not match the schema or version this tool writes."""
