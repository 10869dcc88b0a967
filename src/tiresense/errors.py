"""Exception types shared across the package, and how a refusal names its input.

Everything raised on purpose derives from :class:`TireSenseError`.  The
command line maps every exception in :data:`REFUSALS` to a single exit code
and prints it as ``<file>: <reason>``, where ``naming`` gave the file, while
real I/O problems (`OSError`) keep their own code.
"""

import sys
from contextlib import contextmanager


def quote_count(n: int) -> str:
    """A count as an error quotes it: 12 significant digits, or the float bound."""
    if abs(n) > sys.float_info.max:
        return f"{'below -' if n < 0 else 'above '}{sys.float_info.max:.4g}"
    return f"{n:.12g}"


class TireSenseError(Exception):
    """Base class for all validation and processing errors."""

    path = None  # the input the message names, once ``naming`` has named one


class ScenarioError(TireSenseError):
    """A scenario or sensor field violates its physical constraints."""


class NoPeakError(TireSenseError):
    """Autocorrelation has no usable peak inside the allowed lag window."""


class TooShortError(TireSenseError):
    """Trace does not contain enough complete wheel turns."""


class RankDeficiencyError(TireSenseError):
    """Least-squares design matrix is singular within tolerance."""


class DenominatorError(TireSenseError):
    """Load measurement denominator too close to zero to invert."""


class InvalidArgumentError(TireSenseError, ValueError):
    """A library call got an argument of the wrong shape or out of range."""


class SchemaError(TireSenseError):
    """File does not match the schema or version this tool writes."""


# What ends a command with exit code 1: the package's own refusals, and the
# floating-point, overflow and allocation failures that a finite but huge
# input can cause deep in numpy's or Python's arithmetic.
REFUSALS = (TireSenseError, FloatingPointError, OverflowError, MemoryError)


@contextmanager
def naming(path):
    """Prefix ``"<path>: "`` to a refusal raised inside the block, unless an
    inner block already named a file.  A floating-point, overflow or memory
    error comes out as a :class:`TireSenseError` with the same text."""
    try:
        yield
    except REFUSALS as exc:
        error = exc if isinstance(exc, TireSenseError) else TireSenseError(str(exc))
        if error.path is None:
            error.path = path
            error.args = (f"{path}: {error}",)
        raise error
