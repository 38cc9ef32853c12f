"""Exception types shared across the library.

Every error carries enough context to reconstruct the offending input;
none of them is ever used for control flow on valid data.
"""

from __future__ import annotations


class RadoLabError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(RadoLabError):
    pass


class DuplicatePoint(RadoLabError):
    pass


class NotSymmetric(RadoLabError):
    """A vertex without its negation in a would-be unit ball."""


class DegenerateSpan(RadoLabError):
    """Vertices lie in a proper subspace, so the gauge is not a norm."""


class NotOnSphere(RadoLabError):
    """Extreme-point predicates require an argument of norm exactly 1."""


class NotUnitNorm(RadoLabError):
    pass


class OutOfDomain(RadoLabError, ValueError):
    """An argument outside its mathematical domain (a count below 1, p outside [0, 1])."""


class NotInjective(RadoLabError):
    """A finite map given as pairs repeats a domain or image point."""


class NotAffineBasis(RadoLabError):
    pass


class NotAnIsometry(RadoLabError):
    pass


class TooManyVertices(RadoLabError):
    """Brute-force isometry group enumeration guard tripped."""


class WindowTooSmall(RadoLabError):
    """Rejection sampling exceeded its retry budget."""


class IndexOutOfRange(RadoLabError):
    pass


class CrossCheckFailure(RadoLabError):
    """Two independent computations of the same object disagree.

    This always indicates an implementation bug, never bad input.
    """


class SingularMatrix(RadoLabError):
    pass


class BadRational(RadoLabError):
    """A config value was not an exact integer or p/q literal."""


class BadGraph(RadoLabError):
    """A graph file whose edges are not distinct integer pairs i < j of point indices."""


class BadFile(RadoLabError):
    """A file that cannot be read or written, is not JSON, or lacks a field of its format."""


class UnknownBuiltin(RadoLabError):
    pass


class UnknownSubcommand(RadoLabError):
    pass
