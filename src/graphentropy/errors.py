"""Exception types shared across the package, and the two scalar argument
checks: check_integer of a whole number and check_unit of a value in [0, 1],
here so that the leaf module `region` can use them too."""

from numbers import Integral


class GraphEntropyError(Exception):
    """Base class for all package errors."""


class AsymmetricMatrix(GraphEntropyError):
    pass


class ValueOutOfRange(GraphEntropyError):
    pass


class EmptyMatrix(GraphEntropyError):
    pass


# the motif errors are invalid input, so each is a ValueOutOfRange
class LoopEdge(ValueOutOfRange):
    pass


class DuplicateEdge(ValueOutOfRange):
    pass


class MotifTooLarge(ValueOutOfRange):
    pass


class DisconnectedMotif(ValueOutOfRange):
    pass


class UnsupportedPower(GraphEntropyError):
    pass


class EdgeDensityMismatch(GraphEntropyError):
    pass


class Infeasible(GraphEntropyError):
    """No optimization start reached the constraint tolerance."""


class DegenerateFit(GraphEntropyError):
    pass


# a census above its size cap is invalid input too
class TooLarge(ValueOutOfRange):
    pass


class NoTransitionFound(GraphEntropyError):
    pass


class SignPatternUnexpected(GraphEntropyError):
    pass


class EmptyTable(GraphEntropyError):
    pass


class FormatError(GraphEntropyError):
    """Malformed graphon/motif file."""


def check_integer(name, value, low):
    """Raise ValueOutOfRange unless value is an integer >= low and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueOutOfRange(f"{name} must be an integer >= {low}, got {value!r}")


def check_unit(name, value):
    """Raise ValueOutOfRange unless 0 <= value <= 1 (NaN fails)."""
    if not (0.0 <= value <= 1.0):
        raise ValueOutOfRange(f"{name}={value} outside [0,1]")
