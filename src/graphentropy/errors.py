"""Exception types shared across the package."""


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
