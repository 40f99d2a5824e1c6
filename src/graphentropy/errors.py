"""Exception types shared across the package, and the argument checks, here
so that the numpy-free modules can use them too: check_real, check_integer
(with its optional cap), check_unit of a value in [0, 1], check_symmetric of
a graphon or kernel and open_path of a file path."""

from numbers import Integral, Real

# the largest sample, step or point count a table, curve or grid takes
MAX_POINTS = 10 ** 6


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


# a size above its cap (check_integer's high) is invalid input too
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


def check_integer(name, value, low, high=None):
    """Raise ValueOutOfRange unless value is an integer >= low and not a bool,
    and TooLarge, a ValueOutOfRange, for a size above its cap high."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise ValueOutOfRange(f"{name} must be an integer >= {low}, got {value!r}")
    if high is not None and value > high:
        raise TooLarge(f"{name}={value} exceeds the cap {high}")


def check_real(name, value):
    """Raise ValueOutOfRange unless value is a real number and not a bool."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise ValueOutOfRange(f"{name} must be a real number, got {value!r}")


def check_unit(name, value):
    """Raise ValueOutOfRange unless value is a real number with 0 <= value <= 1
    (NaN fails)."""
    check_real(name, value)
    if not (0.0 <= value <= 1.0):
        raise ValueOutOfRange(f"{name}={value} outside [0,1]")


def check_symmetric(name, a):
    """Raise AsymmetricMatrix unless a is square (empty too) and within 1e-12 of a.T."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise AsymmetricMatrix(f"{name} shape {a.shape} is not square")
    if a.size and abs(a - a.T).max() > 1e-12:
        raise AsymmetricMatrix(f"{name} is not symmetric")


def open_path(name, path, mode="r"):
    """open(path, mode) in UTF-8; raise ValueOutOfRange for a path that cannot
    name a file (a null byte, or a character the file system cannot encode)."""
    try:
        return open(path, mode, encoding="utf-8")
    except ValueError as exc:  # UnicodeEncodeError is one
        raise ValueOutOfRange(f"{name} path {path!r} cannot name a file: {exc}") from None
