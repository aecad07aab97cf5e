"""Exception types raised by the library and the CLI.

as_int and as_real check a number argument's type for the library's entry
points, so that a wrong-typed number raises a typed error at once rather
than a TypeError deep inside.
"""

import numbers
import operator


class StatesepError(Exception):
    """Base class for all errors raised by this package."""


# --- linear algebra ---

class BadMatrixError(StatesepError, ValueError):
    """An operand that is not a square numeric matrix: a wrong shape, an
    empty matrix, or input numpy cannot read as complex numbers."""


class NotHermitianError(StatesepError):
    """Matrix asymmetry max |M - M^dag| exceeds the Hermiticity tolerance."""


class NoConvergenceError(StatesepError):
    """An iterative method stopped short: hermitian_eig's QL iteration past
    30 iterations per unit of dimension, or the master LP."""


# --- state / measurement validation ---

class NotPositiveError(StatesepError):
    """An eigenvalue falls below the positivity floor."""


class BadTraceError(StatesepError):
    """Trace deviates from 1 beyond tolerance."""


class SpectrumOutOfRangeError(StatesepError):
    """A candidate measurement has an eigenvalue outside [0, 1] (within tolerance)."""


class LengthMismatchError(StatesepError):
    """Weight vector length does not match the state-set size."""


class BadRankError(StatesepError):
    """Requested rank outside 1..dim."""


class BadWeightsError(StatesepError):
    """Mixture weights are negative or do not sum to 1 within tolerance."""


class DimensionMismatchError(StatesepError):
    """Operators or state sets do not share a common dimension."""


class EmptySetError(StatesepError):
    """A StateSet was built with no states."""


# --- expectation gaps ---

class ImaginaryResidueError(StatesepError):
    """Tr(T rho) has an imaginary part beyond tolerance: an operator is not Hermitian."""


class GapOutOfBandError(StatesepError):
    """An expectation gap falls outside [-1, 1]: T is not a valid POVM element."""


# --- oracles ---

class WrongDimensionError(StatesepError):
    """Oracle restricted to a fixed dimension was called with another."""


class BadGridStepError(StatesepError):
    """Grid resolution outside the supported range."""


class SetTooLargeError(StatesepError):
    """State set too large for exhaustive simplex gridding."""


# --- solver ---

class BadConfigError(StatesepError, ValueError):
    """A limit out of range or of the wrong type: rounds or trials not an
    integer >= 1, eps not a number > 0, target gap not a finite number > 0,
    a seed that is not an integer (certify_forward, random_density), or a
    grid_step that is not a real number (the grid oracles)."""


# --- files / CLI ---

class ParseError(StatesepError):
    """Malformed state-set or measurement file."""


class MultiStateFileError(StatesepError):
    """A single-state file was expected but several states were found."""


class InvalidMeasurementError(StatesepError):
    """Measurement file does not describe a valid POVM element."""


# --- number arguments ---

def as_int(value, name: str, error: type[StatesepError] = BadConfigError) -> int:
    """value as a Python int: any Python or numpy integer but a bool.

    Anything else, a float with an integral value included, raises `error`.
    """
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise error(f"{name} must be an integer, got {value!r}")


def as_real(value, name: str) -> float:
    """value as a float: any Python or numpy real but a bool.

    An integer too large for a float becomes an infinity of its sign.
    Anything else, None, a string or a complex number, raises
    BadConfigError.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            return float("inf") if value > 0 else float("-inf")
    raise BadConfigError(f"{name} must be a real number, got {value!r}")
