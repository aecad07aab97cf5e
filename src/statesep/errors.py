"""Exception types raised by the library and the CLI."""


class StatesepError(Exception):
    """Base class for all errors raised by this package."""


# --- linear algebra ---

class NotHermitianError(StatesepError):
    """Matrix asymmetry max |M - M^dag| exceeds the Hermiticity tolerance."""


class NoConvergenceError(StatesepError):
    """An iterative method stopped short: Jacobi at its sweep cap, or the master LP."""


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
    """A state set with no states was passed to the solver."""


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
    """A solver limit out of range: a round cap below 1, or a target gap not finite and > 0."""


# --- files / CLI ---

class ParseError(StatesepError):
    """Malformed state-set or measurement file."""


class MultiStateFileError(StatesepError):
    """A single-state file was expected but several states were found."""


class InvalidMeasurementError(StatesepError):
    """Measurement file does not describe a valid POVM element."""
