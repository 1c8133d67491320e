"""Exception types raised by the logcave library."""


class LogcaveError(Exception):
    """Base class for all logcave errors."""


class TooFewPoints(LogcaveError):
    """Fewer than two data points were supplied."""


class NonFinite(LogcaveError):
    """The data contain a NaN or infinite entry."""


class Ties(LogcaveError):
    """The data contain duplicate values and jittering is disabled."""

    def __init__(self, value, message=None):
        self.value = value
        super().__init__(message or f"duplicate value in sample: {value!r}")


class LengthMismatch(LogcaveError):
    """Vector lengths are inconsistent with the sample size."""


class DegenerateVariance(LogcaveError):
    """The sample variance is zero, so a normal reference fit is undefined."""


class OutOfRange(LogcaveError):
    """A probability argument lies outside [0, 1]."""


class NonPositiveWeight(LogcaveError):
    """A projection weight is zero or negative."""


class StepFailure(LogcaveError):
    """Objective derivatives could not be evaluated (overflow guard hit)."""


class NoAscent(LogcaveError):
    """Binary line search exhausted its halvings without improving the
    objective.  The solver treats this as a convergence signal."""


class InfeasiblePoint(LogcaveError):
    """A point violates the slope-monotonicity or unit-mass conditions."""


class ParseError(LogcaveError):
    """A non-numeric token was found in an input file."""

    def __init__(self, line_number, token, message=None):
        self.line_number = line_number
        self.token = token
        super().__init__(
            message or f"line {line_number}: cannot parse {token!r} as a number"
        )


class EmptyInput(LogcaveError):
    """An input file contained no data values."""


class BadGrid(LogcaveError):
    """An evaluation grid specification is invalid."""


class BadCount(LogcaveError):
    """A requested draw count is invalid."""


class BadConfig(LogcaveError, ValueError):
    """A solver setting is not a finite positive number (or, for counts, a
    positive integer)."""
