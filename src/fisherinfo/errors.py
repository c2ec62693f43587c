"""Exceptions and warning categories shared across the package."""


class FisherInfoError(Exception):
    """Base class for every error raised by fisherinfo."""


# --- input validation ---

class EmptyInput(FisherInfoError):
    """The input table has no rows or no variables."""


class MissingValue(FisherInfoError):
    """A cell of the input table is missing or non-finite."""

    def __init__(self, message, row=None, column=None):
        super().__init__(message)
        self.row = row
        self.column = column


class NonUniformTimeAxis(FisherInfoError):
    """Time stamps are not strictly increasing with constant spacing.

    row is the 0-based index of the first offending time stamp, when known.
    """

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


# --- state binning ---

class DimensionMismatch(FisherInfoError):
    """Points or state sizes disagree on the number of variables."""


class EmptyWindow(FisherInfoError):
    """A window with zero points cannot be binned."""


# --- index computation ---

class DegenerateRange(FisherInfoError):
    """The stable range holds fewer than two points, or lies outside the series."""


class SeriesTooShort(FisherInfoError):
    """The series is shorter than one window."""


# --- regime classification ---

class RangeTooShort(FisherInfoError):
    """The analysis range holds fewer than two index points."""


# --- file input/output ---

class ParseError(FisherInfoError):
    """A CSV cell could not be parsed."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


class EmptySeries(FisherInfoError):
    """An index series with no points cannot be plotted."""


# --- remote data ---

class NetworkError(FisherInfoError):
    """The remote API was unreachable, or offline mode had no cached copy."""


class NotFound(FisherInfoError):
    """Unknown indicator or country code."""


class GapInSeries(FisherInfoError):
    """Years missing inside the requested range; gaps are reported, never imputed."""


class RangeMismatch(FisherInfoError):
    """Series to be assembled do not cover identical year ranges."""


# --- warning categories ---

class SmallWindowWarning(UserWarning):
    """Window shorter than the empirically recommended eight time steps."""


class ConstantVariableWarning(UserWarning):
    """A variable has zero variance over the estimation range; its state size is 0."""


class SosPrecedenceWarning(UserWarning):
    """Explicit state sizes supplied; estimation parameters are ignored."""
