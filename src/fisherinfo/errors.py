"""Exceptions and warning categories shared across the package."""


class FisherInfoError(Exception):
    """Base class for every error raised by fisherinfo."""


# --- input validation ---

class EmptyInput(FisherInfoError):
    """Nothing to work on: a table with no rows or variables, an empty window or series."""


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


# --- index computation ---

class DegenerateRange(FisherInfoError):
    """A stable or slope range holds fewer than two points, or lies outside its series."""


class SeriesTooShort(FisherInfoError):
    """The series is shorter than one window."""


# --- file input/output ---

class ParseError(FisherInfoError):
    """An input or cache file could not be parsed: a bad cell, bad CSV syntax or non-UTF-8."""

    def __init__(self, message, line=None, column=None):
        super().__init__(message)
        self.line = line
        self.column = column


# --- remote data ---

class NetworkError(FisherInfoError):
    """The remote API was unreachable, or offline mode had no cached copy."""


class NotFound(FisherInfoError):
    """Unknown indicator or country code."""


class GapInSeries(FisherInfoError):
    """Years missing inside the requested range; gaps are reported, never imputed."""


class RangeMismatch(FisherInfoError):
    """Series to be assembled do not cover identical year ranges."""


# --- aliases: earlier names for the same failures, kept for callers ---

EmptyWindow = EmptyInput
EmptySeries = EmptyInput
RangeTooShort = DegenerateRange


# --- warning categories ---

class SmallWindowWarning(UserWarning):
    """Window shorter than the empirically recommended eight time steps."""


class ConstantVariableWarning(UserWarning):
    """A variable has zero variance over the estimation range; its state size is 0."""


class SosPrecedenceWarning(UserWarning):
    """Explicit state sizes supplied; estimation parameters are ignored."""
