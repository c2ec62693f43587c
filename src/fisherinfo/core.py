"""Domain types shared by every other module, plus input validation.

A system trajectory is a time-indexed table of n variables over T uniformly
spaced time steps.  All downstream window arithmetic runs on integer row
indices; the time stamps themselves are carried along as opaque labels for
output (years, quarters, plain step numbers).
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateRange,
    EmptyInput,
    MissingValue,
    NonUniformTimeAxis,
    SmallWindowWarning,
)

# Relative tolerance for "constant spacing" on the time axis.
SPACING_RTOL = 1e-9

# Below this window size the index becomes noisy; warn, do not refuse.
MIN_RECOMMENDED_WINDOW = 8

DEFAULT_WINDOW_SIZE = 8
DEFAULT_INCREMENT = 1
DEFAULT_K = 2.0


@dataclass(frozen=True, eq=False)
class TimeSeriesMatrix:
    """Validated system trajectory: T time steps by n variables.

    Attributes
    ----------
    labels : tuple of str
        One name per variable column.
    times : numpy.ndarray, shape (T,), read-only
        Strictly increasing, uniformly spaced float64 time stamps.
    values : numpy.ndarray, shape (T, n), read-only
        Row j holds the system point at times[j]; every cell is finite.
    sources : tuple of (str, str)
        (name, sha256 hex digest) of each file read into the matrix, in
        reading order; () when no file was.

    Instances are immutable after construction and safe to share across
    concurrent tasks.  Build them through :func:`validate_matrix`.
    """

    labels: tuple[str, ...]
    times: np.ndarray
    values: np.ndarray
    sources: tuple[tuple[str, str], ...] = ()

    @property
    def n_steps(self) -> int:
        return len(self.times)

    @property
    def n_vars(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class StateSize:
    """Per-variable uncertainty half-widths defining the state hyper-rectangle.

    Two points share a state only if, for every variable i, their values
    differ by at most deltas[i].  A delta of 0 means only exactly equal
    values share a state in that dimension; +inf collapses the dimension.
    """

    deltas: tuple[float, ...]

    def __post_init__(self):
        deltas = tuple(float(d) for d in self.deltas)
        if not deltas:
            raise ValueError("state size needs at least one variable")
        for i, d in enumerate(deltas):
            if math.isnan(d) or d < 0:
                raise ValueError(f"state size delta {i} must be >= 0, got {d}")
        object.__setattr__(self, "deltas", deltas)

    def __len__(self) -> int:
        return len(self.deltas)

    def __iter__(self):
        return iter(self.deltas)


@dataclass(frozen=True)
class WindowConfig:
    """Moving-window scheme: window size and increment, in time steps."""

    window_size: int = DEFAULT_WINDOW_SIZE
    increment: int = DEFAULT_INCREMENT

    def __post_init__(self):
        if self.window_size < 2:
            raise ValueError(f"window_size must be >= 2, got {self.window_size}")
        if self.increment < 1:
            raise ValueError(f"increment must be >= 1, got {self.increment}")
        if self.increment > self.window_size:
            raise ValueError(
                "increment must not exceed window_size "
                f"({self.increment} > {self.window_size}): windows must overlap or abut"
            )
        if self.window_size < MIN_RECOMMENDED_WINDOW:
            warnings.warn(
                f"window_size {self.window_size} is below the recommended "
                f"minimum of {MIN_RECOMMENDED_WINDOW} time steps",
                SmallWindowWarning,
                stacklevel=2,
            )


@dataclass(frozen=True)
class SosConfig:
    """Parameters for estimating state sizes from the data.

    k is the Chebyshev multiplier (k=2 guarantees at least 75% coverage for
    any distribution); stable_range is an optional inclusive (first, last)
    index pair into the time axis selecting the stable period, with
    0 <= first < last.  Default is the full series.
    """

    k: float = DEFAULT_K
    stable_range: tuple[int, int] | None = None

    def __post_init__(self):
        if not 0 < self.k < math.inf:
            raise ValueError(f"k must be a positive finite number, got {self.k}")
        if self.stable_range is not None:
            a, b = self.stable_range
            if not (0 <= a < b):
                raise ValueError(f"stable_range must satisfy 0 <= first < last, got {a}:{b}")
            object.__setattr__(self, "stable_range", (int(a), int(b)))


def inclusive_range(
    selection: tuple[int, int] | None, length: int, name: str
) -> tuple[int, int]:
    """The 0-based inclusive (first, last) pair that selection picks from length points.

    None selects all of them.  Raises DegenerateRange, naming the argument,
    the pair and the last index, unless 0 <= first < last <= length - 1: the
    pair must lie within the series and hold at least two points.
    """
    first, last = (0, length - 1) if selection is None else map(int, selection)
    if not 0 <= first < last <= length - 1:
        raise DegenerateRange(
            f"{name} {first}:{last} must lie within 0:{length - 1} ({length} points) "
            "and hold at least 2"
        )
    return first, last


def validate_matrix(
    labels: Sequence[str],
    times: Sequence[float],
    values: Sequence[Sequence[float]] | np.ndarray,
) -> TimeSeriesMatrix:
    """Validate a labeled table of reals into a TimeSeriesMatrix.

    values is a sequence of rows or a 2-D array; times a sequence or a 1-D
    array.  Checks shape, finiteness of every cell, and a strictly
    increasing time axis with constant spacing (relative tolerance 1e-9).
    Values are never altered: the output grid and time column equal the
    input cell for cell, and an input array is copied, not frozen.

    Raises
    ------
    EmptyInput
        No rows, no variables, or no time stamps.
    MissingValue
        A row that is not n numbers (the first, row 0 for an array) or a
        non-finite cell (reported with row and column).
    NonUniformTimeAxis
        Time stamps not one column, not strictly increasing, or spacing not
        constant.
    """
    labels = tuple(str(lab) for lab in labels)
    times = np.array(times, dtype=float)
    if times.ndim != 1:
        raise NonUniformTimeAxis(f"time stamps must form one column, got shape {times.shape}")
    n = len(labels)
    rows = np.atleast_1d(values) if isinstance(values, np.ndarray) else list(values)

    if n == 0:
        raise EmptyInput("no variables: at least one variable column is required")
    if len(times) == 0 or len(rows) == 0:
        raise EmptyInput("no data rows: at least one time step is required")
    if len(rows) != len(times):
        raise NonUniformTimeAxis(f"{len(rows)} value rows but {len(times)} time stamps")

    # one conversion for the whole grid; a bad row or cell is located only on failure
    try:
        grid = np.array(rows, dtype=float)
    except ValueError:  # numpy's error for ragged or nested rows and for a cell that is no number
        _check_rows(rows, n)
        raise
    if grid.shape[1:] != (n,):
        _check_rows(rows, n)
    finite = np.isfinite(grid)
    if not finite.all():
        j, i = (int(k) for k in np.argwhere(~finite)[0])
        raise MissingValue(
            f"non-finite value at row {j}, column {labels[i]!r}: {float(grid[j, i])!r}",
            row=j,
            column=i,
        )

    _check_time_axis(times)

    grid.setflags(write=False)
    times.setflags(write=False)
    return TimeSeriesMatrix(labels=labels, times=times, values=grid)


def _check_rows(rows, n: int) -> None:
    """Raise MissingValue naming the first row that is not a flat row of n numbers."""
    for j, row in enumerate(rows):
        try:
            shape = np.shape(row)
        except ValueError:  # a row that is itself ragged, reported as nested
            shape = ()
        if shape != (n,):
            found = f"has {shape[0]} values" if len(shape) == 1 else "is one value or nested"
            raise MissingValue(f"row {j} {found}, expected {n}", row=j)


def _check_time_axis(times: np.ndarray) -> None:
    finite = np.isfinite(times)
    if not finite.all():
        j = int(finite.argmin())
        raise NonUniformTimeAxis(f"non-finite time stamp {float(times[j])!r}", row=j)
    if len(times) < 2:
        return
    with np.errstate(over="ignore"):  # a step wider than the float range is inf
        steps = np.diff(times)
    rising = steps > 0
    if not rising.all():
        raise NonUniformTimeAxis(
            "time stamps must be strictly increasing", row=int(rising.argmin()) + 1
        )
    # halved stamps have finite steps in the same ratios; halving every axis
    # would round subnormal stamps
    spacings = steps if np.isfinite(steps).all() else np.diff(times * 0.5)
    ref = spacings[0]
    changed = np.abs(spacings - ref) > SPACING_RTOL * np.maximum(abs(ref), np.abs(spacings))
    if changed.any():
        idx = int(changed.argmax())
        raise NonUniformTimeAxis(
            f"spacing changes at step {idx + 1}: "
            f"{float(steps[idx])!r} differs from {float(steps[0])!r}",
            row=idx + 1,
        )
