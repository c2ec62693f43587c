"""Classify an index trajectory into regime categories.

A system is read as being in an orderly dynamic regime while a non-zero
index stays nearly constant; a steady decline signals loss of order and a
possible impending regime shift; a steady increase signals growing
organization.  "Nearly constant" has no published numeric threshold, so the
classifier takes a configurable slope tolerance (default 0.02 index units
per time step, an artifact choice) and always surfaces the raw slope so
users can apply their own judgment.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import inclusive_range
from .engine import FiSeries, fsum_of_squares

DEFAULT_SLOPE_TOL = 0.02

# A slope within this relative distance of the tolerance counts as on it:
# rounding the inputs (say, adding a constant) moves a computed slope by
# ~1e-16 relative, which must not tip a verdict that sits on the boundary.
_TOL_REL_SLACK = 1e-9


class RegimeCategory(str, Enum):
    STABLE = "stable"
    DECLINING = "declining"
    INCREASING = "increasing"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class RegimeVerdict:
    """Classification of an index series with its slope evidence.

    slope is in index units per time step; mean_fi is the arithmetic mean
    over the analyzed range; slope_window is the inclusive (first, last)
    point-index pair that was analyzed.
    """

    category: RegimeCategory
    slope: float
    mean_fi: float
    slope_window: tuple[int, int]


def _columns(series) -> tuple[np.ndarray, np.ndarray]:
    """Index values and their time-step positions from a series or plain sequence."""
    if isinstance(series, FiSeries):
        return series.fi, series.end
    values = np.fromiter(map(float, series), dtype=float)
    return values, np.arange(len(values))


def _fit(series, index_range) -> tuple[float, float, tuple[int, int]]:
    """Least-squares slope per time step and mean of the index over index_range, and the range."""
    values, steps = _columns(series)
    a, b = inclusive_range(index_range, len(values), "index_range")
    xs, ys = steps[a:b + 1].astype(float), values[a:b + 1]
    n = len(ys)
    xbar = math.fsum(xs.tolist()) / n
    ybar = math.fsum(ys.tolist()) / n
    with np.errstate(over="ignore", invalid="ignore"):  # inf and nan as Python floats give them
        dx, dy = xs - xbar, ys - ybar
        num = math.fsum((dx * dy).tolist())
    return num / fsum_of_squares(dx), ybar, (a, b)


def fi_slope(series: FiSeries | Sequence[float], index_range: tuple[int, int] | None = None) -> float:
    """Ordinary least-squares slope of the index versus time step.

    series may be an FiSeries (slope per time step of the source series,
    honoring the window increment) or a plain sequence of values (slope per
    consecutive position).  index_range is an optional inclusive (first,
    last) pair of point indices; default is the whole series.

    Raises DegenerateRange when index_range lies outside the series or
    holds fewer than two points.
    """
    return _fit(series, index_range)[0]


def classify_regime(
    series: FiSeries | Sequence[float],
    tol: float = DEFAULT_SLOPE_TOL,
    index_range: tuple[int, int] | None = None,
) -> RegimeVerdict:
    """Classify an index series as stable, declining, or increasing.

    declining iff slope < -tol, increasing iff slope > +tol, stable
    otherwise; a slope equal to +-tol up to float rounding is stable.
    tol must be positive.  The slope is fi_slope's, bit for bit.
    """
    if not tol > 0:
        raise ValueError(f"slope tolerance must be positive, got {tol}")
    slope, mean_fi, window = _fit(series, index_range)
    bound = tol * (1.0 + _TOL_REL_SLACK)
    if slope < -bound:
        category = RegimeCategory.DECLINING
    elif slope > bound:
        category = RegimeCategory.INCREASING
    else:
        category = RegimeCategory.STABLE
    return RegimeVerdict(category=category, slope=slope, mean_fi=mean_fi, slope_window=window)


def local_maxima(series: FiSeries | Sequence[float]) -> tuple[int, ...]:
    """Indices of points strictly higher than both neighbors.

    Peaks are descriptive only: they mark candidate inflection points in
    the trajectory and carry no weight in classification.  Endpoints are
    never peaks.
    """
    values, _ = _columns(series)
    inner = values[1:-1]
    with np.errstate(invalid="ignore"):  # nan is no peak and no warning
        peaks = (inner > values[:-2]) & (inner > values[2:])
    return tuple((np.flatnonzero(peaks) + 1).tolist())
