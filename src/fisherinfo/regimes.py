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

from .engine import FiSeries
from .errors import DegenerateRange

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


def _values_and_steps(series) -> tuple[list[float], list[float]]:
    """Index values and their time-step positions from a series or plain sequence."""
    if isinstance(series, FiSeries):
        return series.fi.tolist(), series.end.astype(float).tolist()
    values = [float(v) for v in series]
    return values, [float(i) for i in range(len(values))]


def _resolve_range(length: int, index_range: tuple[int, int] | None) -> tuple[int, int]:
    if index_range is None:
        a, b = 0, length - 1
    else:
        a, b = int(index_range[0]), int(index_range[1])
    if not (0 <= a <= b <= length - 1):
        raise DegenerateRange(
            f"range {a}:{b} is not a valid inclusive index pair for {length} points"
        )
    if b - a + 1 < 2:
        raise DegenerateRange(f"range {a}:{b} holds fewer than 2 points")
    return a, b


def fi_slope(series: FiSeries | Sequence[float], index_range: tuple[int, int] | None = None) -> float:
    """Ordinary least-squares slope of the index versus time step.

    series may be an FiSeries (slope per time step of the source series,
    honoring the window increment) or a plain sequence of values (slope per
    consecutive position).  index_range is an optional inclusive (first,
    last) pair of point indices; default is the whole series.

    Raises DegenerateRange when fewer than two points are selected.
    """
    values, steps = _values_and_steps(series)
    a, b = _resolve_range(len(values), index_range)
    ys = values[a:b + 1]
    xs = steps[a:b + 1]
    n = len(ys)
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    num = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = math.fsum((x - xbar) ** 2 for x in xs)
    return num / den


def classify_regime(
    series: FiSeries | Sequence[float],
    tol: float = DEFAULT_SLOPE_TOL,
    index_range: tuple[int, int] | None = None,
) -> RegimeVerdict:
    """Classify an index series as stable, declining, or increasing.

    declining iff slope < -tol, increasing iff slope > +tol, stable
    otherwise; a slope equal to +-tol up to float rounding is stable.
    tol must be positive.
    """
    if not tol > 0:
        raise ValueError(f"slope tolerance must be positive, got {tol}")
    values, _ = _values_and_steps(series)
    a, b = _resolve_range(len(values), index_range)
    slope = fi_slope(series, (a, b))
    selected = values[a:b + 1]
    mean_fi = math.fsum(selected) / len(selected)
    bound = tol * (1.0 + _TOL_REL_SLACK)
    if slope < -bound:
        category = RegimeCategory.DECLINING
    elif slope > bound:
        category = RegimeCategory.INCREASING
    else:
        category = RegimeCategory.STABLE
    return RegimeVerdict(category=category, slope=slope, mean_fi=mean_fi, slope_window=(a, b))


def local_maxima(series: FiSeries | Sequence[float]) -> tuple[int, ...]:
    """Indices of points strictly higher than both neighbors.

    Peaks are descriptive only: they mark candidate inflection points in
    the trajectory and carry no weight in classification.  Endpoints are
    never peaks.
    """
    values, _ = _values_and_steps(series)
    return tuple(
        i
        for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1]
    )
