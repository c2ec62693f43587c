"""Partition the points of one window into discrete states.

Two points belong to the same state when every variable differs by at most
its uncertainty half-width (inclusive comparison).  The sweep is greedy and
deterministic: the earliest unbinned point seeds a new state, every still
unbinned point inside its hyper-rectangle joins, and the sweep repeats until
no point is left.  Membership is tested against the seeding center only;
there is no transitive chaining.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import StateSize
from .errors import DimensionMismatch, EmptyInput

BLOCK_VALUES = 2**20  # values of one variable per block of the sweep: 8 MiB of float64


@dataclass(frozen=True)
class StateAssignment:
    """Partition of a window's points into states, in discovery order.

    states[k] holds the 0-based window-local indices of the points in the
    k-th discovered state, ascending; the first index of each state is its
    center.  The indices are exactly 0..window_length-1, each in one state.
    """

    states: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        seen = sorted(i for state in self.states for i in state)
        if seen != list(range(len(seen))):
            raise ValueError("states do not form a partition of the window")

    @property
    def window_length(self) -> int:
        return sum(self.counts)

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(state) for state in self.states)


def _sweep(values, delta, window: int, increment: int):
    """Yield (s, seeding, members) for each state the greedy sweep finds.

    Point s seeds a state in each window of seeding, and members[j, l] is
    True when point s + l of window seeding[j] joins it.
    """
    pts = np.asarray(values, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    d = np.asarray(StateSize(delta).deltas)
    if pts.shape[1] != d.shape[0]:
        raise DimensionMismatch(
            f"points have {pts.shape[1]} variables but state size has {d.shape[0]}"
        )
    if len(pts) < window:  # no full window fits
        return

    windows = np.lib.stride_tricks.sliding_window_view(pts, window, axis=0)[::increment]
    step = max(1, BLOCK_VALUES // window)
    # a column spanning more than the float range overflows to inf, which
    # compares the same way: only an infinite delta admits it; a nan or
    # infinite point differs from every point by nan
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(windows), step):
            block = windows[lo:lo + step]
            unbinned = np.ones((len(block), window), dtype=bool)
            for s in range(window):
                seeding = np.flatnonzero(unbinned[:, s])
                if seeding.size == 0:
                    continue
                members = unbinned[seeding, s:]
                for i, d_i in enumerate(d):
                    x = block[seeding, i, s:]  # a gathered copy: |x - seed| is taken in place
                    x -= x[:, :1].copy()
                    members &= np.abs(x, out=x) <= d_i
                    del x  # before the next variable's copy is gathered
                members[:, 0] = True  # the seed is in its own state even when nan
                unbinned[seeding, s:] &= ~members
                yield s, lo + seeding, members


def bin_windows(values, delta, window: int, increment: int = 1) -> np.ndarray:
    """Count each state's points in every window with the greedy center sweep.

    values is a (T, n) array of points (a 1-D array is one variable);
    windows start at rows 0, increment, 2*increment, ... while a full window
    fits, and are read through a strided view of values, not copied.
    Returns a C-contiguous (windows, window) array: counts[k, i] is the
    number of points in window k's i-th discovered state, padded with zeros
    on the right, in the smallest unsigned type that holds window.  The
    sweep takes BLOCK_VALUES // window windows at a time (at least one), so
    a temporary holds at most BLOCK_VALUES values of one variable.

    Raises ValueError for a negative or nan delta, and DimensionMismatch
    when the points and delta disagree on the number of variables.
    """
    n_windows = len(range(0, len(values) - window + 1, increment))
    counts = np.zeros((n_windows, window), dtype=np.min_scalar_type(window))
    found = np.zeros(len(counts), dtype=np.intp)  # states discovered so far, per window
    for _, seeding, members in _sweep(values, delta, window, increment):
        counts[seeding, found[seeding]] = members.sum(axis=1)
        found[seeding] += 1
    return counts


def _uneven(points) -> bool:
    """False when the points are all numbers or all flat sequences of one length."""
    try:
        shapes = {np.shape(p) for p in points}
    except ValueError:  # a point that is itself ragged
        return True
    return len(shapes) > 1 or len(shapes.pop()) > 1


def bin_window(points: Sequence[Sequence[float]], delta) -> StateAssignment:
    """Bin one window of points into states with the greedy center sweep.

    Points are swept in time order.  The earliest unbinned point becomes the
    center of a new state; every still-unbinned point within delta of that
    center (in all dimensions at once) joins it.  A point consumed by an
    earlier state is never reconsidered.  This reads the states from the
    sweep of bin_windows over a single window.

    Returns a StateAssignment whose states appear in discovery order.

    Raises EmptyInput for zero points, ValueError for a negative or nan
    delta or a coordinate that is not a number (None included), and
    DimensionMismatch unless points is a sequence of numbers or of flat
    sequences of one length, or when points and delta differ in variables.
    """
    try:
        pts = np.asarray(points, dtype=float)
    except ValueError:  # numpy's error for ragged points and for a coordinate that is no number
        if not _uneven(points):
            raise
        pts = None
    if pts is None or pts.ndim not in (1, 2):
        raise DimensionMismatch("points must be all numbers or all flat sequences of one length")
    if pts.size == 0:
        raise EmptyInput("cannot bin an empty window")
    # numpy reads None as nan; only a window holding a nan can hold a None
    if np.isnan(pts).any() and any(x is None for x in np.array(points, dtype=object).flat):
        raise ValueError("a coordinate is None, not a number")
    states = tuple(
        tuple((s + np.flatnonzero(members[0])).tolist())
        for s, _, members in _sweep(pts, delta, len(pts), 1)
    )
    return StateAssignment(states=states)
