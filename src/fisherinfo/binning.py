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


@dataclass(frozen=True)
class StateAssignment:
    """Partition of a window's points into states, in discovery order.

    states[k] holds the 0-based window-local indices of the points in the
    k-th discovered state, ascending; the first index of each state is its
    center.  Every index 0..window_length-1 appears in exactly one state.
    """

    states: tuple[tuple[int, ...], ...]
    window_length: int

    def __post_init__(self):
        seen = sorted(i for state in self.states for i in state)
        if seen != list(range(self.window_length)):
            raise ValueError("states do not form a partition of the window")

    @property
    def n_states(self) -> int:
        return len(self.states)

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(state) for state in self.states)


def _as_deltas(delta) -> np.ndarray:
    if isinstance(delta, StateSize):
        return np.asarray(delta.deltas, dtype=float)
    return np.asarray([float(d) for d in delta], dtype=float)


def same_state(a: Sequence[float], b: Sequence[float], delta) -> bool:
    """True iff points a and b lie within one state hyper-rectangle.

    Inclusive in every dimension: |a_i - b_i| <= delta_i for all i.
    delta may be a StateSize or any sequence of non-negative reals.  This
    is the two-point case of bin_window.
    """
    if len(a) != len(b):
        raise DimensionMismatch(f"point lengths disagree: {len(a)}, {len(b)}")
    return bin_window([a, b], delta).n_states == 1


def bin_windows(values, delta, window: int, increment: int = 1) -> np.ndarray:
    """Bin every window of a series at once with the greedy center sweep.

    values is a (T, n) array of points (a 1-D array is one variable);
    windows start at rows 0, increment, 2*increment, ... while a full window
    fits, and are read through a strided view of values, not copied.
    Returns a (windows, window) integer array whose entry [k, j] is the
    discovery-order index of the state that point j of window k joined.

    The sweep visits seed positions s = 0..window-1 for all windows
    together.  In every window whose point s is still unbinned, that point
    seeds the window's next state, and each still-unbinned point s..window-1
    within delta of it joins.  Temporaries hold (windows, window - s)
    values, one variable at a time.

    Raises DimensionMismatch when the points and delta disagree on the
    number of variables.
    """
    pts = np.asarray(values, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    d = _as_deltas(delta)
    if pts.shape[1] != d.shape[0]:
        raise DimensionMismatch(
            f"points have {pts.shape[1]} variables but state size has {d.shape[0]}"
        )

    windows = np.lib.stride_tricks.sliding_window_view(pts, window, axis=0)[::increment]
    labels = np.full((len(windows), window), -1, dtype=np.min_scalar_type(-window))
    found = np.zeros(len(windows), dtype=np.intp)  # states discovered so far, per window
    for s in range(window):
        seeding = np.flatnonzero(labels[:, s] < 0)
        if seeding.size == 0:
            continue
        inside = labels[seeding, s:] < 0
        for i, d_i in enumerate(d):
            x = windows[seeding, i, s:]
            # a column spanning more than the float range overflows to inf,
            # which compares the same way: only an infinite delta admits it;
            # a nan or infinite point differs from every point by nan
            with np.errstate(over="ignore", invalid="ignore"):
                inside &= np.abs(x - x[:, :1]) <= d_i
        inside[:, 0] = True  # the seed is in its own state even when nan
        hit, offset = np.nonzero(inside)
        labels[seeding[hit], s + offset] = found[seeding[hit]]
        found[seeding] += 1
    return labels


def state_counts(labels: np.ndarray) -> np.ndarray:
    """Points per state of each window, in discovery order.

    labels is the output of bin_windows.  Row k of the (windows, window)
    result holds window k's state sizes, padded with zeros on the right.
    """
    n_windows, window = labels.shape
    flat = labels + window * np.arange(n_windows)[:, None]
    return np.bincount(flat.ravel(), minlength=n_windows * window).reshape(n_windows, window)


def bin_window(points: Sequence[Sequence[float]], delta) -> StateAssignment:
    """Bin one window of points into states with the greedy center sweep.

    Points are swept in time order.  The earliest unbinned point becomes the
    center of a new state; every still-unbinned point within delta of that
    center (in all dimensions at once) joins it.  A point consumed by an
    earlier state is never reconsidered.  This is bin_windows applied to a
    single window.

    Returns a StateAssignment whose states appear in discovery order.

    Raises EmptyInput for zero points and DimensionMismatch when the points
    and delta disagree on the number of variables.
    """
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        raise EmptyInput("cannot bin an empty window")
    labels = bin_windows(pts, delta, len(pts))[0]
    states = tuple(
        tuple(np.flatnonzero(labels == k).tolist()) for k in range(int(labels.max()) + 1)
    )
    return StateAssignment(states=states, window_length=len(pts))
