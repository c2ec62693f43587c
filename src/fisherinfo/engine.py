"""Discrete Fisher information over sliding windows.

The index for one window is computed from the probability of observing each
discrete state of the system: with amplitudes q_i = sqrt(P_i) listed in
discovery order and padded with zeros at both ends,

    FI = 4 * sum_i (q_i - q_{i+1})^2

which ranges over (0, 8]; a window whose points all share one state scores
exactly 8 (maximal order), and the value shrinks as the window spreads over
more states.  One value is computed per window and attributed to the
window's last time step, so only past data enter each point.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .binning import StateAssignment, bin_windows, state_counts
from .core import SosConfig, StateSize, TimeSeriesMatrix, WindowConfig
from .errors import ConstantVariableWarning, DegenerateRange, SeriesTooShort

# Sum of state probabilities must reproduce 1 to this absolute tolerance.
PROBABILITY_ATOL = 1e-12

# Upper bound of the index: a single state scores 4 * (1 + 1).
FI_MAX = 8.0


@dataclass(frozen=True)
class StateDistribution:
    """Probabilities and amplitudes of one window's states, discovery order.

    probabilities[i] is the fraction of window points in state i (each in
    (0, 1], summing to 1); amplitudes[i] = sqrt(probabilities[i]).
    """

    probabilities: tuple[float, ...]
    amplitudes: tuple[float, ...]

    def __post_init__(self):
        if not self.probabilities:
            raise ValueError("a distribution needs at least one state")
        for p in self.probabilities:
            if not (0.0 < p <= 1.0):
                raise ValueError(f"state probability {p} outside (0, 1]")
        if abs(math.fsum(self.probabilities) - 1.0) > PROBABILITY_ATOL:
            raise ValueError("state probabilities do not sum to 1")

    @property
    def n_states(self) -> int:
        return len(self.probabilities)


@dataclass(frozen=True)
class FiPoint:
    """One index value, stamped with its window's last time label.

    window_start_index / window_end_index are inclusive row indices into
    the source matrix.
    """

    time_label: float
    fi: float
    m_states: int
    window_start_index: int
    window_end_index: int

    def __post_init__(self):
        if not 0.0 < self.fi <= FI_MAX:
            raise ValueError(f"index value {self.fi} outside (0, {FI_MAX}]")
        if self.m_states < 1:
            raise ValueError(f"state count must be >= 1, got {self.m_states}")


@dataclass(frozen=True, eq=False)
class FiSeries:
    """Index values for every full window, in time order, held as columns.

    Window k covers rows start[k] .. end[k] inclusive (end = start +
    window_size - 1); its index value fi[k] and state count m_states[k] are
    stamped with time[k], the time label of row end[k].  The four stored
    arrays are read-only copies of what the constructor was given.

    Raises ValueError when the columns differ in length, a value lies
    outside (0, 8] or a state count is below 1.
    """

    time: np.ndarray
    fi: np.ndarray
    m_states: np.ndarray
    start: np.ndarray
    config: WindowConfig
    state_size: StateSize

    def __post_init__(self):
        for name, dtype in (("time", float), ("fi", float), ("m_states", np.intp),
                            ("start", np.intp)):
            column = np.array(getattr(self, name), dtype=dtype)
            column.setflags(write=False)
            object.__setattr__(self, name, column)
        if not len(self.time) == len(self.fi) == len(self.m_states) == len(self.start):
            raise ValueError("series columns differ in length")
        outside = ~((self.fi > 0.0) & (self.fi <= FI_MAX))
        if outside.any():
            raise ValueError(
                f"index value {float(self.fi[outside.argmax()])} outside (0, {FI_MAX}]"
            )
        too_few = self.m_states < 1
        if too_few.any():
            raise ValueError(
                f"state count must be >= 1, got {int(self.m_states[too_few.argmax()])}"
            )

    @property
    def end(self) -> np.ndarray:
        return self.start + (self.config.window_size - 1)

    @cached_property
    def points(self) -> tuple[FiPoint, ...]:
        """The series as FiPoint records, built on first use."""
        return tuple(map(FiPoint, self.time.tolist(), self.fi.tolist(),
                         self.m_states.tolist(), self.start.tolist(), self.end.tolist()))

    def __len__(self) -> int:
        return len(self.fi)

    def __iter__(self) -> Iterator[FiPoint]:
        return iter(self.points)

    def fi_values(self) -> tuple[float, ...]:
        return tuple(self.fi.tolist())

    def time_labels(self) -> tuple[float, ...]:
        return tuple(self.time.tolist())


def sample_sd(xs: Sequence[float]) -> float:
    """Sample standard deviation (divisor N-1) of a sequence of reals."""
    n = len(xs)
    if n < 2:
        raise DegenerateRange(f"need at least 2 points for a standard deviation, got {n}")
    mean = math.fsum(xs) / n
    return math.sqrt(math.fsum((x - mean) ** 2 for x in xs) / (n - 1))


def estimate_state_size(matrix: TimeSeriesMatrix, cfg: SosConfig | None = None) -> StateSize:
    """Estimate per-variable state sizes as k sample standard deviations.

    For each variable the sample SD over the stable range (default: the
    whole series) is multiplied by the Chebyshev factor k, so that at least
    1 - 1/k^2 of a stationary variable's observations fall within one state
    size of its mean regardless of distribution (75% for the default k=2).

    A constant variable yields a state size of 0 with a
    ConstantVariableWarning; it is not an error.

    Raises DegenerateRange when the stable range holds fewer than two
    points or lies outside the series.
    """
    if cfg is None:
        cfg = SosConfig()
    t_count = matrix.n_steps
    if cfg.stable_range is None:
        a, b = 0, t_count - 1
    else:
        a, b = cfg.stable_range
        if b > t_count - 1:
            raise DegenerateRange(
                f"stable_range {a}:{b} exceeds the last time index {t_count - 1}"
            )
    if b - a + 1 < 2:
        raise DegenerateRange(
            f"stable_range {a}:{b} holds {b - a + 1} point(s); need at least 2"
        )

    deltas = []
    for i, label in enumerate(matrix.labels):
        sd = sample_sd(matrix.values[a:b + 1, i].tolist())
        if sd == 0.0:
            warnings.warn(
                f"variable {label!r} is constant over the stable range; "
                "its state size is 0 (only exactly equal values will share a state)",
                ConstantVariableWarning,
                stacklevel=2,
            )
        deltas.append(cfg.k * sd)
    return StateSize(deltas=tuple(deltas))


def state_probabilities(assignment: StateAssignment) -> StateDistribution:
    """Probability of each state: its point count over the window length."""
    return _distribution(assignment.counts, assignment.window_length)


def _distribution(counts: Sequence[int], window_length: int) -> StateDistribution:
    probs = tuple(count / window_length for count in counts)
    return StateDistribution(
        probabilities=probs,
        amplitudes=tuple(math.sqrt(p) for p in probs),
    )


def fisher_index(dist: StateDistribution) -> float:
    """Index of one window from its state distribution.

    The amplitude sequence is padded with zeros at both ends before summing
    squared successive differences, so a lone state contributes its full
    probability twice and FI(single state) = 8 exactly.
    """
    q = (0.0, *dist.amplitudes, 0.0)
    return 4.0 * math.fsum((q[i] - q[i + 1]) ** 2 for i in range(len(q) - 1))


def window_count(t_count: int, cfg: WindowConfig) -> int:
    """Number of full windows a series of t_count steps yields."""
    if t_count < cfg.window_size:
        return 0
    return (t_count - cfg.window_size) // cfg.increment + 1


def sliding_fi(
    matrix: TimeSeriesMatrix,
    delta: StateSize,
    cfg: WindowConfig | None = None,
) -> FiSeries:
    """Compute the index for every full window of the series.

    Windows start at rows 0, increment, 2*increment, ... while a full
    window still fits; each is binned, converted to a state distribution
    and scored, and the value is stamped with the window's last time
    label.  Trailing partial windows are dropped, never padded.

    All windows are binned together by one sweep (binning.bin_windows).
    The index depends on a window's state counts only, so each distinct
    count tuple is scored once.

    Raises SeriesTooShort when the series holds fewer steps than one window.
    """
    if cfg is None:
        cfg = WindowConfig()
    t_count = matrix.n_steps
    w = cfg.window_size
    if t_count < w:
        raise SeriesTooShort(f"series has {t_count} steps but the window needs {w}")

    counts = state_counts(bin_windows(matrix.values, delta, w, cfg.increment))
    if not (counts.sum(axis=1) == w).all():
        raise ValueError("states do not form a partition of the window")
    # one row of bytes per window: equal count tuples have equal bytes
    packed = np.ascontiguousarray(counts, dtype=np.min_scalar_type(w))
    keys = packed.view(np.dtype((np.void, packed.strides[0]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    scores = [fisher_index(_distribution(row[row > 0].tolist(), w)) for row in counts[first]]
    start = np.arange(len(counts)) * cfg.increment
    return FiSeries(
        time=np.asarray(matrix.times)[start + (w - 1)],
        fi=np.asarray(scores)[inverse.reshape(-1)],
        m_states=np.count_nonzero(counts, axis=1),
        start=start,
        config=cfg,
        state_size=delta,
    )
