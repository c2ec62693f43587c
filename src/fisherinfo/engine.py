"""Discrete Fisher information over sliding windows.

The index for one window is computed from its state counts alone: state i,
holding c_i of the window's w points in discovery order, has probability
P_i = c_i / w and amplitude q_i = sqrt(P_i), and with the amplitudes padded
with zeros at both ends,

    FI = 4 * sum_i (q_i - q_{i+1})^2

which ranges over (0, 8]; a window whose points all share one state scores
exactly 8 (maximal order), and the value shrinks as the window spreads over
more states.  fisher_index scores one window's counts; sliding_fi scores
every window of a series and returns the values as columns (FiSeries).  One
value is computed per window and attributed to the window's last time step,
so only past data enter each point.
"""
from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

from .binning import bin_windows
from .core import SosConfig, StateSize, TimeSeriesMatrix, WindowConfig, inclusive_range
from .errors import ConstantVariableWarning, DegenerateRange, SeriesTooShort

# Upper bound of the index: a single state scores 4 * (1 + 1).
FI_MAX = 8.0

SD_SCALE = 2.0 ** -600  # takes any finite float below 2**424, where squares stay finite


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

    def __len__(self) -> int:
        return len(self.fi)


def sample_sd(xs: Sequence[float]) -> float:
    """Sample standard deviation (divisor N-1) of a sequence of reals."""
    n = len(xs)
    if n < 2:
        raise DegenerateRange(f"need at least 2 points for a standard deviation, got {n}")
    values = np.asarray(xs, dtype=float)
    try:
        return _sd(values, n)
    except OverflowError:
        # a square or a sum overflowed: redo it on values scaled exactly by a power of two
        return _sd(values * SD_SCALE, n) / SD_SCALE


def _sd(values: np.ndarray, n: int) -> float:
    mean = math.fsum(values.tolist()) / n
    with np.errstate(over="ignore", invalid="ignore"):  # inf or nan, silently, as Python floats
        return math.sqrt(fsum_of_squares(values - mean) / (n - 1))


def fsum_of_squares(deviations: np.ndarray) -> float:
    """math.fsum of the squares, each bit for bit Python's `x ** 2`, that is libm pow(|x|, 2).

    numpy's x * x can differ in the last bit; a finite square that overflows is an OverflowError.
    """
    return math.fsum(map(math.pow, np.abs(deviations).tolist(), repeat(2.0)))


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
    a, b = inclusive_range(cfg.stable_range, matrix.n_steps, "stable_range")

    deltas = []
    for i, label in enumerate(matrix.labels):
        sd = sample_sd(matrix.values[a:b + 1, i])
        if sd == 0.0:
            warnings.warn(
                f"variable {label!r} is constant over the stable range; "
                "its state size is 0 (only exactly equal values will share a state)",
                ConstantVariableWarning,
                stacklevel=2,
            )
        deltas.append(cfg.k * sd)
    return StateSize(deltas=tuple(deltas))


def fisher_index(counts: Sequence[int]) -> float:
    """Index of one window from its state counts, in discovery order.

    State i's probability is counts[i] over the window size (the sum of the
    counts) and its amplitude the square root of that.  The amplitude
    sequence is padded with zeros at both ends before summing squared
    successive differences, so a lone state contributes its full
    probability twice and FI(single state) = 8 exactly.

    Raises ValueError for no counts or a count that is not an integer >= 1.
    """
    try:
        total = sum(map(operator.index, counts))
    except TypeError:  # a count that is not an integer
        total = 0
    if total == 0 or min(counts) < 1:
        raise ValueError(f"state counts must be integers >= 1, at least one, got {counts!r}")
    q = (0.0, *(math.sqrt(c / total) for c in counts), 0.0)
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
    window still fits; each is binned, scored from its state counts, and
    the value is stamped with the window's last time label.  Trailing
    partial windows are dropped, never padded.

    All windows are binned together by one sweep (binning.bin_windows),
    which counts each state's points as it finds the state.  The index
    depends on a window's state counts only, so each distinct count tuple
    is scored once.

    Raises SeriesTooShort when the series holds fewer steps than one window.
    """
    if cfg is None:
        cfg = WindowConfig()
    t_count = matrix.n_steps
    w = cfg.window_size
    if t_count < w:
        raise SeriesTooShort(f"series has {t_count} steps but the window needs {w}")

    _, counts = bin_windows(matrix.values, delta, w, cfg.increment)
    if not (counts.sum(axis=1) == w).all():
        raise ValueError("states do not form a partition of the window")
    # one row of bytes per window: equal count tuples have equal bytes
    keys = counts.view(np.dtype((np.void, counts.strides[0]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    scores = [fisher_index(row[row > 0].tolist()) for row in counts[first]]
    start = np.arange(len(counts)) * cfg.increment
    return FiSeries(
        time=matrix.times[start + (w - 1)],
        fi=np.asarray(scores)[inverse.reshape(-1)],
        m_states=np.count_nonzero(counts, axis=1),
        start=start,
        config=cfg,
        state_size=delta,
    )
