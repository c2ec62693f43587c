import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherinfo import (
    DimensionMismatch,
    EmptyInput,
    EmptyWindow,
    StateAssignment,
    StateSize,
    bin_window,
    same_state,
)
from fisherinfo.binning import bin_windows

from conftest import WORKED_ROWS
from oracle import brute_bin

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)

windows = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.tuples(
        st.lists(
            st.lists(finite_floats, min_size=n, max_size=n),
            min_size=1, max_size=12,
        ),
        st.lists(
            st.floats(min_value=0, max_value=1e6, allow_nan=False),
            min_size=n, max_size=n,
        ),
    )
)



@st.composite
def wide_windows(draw):
    """Up to 32 points of up to 8 variables; any state size may be 0 or inf.

    Half the windows are small integer grids with integer state sizes, so
    that |a - b| = delta ties are common.
    """
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        cells = st.integers(-3, 3).map(float)
        widths = st.sampled_from([0.0, 1.0, 2.0, math.inf])
    else:
        cells = finite_floats
        widths = st.one_of(st.floats(0, 1e6, allow_nan=False), st.sampled_from([0.0, math.inf]))
    points = draw(st.lists(st.lists(cells, min_size=n, max_size=n), min_size=1, max_size=32))
    return points, draw(st.lists(widths, min_size=n, max_size=n))


class TestSameState:
    def test_worked_example_steps_1_and_3_share_a_state(self):
        assert same_state((0.6, 1.5), (0.3, 1.0), (0.5, 1.0)) is True

    def test_worked_example_steps_2_and_4_do_not(self):
        # |2 - 3.5| = 1.5 > 0.5 in the first variable
        assert same_state((2.0, 1.5), (3.5, 4.8), (0.5, 1.0)) is False

    def test_identical_points_always_share(self):
        assert same_state((1.0, 2.0), (1.0, 2.0), (0.0, 0.0)) is True

    def test_boundary_is_inclusive(self):
        assert same_state((0.0,), (0.5,), (0.5,)) is True
        assert same_state((0.0,), (0.5000001,), (0.5,)) is False

    def test_accepts_state_size_objects(self):
        assert same_state((0.0,), (1.0,), StateSize((1.0,))) is True

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            same_state((1.0, 2.0), (1.0,), (0.5, 0.5))
        with pytest.raises(DimensionMismatch):
            same_state((1.0,), (1.0,), (0.5, 0.5))

    def test_span_beyond_the_float_range_shares_only_under_an_infinite_delta(self):
        # 1e308 - (-1e308) overflows to inf; no RuntimeWarning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_state((1e308,), (-1e308,), (math.inf,)) is True
            assert same_state((1e308,), (-1e308,), (1e308,)) is False

    def test_non_finite_points_share_with_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert same_state((math.nan,), (0.0,), (1.0,)) is False
            assert same_state((math.nan,), (math.nan,), (math.inf,)) is False
            assert same_state((math.inf,), (math.inf,), (1.0,)) is False

    def test_points_without_variables_are_empty_input(self):
        with pytest.raises(EmptyInput):
            same_state((), (), ())

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_negative_or_nan_delta_is_refused(self, delta):
        with pytest.raises(ValueError, match="must be >= 0"):
            same_state((0.0,), (0.0,), (delta,))


class TestBinWindow:
    def test_worked_example_partition(self, worked_delta):
        a = bin_window(WORKED_ROWS, worked_delta)
        assert a.states == ((0, 2, 4), (1, 6), (3, 5), (7,))
        assert a.n_states == 4
        assert a.counts == (3, 2, 2, 1)

    def test_infinite_delta_collapses_everything(self):
        a = bin_window(WORKED_ROWS, (math.inf, math.inf))
        assert a.n_states == 1
        assert a.states[0] == tuple(range(8))

    def test_zero_delta_splits_distinct_values(self):
        a = bin_window([(0.0,), (1.0,), (2.0,)], (0.0,))
        assert a.n_states == 3

    def test_zero_delta_keeps_exact_duplicates_together(self):
        a = bin_window([(1.0,), (2.0,), (1.0,)], (0.0,))
        assert a.states == ((0, 2), (1,))

    def test_one_dimensional_shorthand(self):
        a = bin_window([0.0, 0.4, 1.0], (0.5,))
        assert a.states == ((0, 1), (2,))

    def test_empty_window_rejected(self, worked_delta):
        with pytest.raises(EmptyWindow):
            bin_window([], worked_delta)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            bin_window([(1.0, 2.0)], (0.5,))

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_negative_or_nan_delta_is_refused(self, delta):
        with pytest.raises(ValueError, match="must be >= 0"):
            bin_window([(0.0,), (0.0,), (0.0,)], [delta])

    def test_single_point_window(self):
        a = bin_window([(3.0, 4.0)], (0.1, 0.1))
        assert a.states == ((0,),)
        assert a.window_length == 1

    def test_membership_is_center_based_not_transitive(self):
        # 1.0 is within delta of 0.6 but not of the center 0.0
        a = bin_window([(0.0,), (0.6,), (1.0,)], (0.7,))
        assert a.states == ((0, 1), (2,))

    def test_matches_brute_force_on_worked_example(self, worked_delta):
        assert bin_window(WORKED_ROWS, worked_delta).states == brute_bin(
            WORKED_ROWS, worked_delta.deltas
        )


class TestAssignmentInvariants:
    @given(windows)
    @settings(max_examples=200)
    def test_partition_and_discovery_order(self, window):
        points, deltas = window
        a = bin_window(points, deltas)
        # partition: every index exactly once
        flat = sorted(i for state in a.states for i in state)
        assert flat == list(range(len(points)))
        # indices ascend within each state; the first member is the center
        centers = []
        for state in a.states:
            assert list(state) == sorted(state)
            centers.append(state[0])
        # discovery order: centers appear in sweep (time) order
        assert centers == sorted(centers)
        # every non-center member lies within delta of its center
        for state in a.states:
            for i in state:
                assert same_state(points[state[0]], points[i], deltas)

    @given(windows)
    @settings(max_examples=200)
    def test_deterministic(self, window):
        points, deltas = window
        assert bin_window(points, deltas).states == bin_window(points, deltas).states

    @given(windows)
    @settings(max_examples=200)
    def test_agrees_with_brute_force(self, window):
        points, deltas = window
        assert bin_window(points, deltas).states == brute_bin(points, deltas)

    @given(wide_windows())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_brute_force_up_to_32_points_and_8_variables(self, window):
        points, deltas = window
        assert bin_window(points, deltas).states == brute_bin(points, deltas)

    @given(
        st.lists(st.lists(st.integers(-100, 100), min_size=2, max_size=2),
                 min_size=1, max_size=10),
        st.integers(0, 50),
        st.integers(0, 50),
        st.integers(-1000, 1000),
        st.integers(-8, 8),
    )
    @settings(max_examples=200)
    def test_affine_scaling_invariance(self, points, d0, d1, shift, log2_scale):
        # integer data, integer shift, power-of-two scale: exact in floats,
        # so this checks the pure geometry with no rounding noise
        scale = 2.0 ** log2_scale
        base = bin_window(points, (d0, d1))
        moved = [(scale * x + shift, y) for x, y in points]
        assert bin_window(moved, (scale * d0, d1)).states == base.states


def test_enlarging_delta_can_split_later_states():
    """Growing the uncertainty box does NOT always reduce the state count.

    An earlier center can absorb what would have been a later state's
    center, leaving that state's members to split among themselves.  This
    pins the sweep's actual behavior so it is never "fixed" by accident.
    """
    points = [(0.0, -0.5), (3.0, 0.0), (5.0, -1.0), (3.5, 2.0)]
    small = bin_window(points, (2.0, 2.0))
    large = bin_window(points, (3.0, 2.5))
    assert small.n_states == 2
    assert large.n_states == 3


@st.composite
def kernel_cases(draw):
    """Series of 1 to 3 windows of width 2..300 at any increment.

    The widths cross the int8/int16 label and uint8/uint16 count dtypes
    (at 129 and 256).  Points are small integer grids, where |a - b| = delta
    ties are common, or Gaussian values with some nan and +-inf points;
    any state size may be 0 or inf.
    """
    w = draw(st.one_of(st.sampled_from([2, 128, 129, 255, 256, 300]), st.integers(2, 300)))
    inc = draw(st.integers(1, w))
    n = draw(st.integers(1, 3))
    rows = w + draw(st.integers(0, 2)) * inc + draw(st.integers(0, inc - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        values = rng.integers(-2, 3, size=(rows, n)).astype(float)
    else:
        values = rng.normal(size=(rows, n))
        odd = rng.random((rows, n)) < 0.1
        values[odd] = rng.choice([math.nan, math.inf, -math.inf], size=odd.sum())
    deltas = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.0, math.inf]),
                           min_size=n, max_size=n))
    return values, deltas, w, inc


def expected_window(points, deltas):
    """brute_bin's partition of one window as bin_windows' label and count rows."""
    states = brute_bin(points, deltas)
    labels = [0] * len(points)
    for k, state in enumerate(states):
        for j in state:
            labels[j] = k
    return labels, [len(state) for state in states] + [0] * (len(points) - len(states))


class TestBinWindows:
    """The kernel's (labels, counts) contract, window by window against brute_bin."""

    def check(self, values, deltas, w, inc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            labels, counts = bin_windows(values, deltas, w, inc)
        starts = range(0, len(values) - w + 1, inc)
        assert labels.shape == counts.shape == (len(starts), w)
        assert labels.dtype == np.min_scalar_type(-w)
        assert counts.dtype == np.min_scalar_type(w)
        assert labels.flags.c_contiguous and counts.flags.c_contiguous
        for k, a in enumerate(starts):
            want_labels, want_counts = expected_window(values[a:a + w].tolist(), deltas)
            assert labels[k].tolist() == want_labels
            assert counts[k].tolist() == want_counts

    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_window_matches_brute_force(self, case):
        self.check(*case)

    @pytest.mark.parametrize("w", [127, 128, 129, 255, 256, 257])
    def test_dtype_edges_hold_the_largest_label_and_count(self, w):
        distinct = np.arange(w + 1, dtype=float).reshape(-1, 1)
        self.check(distinct, [0.0], w, 1)  # labels up to w - 1
        self.check(distinct, [math.inf], w, 1)  # one state of w points


class TestStateAssignment:
    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            StateAssignment(states=((0, 1), (1, 2)), window_length=3)
        with pytest.raises(ValueError):
            StateAssignment(states=((0,),), window_length=2)

    def test_counts(self):
        a = StateAssignment(states=((0, 2), (1,)), window_length=3)
        assert a.counts == (2, 1)
        assert a.n_states == 2
