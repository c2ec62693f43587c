import dataclasses
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherinfo import (
    DimensionMismatch,
    EmptyInput,
    StateAssignment,
    StateSize,
    bin_window,
)
from fisherinfo import binning
from fisherinfo.binning import _sweep, bin_windows

from conftest import WORKED_ROWS
from oracle import brute_bin, brute_same_state

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


def share(a, b, delta) -> bool:
    """Whether points a and b fall in one state: the two-point window has one state."""
    return bin_window([a, b], delta).n_states == 1


class TestTwoPointWindow:
    def test_worked_example_steps_1_and_3_share_a_state(self):
        assert share((0.6, 1.5), (0.3, 1.0), (0.5, 1.0)) is True

    def test_worked_example_steps_2_and_4_do_not(self):
        # |2 - 3.5| = 1.5 > 0.5 in the first variable
        assert share((2.0, 1.5), (3.5, 4.8), (0.5, 1.0)) is False

    def test_identical_points_always_share(self):
        assert share((1.0, 2.0), (1.0, 2.0), (0.0, 0.0)) is True

    def test_boundary_is_inclusive(self):
        assert share((0.0,), (0.5,), (0.5,)) is True
        assert share((0.0,), (0.5000001,), (0.5,)) is False

    def test_accepts_state_size_objects(self):
        assert share((0.0,), (1.0,), StateSize((1.0,))) is True

    def test_points_and_delta_of_different_lengths(self):
        with pytest.raises(DimensionMismatch, match="2 variables but state size has 1"):
            bin_window([(1.0, 2.0), (1.0, 2.0)], (0.5,))
        with pytest.raises(DimensionMismatch, match="1 variables but state size has 2"):
            bin_window([(1.0,), (1.0,)], (0.5, 0.5))

    def test_span_beyond_the_float_range_shares_only_under_an_infinite_delta(self):
        # 1e308 - (-1e308) overflows to inf; no RuntimeWarning may escape
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert share((1e308,), (-1e308,), (math.inf,)) is True
            assert share((1e308,), (-1e308,), (1e308,)) is False

    def test_non_finite_points_share_with_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert share((math.nan,), (0.0,), (1.0,)) is False
            assert share((math.nan,), (math.nan,), (math.inf,)) is False
            assert share((math.inf,), (math.inf,), (1.0,)) is False

    def test_points_without_variables_are_empty_input(self):
        with pytest.raises(EmptyInput):
            bin_window([(), ()], ())

    @pytest.mark.parametrize("delta", [-1.0, math.nan])
    def test_negative_or_nan_delta_is_refused(self, delta):
        with pytest.raises(ValueError, match="must be >= 0"):
            bin_window([(0.0,), (0.0,)], (delta,))


class TestPointShape:
    @pytest.mark.parametrize("points", [
        [(1.0, 2.0), (1.0,)],       # ragged
        [(1.0,), (1.0, 2.0)],
        [[[1.0]]],                  # nested
        [[[1.0], [2.0]], [[3.0], [4.0]]],
        [(1.0, (2.0, 3.0)), (1.0, 2.0)],  # a point ragged itself
        [1.0, (2.0,)],              # a number and a sequence
    ], ids=["long_then_short", "short_then_long", "nested", "nested_grid", "ragged_point",
            "number_and_sequence"])
    def test_points_of_unequal_length_or_nested_are_a_dimension_mismatch(self, points):
        with pytest.raises(DimensionMismatch, match="all numbers or all flat sequences"):
            bin_window(points, (1.0,))

    @pytest.mark.parametrize("points", [5.0, np.array(5.0)], ids=["number", "zero_dim_array"])
    def test_one_number_is_a_dimension_mismatch_as_ragged_points_are(self, points):
        with pytest.raises(DimensionMismatch) as ragged:
            bin_window([(1.0, 2.0), (1.0,)], (1.0,))
        with pytest.raises(DimensionMismatch) as exc:
            bin_window(points, (1.0,))
        assert str(exc.value) == str(ragged.value)

    def test_a_coordinate_that_is_no_number_is_no_length_mismatch(self):
        with pytest.raises(ValueError, match="could not convert string to float") as exc:
            bin_window([(1.0, "a"), (1.0, 2.0)], (1.0, 1.0))
        assert not isinstance(exc.value, DimensionMismatch)

    @pytest.mark.parametrize("points, delta", [
        ([None, 1.0], (1.0,)),
        ([[None, 1.0], [1.0, 2.0]], (1.0, 1.0)),
    ], ids=["one_variable", "two_variables"])
    def test_a_none_coordinate_is_no_number_where_a_nan_is_binned_alone(self, points, delta):
        with pytest.raises(ValueError, match="a coordinate is None, not a number"):
            bin_window(points, delta)
        # numpy's float conversion reads the None as nan
        assert bin_window(np.asarray(points, dtype=float), delta).states == ((0,), (1,))


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
        # scalar points are one variable, not points of unequal length
        assert bin_window([1.0, 2.0, 5.0], (1.0,)).states == ((0, 1), (2,))

    def test_empty_window_rejected(self, worked_delta):
        with pytest.raises(EmptyInput):
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
                assert brute_same_state(points[state[0]], points[i], deltas)

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
def kernel_cases(draw, budget=0):
    """Series of windows of width 2..300 at any increment.

    A series holds 1 to 3 windows, or up to 100 while windows * width**2
    stays within budget.  The widths cross the uint8/uint16 count dtypes
    (at 256).  Points are small integer grids, where |a - b| = delta ties
    are common, or Gaussian values with some nan and +-inf points; any
    state size may be 0 or inf.
    """
    w = draw(st.one_of(st.sampled_from([2, 128, 129, 255, 256, 300]), st.integers(2, 300)))
    inc = draw(st.integers(1, w))
    n = draw(st.integers(1, 3))
    most_windows = min(100, max(3, budget // (w * w)))
    rows = w + draw(st.integers(0, most_windows - 1)) * inc + draw(st.integers(0, inc - 1))
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


class TestBinWindows:
    """The kernel's counts and its sweep's states, window by window against brute_bin."""

    def check(self, values, deltas, w, inc):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            counts = bin_windows(values, deltas, w, inc)
            swept = list(_sweep(values, deltas, w, inc))
        starts = range(0, len(values) - w + 1, inc)
        assert counts.shape == (len(starts), w)
        assert counts.dtype == np.min_scalar_type(w)
        assert counts.flags.c_contiguous
        states = [[] for _ in starts]  # each window's states as the sweep yields them
        for s, seeding, members in swept:
            for k, row in zip(seeding.tolist(), members):
                states[k].append(tuple((s + np.flatnonzero(row)).tolist()))
        for k, a in enumerate(starts):
            want = brute_bin(values[a:a + w].tolist(), deltas)
            assert tuple(states[k]) == want
            assert counts[k].tolist() == [len(state) for state in want] + [0] * (w - len(want))

    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_window_matches_brute_force(self, case):
        self.check(*case)

    @given(kernel_cases(budget=40_000), st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_every_window_matches_brute_force_in_blocks_of_1_to_40_windows(self, case, block):
        values, deltas, w, inc = case
        with mock.patch.object(binning, "BLOCK_VALUES", block * w):
            self.check(values, deltas, w, inc)

    @pytest.mark.parametrize("w", [127, 128, 129, 255, 256, 257])
    def test_dtype_edges_hold_the_largest_label_and_count(self, w):
        distinct = np.arange(w + 1, dtype=float).reshape(-1, 1)
        self.check(distinct, [0.0], w, 1)  # w states of one point
        self.check(distinct, [math.inf], w, 1)  # one state of w points

    @pytest.mark.parametrize("rows, w", [(0, 2), (3, 8), (7, 8), (127, 128)])
    def test_a_series_shorter_than_one_window_has_no_windows(self, rows, w):
        self.check(np.zeros((rows, 2)), [1.0, 1.0], w, 1)

    @pytest.mark.parametrize("deltas, error", [
        ([1.0, -1.0], ValueError), ([1.0, math.nan], ValueError), ([1.0], DimensionMismatch),
    ])
    def test_a_series_shorter_than_one_window_still_checks_the_state_size(self, deltas, error):
        with pytest.raises(error):
            bin_windows(np.zeros((3, 2)), deltas, 8)

    def test_a_long_series_is_swept_within_a_bounded_peak(self):
        values = np.random.default_rng(1).normal(size=(100_000, 2))
        deltas = (2 * values.std(axis=0, ddof=1)).tolist()
        tracemalloc.start()
        try:
            bin_windows(values, deltas, 32, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6  # the counts hold 3.2 MB; one gathered copy of all windows, 25.6 MB


class TestStateAssignment:
    @pytest.mark.parametrize("states", [((0, 1), (1, 2)), ((0, 2),), ((1,),), ((0, 0),)])
    def test_rejects_a_repeated_or_missing_index(self, states):
        with pytest.raises(ValueError, match="partition"):
            StateAssignment(states=states)

    def test_counts(self):
        a = StateAssignment(states=((0, 2), (1,)))
        assert a.counts == (2, 1)
        assert a.n_states == 2

    def test_window_length_is_the_number_of_indices(self):
        assert StateAssignment(states=((0, 2), (1, 3, 4))).window_length == 5
        assert [field.name for field in dataclasses.fields(StateAssignment)] == ["states"]
