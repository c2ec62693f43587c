import importlib
import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import fisherinfo
from fisherinfo import (
    DegenerateRange,
    EmptyInput,
    MissingValue,
    NonUniformTimeAxis,
    SmallWindowWarning,
    SosConfig,
    StateSize,
    WindowConfig,
    validate_matrix,
)
from fisherinfo.core import SPACING_RTOL, inclusive_range

from conftest import WORKED_ROWS, child_env


class TestValidateMatrix:
    def test_worked_example_is_valid(self, worked_matrix):
        assert worked_matrix.n_steps == 8
        assert worked_matrix.n_vars == 2
        assert worked_matrix.labels == ("Y1", "Y2")
        assert worked_matrix.times.tolist() == [float(t) for t in range(1, 9)]

    def test_single_cell_is_valid(self):
        m = validate_matrix(["y"], [0.0], [[42.0]])
        assert m.n_steps == 1 and m.n_vars == 1
        assert m.values[0, 0] == 42.0

    def test_nonuniform_times_rejected(self):
        with pytest.raises(NonUniformTimeAxis):
            validate_matrix(["y"], [1, 2, 4, 5], [[0], [1], [2], [3]])

    def test_decreasing_times_rejected(self):
        with pytest.raises(NonUniformTimeAxis):
            validate_matrix(["y"], [3, 2, 1], [[0], [1], [2]])

    def test_duplicate_times_rejected(self):
        with pytest.raises(NonUniformTimeAxis):
            validate_matrix(["y"], [1, 1, 2], [[0], [1], [2]])

    @pytest.mark.parametrize("times", [[1, 1], [2, 1]], ids=["equal", "falling"])
    def test_two_rows_that_do_not_rise_are_rejected(self, times):
        with pytest.raises(NonUniformTimeAxis, match="strictly increasing") as exc:
            validate_matrix(["y"], times, [[0], [1]])
        assert exc.value.row == 1

    def test_first_of_several_bad_spacings_is_named(self):
        # spacings 1, 1, 3, 1, 2, 0.5: steps 3, 5 and 6 change the spacing
        with pytest.raises(NonUniformTimeAxis) as exc:
            validate_matrix(["y"], [0, 1, 2, 5, 6, 8, 8.5], [[0]] * 7)
        assert str(exc.value) == "spacing changes at step 3: 3.0 differs from 1.0"
        assert exc.value.row == 3

    def test_first_non_increasing_stamp_is_located(self):
        with pytest.raises(NonUniformTimeAxis, match="strictly increasing") as exc:
            validate_matrix(["y"], [1, 2, 2, 1, 0], [[0]] * 5)
        assert exc.value.row == 2

    def test_non_finite_time_stamp_is_named(self):
        with pytest.raises(NonUniformTimeAxis) as exc:
            validate_matrix(["y"], [1, 2, float("inf"), float("nan")], [[0]] * 4)
        assert str(exc.value) == "non-finite time stamp inf"
        assert exc.value.row == 2

    def test_tiny_spacing_jitter_tolerated(self):
        # far below the 1e-9 relative tolerance
        times = [0.0, 0.1, 0.2 + 1e-14, 0.3]
        m = validate_matrix(["y"], times, [[0], [1], [2], [3]])
        assert m.n_steps == 4

    # the two spacings differ by 1.0, and SPACING_RTOL * 1e9 is exactly 1.0 in binary64
    @pytest.mark.parametrize("times", [[0.0, 999999999.0, 1999999999.0],
                                       [0.0, 1e9, 1999999999.0]])
    def test_spacing_change_of_exactly_the_tolerance_is_accepted(self, times):
        assert SPACING_RTOL * 1e9 == 1.0
        assert validate_matrix(["y"], times, [[0]] * 3).n_steps == 3

    @pytest.mark.parametrize("times", [[0.0, 1e9, 1999999998.0],
                                       [0.0, 999999998.0, 1999999998.0]])
    def test_spacing_change_just_past_the_tolerance_is_rejected(self, times):
        with pytest.raises(NonUniformTimeAxis) as exc:
            validate_matrix(["y"], times, [[0]] * 3)
        assert exc.value.row == 2

    def test_step_beyond_the_float_range_is_compared(self):
        # the steps are inf and 9e306: inf - inf would compare as no change
        with pytest.raises(NonUniformTimeAxis) as exc:
            validate_matrix(["a"], [-1.7e308, 1.7e308, 1.79e308], [[1.0]] * 3)
        assert str(exc.value) == (
            "spacing changes at step 2: 9.000000000000002e+306 differs from inf")
        assert exc.value.row == 2

    @pytest.mark.parametrize("times", [[-1.7e308, 1.7e308], [-1.2e308, 0.0, 1.2e308],
                                       [-1.7976931348623157e308, 1.7976931348623157e308]])
    def test_widest_uniform_axes_are_accepted(self, times):
        # tier-1 turns a RuntimeWarning into an error
        assert validate_matrix(["a"], times, [[1.0]] * len(times)).times.tolist() == times

    def test_nan_cell_reported_with_position(self):
        with pytest.raises(MissingValue) as exc:
            validate_matrix(["a", "b"], [1, 2], [[0.0, 1.0], [2.0, float("nan")]])
        assert exc.value.row == 1
        assert exc.value.column == 1

    def test_inf_cell_rejected(self):
        with pytest.raises(MissingValue):
            validate_matrix(["y"], [1, 2], [[1.0], [float("inf")]])

    def test_short_row_rejected(self):
        with pytest.raises(MissingValue) as exc:
            validate_matrix(["a", "b"], [1, 2], [[0.0, 1.0], [2.0]])
        assert exc.value.row == 1

    def test_no_rows_rejected(self):
        with pytest.raises(EmptyInput):
            validate_matrix(["y"], [], [])

    def test_no_variables_rejected(self):
        with pytest.raises(EmptyInput):
            validate_matrix([], [1], [[]])

    def test_row_count_must_match_times(self):
        with pytest.raises(NonUniformTimeAxis):
            validate_matrix(["y"], [1, 2, 3], [[0], [1]])

    def test_values_not_altered(self, worked_matrix):
        for j, row in enumerate(WORKED_ROWS):
            for i, cell in enumerate(row):
                assert worked_matrix.values[j, i] == cell

    def test_idempotent(self, worked_matrix):
        again = validate_matrix(
            worked_matrix.labels, worked_matrix.times, worked_matrix.values
        )
        assert again.labels == worked_matrix.labels
        assert again.times.tolist() == worked_matrix.times.tolist()
        assert np.array_equal(again.values, worked_matrix.values)

    def test_grid_is_read_only(self, worked_matrix):
        with pytest.raises(ValueError):
            worked_matrix.values[0, 0] = 99.0

    def test_time_column_is_a_read_only_copy(self):
        times = np.array([1.0, 2.0])
        m = validate_matrix(["a"], times, [[0.0], [1.0]])
        times[0] = 9.0  # the caller's array stays theirs, and writable
        assert m.times.dtype == np.float64 and m.times.tolist() == [1.0, 2.0]
        with pytest.raises(ValueError):
            m.times[0] = 99.0
        with pytest.raises(NonUniformTimeAxis, match=r"one column, got shape \(2, 1\)"):
            validate_matrix(["a"], [[1.0], [2.0]], [[0.0], [1.0]])

    @given(
        st.lists(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False, width=32),
                min_size=3, max_size=3,
            ),
            min_size=1, max_size=20,
        )
    )
    def test_accepted_grid_roundtrips(self, rows):
        m = validate_matrix(["a", "b", "c"], range(len(rows)), rows)
        for j, row in enumerate(rows):
            for i, cell in enumerate(row):
                assert m.values[j, i] == cell

    @pytest.mark.parametrize(
        "rows, row, column",
        [
            ([[float("inf"), 1.0], [2.0, 3.0], [4.0, 5.0]], 0, 0),
            ([[0.0, 1.0], [2.0, 3.0], [4.0, float("-inf")]], 2, 1),
            ([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0, 6.0]], 2, None),
            ([[0.0, 1.0], [], [4.0, 5.0]], 1, None),
        ],
        ids=["plus_inf", "minus_inf", "long_row", "empty_row"],
    )
    def test_single_defect_reported_with_position(self, rows, row, column):
        with pytest.raises(MissingValue) as exc:
            validate_matrix(["a", "b"], [1, 2, 3], rows)
        assert exc.value.row == row
        assert exc.value.column == column

    def test_nonfinite_message_names_label_and_cell(self):
        with pytest.raises(MissingValue, match=r"row 1, column 'b': nan"):
            validate_matrix(["a", "b"], [1, 2], [[0.0, 1.0], [2.0, float("nan")]])
        # an array cell prints as a float too, not as np.float64(nan)
        with pytest.raises(MissingValue) as exc:
            validate_matrix(["a", "b"], [1, 2], np.array([[0.0, 1.0], [2.0, np.nan]]))
        assert str(exc.value) == "non-finite value at row 1, column 'b': nan"

    @given(
        st.integers(min_value=1, max_value=4).flatmap(
            lambda n: st.lists(
                st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
                min_size=1, max_size=30,
            )
        )
    )
    def test_grid_equals_input_cell_for_cell(self, rows):
        n = len(rows[0])
        m = validate_matrix([f"v{i}" for i in range(n)], range(len(rows)), rows)
        assert m.values.shape == (len(rows), n)
        assert m.values.dtype == np.float64
        for j, row in enumerate(rows):
            for i, cell in enumerate(row):
                # hex() tells -0.0 from 0.0 and keeps every bit of subnormals
                assert float(m.values[j, i]).hex() == cell.hex()
        # a 2-D array and a 1-D time column give the same matrix
        again = validate_matrix(m.labels, np.arange(len(rows)), np.array(rows))
        assert again.times.tolist() == m.times.tolist()
        assert again.values.tobytes() == m.values.tobytes()

    @pytest.mark.parametrize(
        "values, row",
        [
            (np.zeros((3, 2, 4)), 0),
            ([[[1, 2], [3, 4]]] * 3, 0),
            (np.zeros(3), 0),
            ([1.0, 2.0, 3.0], 0),
            ([[1.0, 2.0], [3.0, [4.0]], [5.0, 6.0]], 1),
            ([[1.0, 2.0], [3.0, 4.0], [[5.0, 6.0], [7.0, 8.0]]], 2),
        ],
        ids=["3d_array", "nested_rows", "1d_array", "scalars", "nested_cell", "nested_last_row"],
    )
    def test_grid_that_is_not_rows_of_n_numbers_names_the_first_bad_row(self, values, row):
        message = f"^row {row} is one value or nested, expected 2$"
        with pytest.raises(MissingValue, match=message) as exc:
            validate_matrix(["a", "b"], [1, 2, 3], values)
        assert (exc.value.row, exc.value.column) == (row, None)

    def test_a_zero_dimensional_array_is_a_bad_row_0(self):
        with pytest.raises(MissingValue, match="^row 0 is one value or nested, expected 2$"):
            validate_matrix(["a", "b"], [1], np.array(5.0))

    def test_a_cell_that_is_no_number_is_not_a_bad_row(self):
        with pytest.raises(ValueError, match="could not convert string to float") as exc:
            validate_matrix(["a", "b"], [1, 2], [[1.0, 2.0], [3.0, "x"]])
        assert not isinstance(exc.value, MissingValue)

    def test_array_input_is_copied_and_checked_whole(self):
        values = np.array([[0.0, 1.0], [2.0, 3.0]])
        m = validate_matrix(["a", "b"], np.array([1.0, 2.0]), values)
        values[0, 0] = 9.0  # the caller's array stays theirs, and writable
        assert m.values[0, 0] == 0.0
        assert m.times.tolist() == [1.0, 2.0] and m.times.dtype == np.float64
        with pytest.raises(MissingValue, match=r"^row 0 has 1 values, expected 2$") as exc:
            validate_matrix(["a", "b"], [1, 2], values[:, :1])
        assert exc.value.row == 0
        values[1, 1] = np.nan
        with pytest.raises(MissingValue) as exc:
            validate_matrix(["a", "b"], [1, 2], values)
        assert (exc.value.row, exc.value.column) == (1, 1)


class TestStateSize:
    def test_accepts_zero_and_infinity(self):
        s = StateSize((0.0, math.inf))
        assert s.deltas == (0.0, math.inf)
        assert len(s) == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StateSize((1.0, -0.1))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            StateSize((float("nan"),))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StateSize(())


class TestWindowConfig:
    def test_defaults(self):
        cfg = WindowConfig()
        assert cfg.window_size == 8
        assert cfg.increment == 1

    def test_small_window_warns_but_works(self):
        with pytest.warns(SmallWindowWarning):
            cfg = WindowConfig(window_size=4, increment=1)
        assert cfg.window_size == 4

    def test_recommended_window_does_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            WindowConfig(window_size=8, increment=8)

    @pytest.mark.parametrize("w,inc", [(1, 1), (0, 1), (8, 0), (8, -1), (4, 5)])
    def test_invalid_configs_rejected(self, w, inc):
        with pytest.raises(ValueError), warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallWindowWarning)
            WindowConfig(window_size=w, increment=inc)


class TestSosConfig:
    def test_default_k_gives_75_percent_coverage(self):
        cfg = SosConfig()
        assert 1 - 1 / cfg.k**2 == 0.75

    def test_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            SosConfig(k=0)

    def test_rejects_infinite_k(self):
        # an infinite k would turn a constant column's 0 * inf into a nan state size
        with pytest.raises(ValueError, match="k must be a positive finite number"):
            SosConfig(k=float("inf"))

    def test_rejects_reversed_range(self):
        with pytest.raises(ValueError):
            SosConfig(stable_range=(5, 2))

    def test_rejects_negative_start(self):
        with pytest.raises(ValueError):
            SosConfig(stable_range=(-1, 2))


class TestInclusiveRange:
    def test_none_selects_the_whole_series(self):
        assert inclusive_range(None, 5, "r") == (0, 4)

    @pytest.mark.parametrize("pair", [(0, 4), (0, 1), (3, 4), (1, 3)])
    def test_pairs_within_the_series_holding_two_points_pass(self, pair):
        assert inclusive_range(pair, 5, "r") == pair

    @pytest.mark.parametrize("pair", [(-1, 3), (0, 5), (3, 2), (2, 2)])
    def test_other_pairs_raise_naming_argument_pair_and_limit(self, pair):
        a, b = pair
        with pytest.raises(DegenerateRange) as exc:
            inclusive_range(pair, 5, "some_range")
        assert str(exc.value) == (
            f"some_range {a}:{b} must lie within 0:4 (5 points) and hold at least 2"
        )

    @pytest.mark.parametrize("length", [0, 1])
    def test_a_series_of_fewer_than_two_points_has_no_range(self, length):
        with pytest.raises(DegenerateRange):
            inclusive_range(None, length, "r")

    def test_numpy_integers_come_back_as_ints(self):
        first, last = inclusive_range((np.int64(1), np.intp(3)), 5, "r")
        assert (type(first), type(last)) == (int, int)


def test_each_of_the_14_error_names_is_one_exported_class():
    names = (
        "FisherInfoError EmptyInput MissingValue NonUniformTimeAxis DimensionMismatch "
        "DegenerateRange SeriesTooShort ParseError NetworkError NotFound GapInSeries "
        "SmallWindowWarning ConstantVariableWarning SosPrecedenceWarning"
    ).split()
    exported = [getattr(fisherinfo, name) for name in names]
    assert len(set(exported)) == len(names)
    for name, value in zip(names, exported):
        assert name in fisherinfo.__all__
        assert issubclass(value, (fisherinfo.FisherInfoError, UserWarning))
    for removed in ("EmptyWindow", "EmptySeries", "RangeTooShort", "RangeMismatch"):
        assert not hasattr(fisherinfo, removed)


# fisherinfo.__all__, order included
EXPORTED_NAMES = [
    "__version__",
    "TimeSeriesMatrix", "StateSize", "WindowConfig", "SosConfig", "validate_matrix",
    "StateAssignment", "bin_window",
    "FiSeries", "estimate_state_size", "fisher_index", "sliding_fi", "window_count",
    "RegimeCategory", "RegimeVerdict", "classify_regime", "local_maxima",
    "DEFAULT_SLOPE_TOL",
    "ResultDocument", "read_csv", "write_results", "emit_plot",
    "IndicatorRequest", "fetch_indicator", "demo_matrix",
    "FisherInfoError", "EmptyInput", "MissingValue", "NonUniformTimeAxis", "DimensionMismatch",
    "DegenerateRange", "SeriesTooShort", "ParseError", "NetworkError", "NotFound",
    "GapInSeries",
    "SmallWindowWarning", "ConstantVariableWarning", "SosPrecedenceWarning",
]
SUBMODULES = ("binning", "core", "engine", "errors", "io", "regimes", "worldbank")


class TestNamespace:
    def test_all_keeps_every_name_in_order(self):
        assert fisherinfo.__all__ == EXPORTED_NAMES

    def test_each_name_is_its_defining_modules_object(self):
        for name in EXPORTED_NAMES[1:]:
            value = getattr(fisherinfo, name)
            home = getattr(value, "__module__", "fisherinfo.regimes")  # DEFAULT_SLOPE_TOL
            assert home.startswith("fisherinfo."), name
            assert getattr(importlib.import_module(home), name) is value, name

    def test_star_import_binds_exactly_the_exported_names(self):
        scope = {}
        exec("from fisherinfo import *", scope)
        del scope["__builtins__"]
        assert sorted(scope) == sorted(EXPORTED_NAMES)
        assert all(scope[name] is getattr(fisherinfo, name) for name in EXPORTED_NAMES)

    def test_unknown_name_raises_attribute_error_naming_it(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            fisherinfo.no_such_name

    def test_dir_lists_every_exported_name(self):
        assert set(EXPORTED_NAMES) <= set(dir(fisherinfo))

    def test_bare_import_loads_no_submodule_and_no_numpy(self):
        probe = (
            "import sys, fisherinfo; "
            "print(sorted(m for m in sys.modules if m == 'numpy' or m.startswith('fisherinfo.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
            check=True,
        )
        assert done.stdout.strip() == "[]"

    def test_getattr_returns_each_submodule(self):
        for name in SUBMODULES:
            assert fisherinfo.__getattr__(name) is importlib.import_module(f"fisherinfo.{name}")

    def test_submodules_resolve_after_a_bare_import(self):
        probe = (
            "import fisherinfo; "
            f"print([getattr(fisherinfo, m).__name__ for m in {SUBMODULES!r}])"
        )
        done = subprocess.run(
            [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True,
            check=True,
        )
        assert done.stdout.strip() == repr([f"fisherinfo.{m}" for m in SUBMODULES])
