import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fisherinfo import (
    DegenerateRange,
    FiSeries,
    RangeTooShort,
    RegimeCategory,
    SmallWindowWarning,
    StateSize,
    WindowConfig,
    classify_regime,
    fi_slope,
    local_maxima,
    sliding_fi,
    validate_matrix,
)

from oracle import brute_ols_slope

fi_values = st.lists(
    st.floats(min_value=0.001, max_value=8, allow_nan=False),
    min_size=2, max_size=40,
)
# few distinct values, so that ties and plateaus are common
tied_values = st.sampled_from([1.0, 2.0, 3.0]) | st.floats(min_value=0.001, max_value=8)


def as_series(values, increment=3):
    """An FiSeries holding values, its windows increment steps apart."""
    n = len(values)
    return FiSeries(time=np.arange(n) * float(increment), fi=values, m_states=np.ones(n),
                    start=np.arange(n) * increment, config=WindowConfig(),
                    state_size=StateSize((1.0,)))


def loop_local_maxima(values):
    return tuple(
        i for i in range(1, len(values) - 1)
        if values[i] > values[i - 1] and values[i] > values[i + 1]
    )


@st.composite
def values_and_range(draw):
    values = draw(fi_values)
    first = draw(st.integers(0, len(values) - 2))
    return values, (first, draw(st.integers(first + 1, len(values) - 1)))


class TestFiSlope:
    def test_constant_series_has_zero_slope(self):
        assert fi_slope([2.0, 2.0, 2.0, 2.0]) == 0.0

    def test_exact_line(self):
        assert fi_slope([4.0, 3.0, 2.0, 1.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_hand_computed_example(self):
        # x mean 1.5, y mean 2: covariance sum 3, variance sum 5
        assert fi_slope([1.0, 2.0, 2.0, 3.0]) == pytest.approx(0.6, abs=1e-12)

    def test_subrange(self):
        assert fi_slope([9.0, 4.0, 3.0, 2.0, 1.0], (1, 4)) == pytest.approx(-1.0, abs=1e-12)

    def test_single_point_rejected(self):
        with pytest.raises(RangeTooShort):
            fi_slope([2.0])

    def test_bad_range_rejected(self):
        with pytest.raises(RangeTooShort):
            fi_slope([1.0, 2.0, 3.0], (2, 1))
        with pytest.raises(RangeTooShort):
            fi_slope([1.0, 2.0, 3.0], (1, 9))
        with pytest.raises(RangeTooShort):
            fi_slope([1.0, 2.0, 3.0], (1, 1))

    @given(fi_values)
    @settings(max_examples=200)
    def test_matches_textbook_formula(self, values):
        assert fi_slope(values) == pytest.approx(brute_ols_slope(values), rel=1e-9, abs=1e-9)

    def test_slope_uses_time_steps_not_point_positions(self):
        # increment 2: consecutive index points are two time steps apart,
        # so the per-step slope is half the per-point slope
        values = np.linspace(0.0, 1.9, 20).reshape(-1, 1)
        m = validate_matrix(["y"], range(20), values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallWindowWarning)
            cfg = WindowConfig(window_size=4, increment=2)
        series = sliding_fi(m, StateSize((10.0,)), cfg)
        per_point = fi_slope(series.fi.tolist())
        per_step = fi_slope(series)
        assert per_step == pytest.approx(per_point / 2, rel=1e-9, abs=1e-12)

    def test_palindrome_slope_is_exactly_zero(self):
        values = [1.7, 2.9, 0.3, 5.5, 4.1]
        both_ways = values + values[::-1]
        assert fi_slope(both_ways) == 0.0


def generator_slope(values, first, last):
    """fi_slope over positions first..last as plain Python floats compute it."""
    xs = [float(x) for x in range(first, last + 1)]
    ys = values[first:last + 1]
    n = len(ys)
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    num = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    den = math.fsum((x - xbar) ** 2 for x in xs)
    return num / den


class TestSlopeBitForBit:
    @given(values_and_range())
    @settings(max_examples=300)
    def test_matches_the_per_element_formula(self, case):
        values, (first, last) = case
        assert fi_slope(values, (first, last)).hex() == generator_slope(values, first, last).hex()

    @given(st.lists(st.floats(-1e150, 1e150), min_size=2, max_size=40))
    @settings(max_examples=200)
    def test_any_reals_match(self, values):
        assert fi_slope(values).hex() == generator_slope(values, 0, len(values) - 1).hex()


class TestClassifyRegime:
    def test_constant_nonzero_is_stable(self):
        verdict = classify_regime([2.0, 2.0, 2.0], tol=0.01)
        assert verdict.category is RegimeCategory.STABLE
        assert verdict.slope == 0.0
        assert verdict.mean_fi == 2.0
        assert verdict.slope_window == (0, 2)

    def test_steady_decrease_is_declining(self):
        verdict = classify_regime([4.0, 3.0, 2.0, 1.0], tol=0.01)
        assert verdict.category is RegimeCategory.DECLINING
        assert verdict.slope == pytest.approx(-1.0)

    def test_steady_increase_is_increasing(self):
        verdict = classify_regime([1.0, 2.0, 3.0, 4.0], tol=0.01)
        assert verdict.category is RegimeCategory.INCREASING

    def test_slope_within_tolerance_is_stable(self):
        verdict = classify_regime([2.0, 2.005, 2.01], tol=0.02)
        assert verdict.category is RegimeCategory.STABLE

    def test_range_restricts_the_analysis(self):
        # full range rises; the tail is flat
        values = [1.0, 2.0, 3.0, 3.0, 3.0, 3.0]
        assert classify_regime(values, tol=0.05).category is RegimeCategory.INCREASING
        tail = classify_regime(values, tol=0.05, index_range=(2, 5))
        assert tail.category is RegimeCategory.STABLE
        assert tail.mean_fi == 3.0

    def test_nonpositive_tolerance_rejected(self):
        with pytest.raises(ValueError):
            classify_regime([1.0, 2.0], tol=0.0)

    def test_too_short_rejected(self):
        with pytest.raises(RangeTooShort):
            classify_regime([1.0], tol=0.01)

    @pytest.mark.parametrize("index_range", [(2, 1), (0, 4), (1, 1), (-1, 2)])
    def test_range_outside_the_series_or_of_one_point_rejected(self, index_range):
        with pytest.raises(DegenerateRange, match=f"index_range {index_range[0]}:"):
            classify_regime([1.0, 2.0, 3.0, 4.0], index_range=index_range)

    @given(values_and_range(), st.booleans())
    @settings(max_examples=200)
    def test_slope_is_fi_slope_bit_for_bit(self, case, as_fi_series):
        values, index_range = case
        series = as_series(values) if as_fi_series else values
        verdict = classify_regime(series, tol=0.05, index_range=index_range)
        assert verdict.slope.hex() == fi_slope(series, index_range).hex()
        a, b = index_range
        assert verdict.mean_fi == math.fsum(values[a:b + 1]) / (b - a + 1)
        assert verdict.slope_window == index_range

    def test_slope_on_the_tolerance_survives_a_shift(self):
        # the slope is 0.05 in exact decimals; in floats it lands just above
        # tol for the base series and just below it once shifted by 3
        base = classify_regime([1.0, 1.0, 1.1], tol=0.05)
        moved = classify_regime([4.0, 4.0, 4.1], tol=0.05)
        assert base.category is moved.category is RegimeCategory.STABLE

    @given(fi_values, st.floats(-5, 5, allow_nan=False))
    @settings(max_examples=200)
    def test_constant_shift_changes_only_the_mean(self, values, shift):
        base = classify_regime(values, tol=0.05)
        moved = classify_regime([v + shift for v in values], tol=0.05)
        assert moved.category is base.category
        assert moved.slope == pytest.approx(base.slope, rel=1e-6, abs=1e-9)
        assert moved.mean_fi == pytest.approx(base.mean_fi + shift, rel=1e-9, abs=1e-9)

    @given(fi_values)
    @settings(max_examples=200)
    def test_negation_swaps_declining_and_increasing(self, values):
        swap = {
            RegimeCategory.DECLINING: RegimeCategory.INCREASING,
            RegimeCategory.INCREASING: RegimeCategory.DECLINING,
            RegimeCategory.STABLE: RegimeCategory.STABLE,
        }
        base = classify_regime(values, tol=0.05)
        negated = classify_regime([-v for v in values], tol=0.05)
        assert negated.category is swap[base.category]
        assert negated.slope == pytest.approx(-base.slope, rel=1e-9, abs=1e-12)


class TestLocalMaxima:
    def test_monotone_series_has_no_peaks(self):
        assert local_maxima([1.0, 2.0, 3.0, 4.0]) == ()

    def test_interior_peaks_found(self):
        assert local_maxima([1.0, 3.0, 2.0, 5.0, 4.0]) == (1, 3)

    def test_endpoints_never_count(self):
        assert local_maxima([9.0, 1.0, 9.0]) == ()

    def test_plateau_is_not_a_peak(self):
        assert local_maxima([1.0, 2.0, 2.0, 1.0]) == ()

    def test_short_series(self):
        assert local_maxima([1.0]) == ()
        assert local_maxima([1.0, 2.0]) == ()

    @given(st.lists(tied_values | st.floats(), max_size=12))
    @settings(max_examples=300)
    def test_list_matches_the_loop_definition(self, values):
        peaks = local_maxima(values)
        assert peaks == loop_local_maxima(values)
        assert all(type(i) is int for i in peaks)

    @given(st.lists(tied_values, max_size=12))
    @settings(max_examples=300)
    def test_series_matches_the_loop_definition(self, values):
        peaks = local_maxima(as_series(values))
        assert peaks == loop_local_maxima(values)
        assert all(type(i) is int for i in peaks)

    @pytest.mark.parametrize("length", range(4))
    def test_every_short_sequence_of_ties_and_nan(self, length):
        for values in itertools.product([1.0, 2.0, math.nan], repeat=length):
            assert local_maxima(list(values)) == loop_local_maxima(values)
