import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fisherinfo import (
    ConstantVariableWarning,
    DegenerateRange,
    FiSeries,
    SeriesTooShort,
    SmallWindowWarning,
    SosConfig,
    StateSize,
    WindowConfig,
    bin_window,
    estimate_state_size,
    fisher_index,
    sliding_fi,
    validate_matrix,
    window_count,
)
from fisherinfo.engine import SD_SCALE, sample_sd

from conftest import WORKED_ROWS
from oracle import brute_bin, brute_fi, brute_fi_from_counts, brute_sample_sd


def make_matrix(values, labels=None, t0=0):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 1 and values.shape[1] > 1 and labels is None:
        values = values.T
    n = values.shape[1]
    labels = labels or [f"v{i}" for i in range(n)]
    return validate_matrix(labels, range(t0, t0 + values.shape[0]), values)


class TestEstimateStateSize:
    def test_one_to_five_with_k2(self):
        # sample SD of 1..5 is sqrt(2.5); frozen against the hand sum below
        m = make_matrix([1, 2, 3, 4, 5])
        delta = estimate_state_size(m, SosConfig(k=2))
        assert delta.deltas[0] == pytest.approx(3.1622776601683795, abs=1e-12)
        assert delta.deltas[0] == pytest.approx(2 * brute_sample_sd([1, 2, 3, 4, 5]), abs=1e-12)

    def test_constant_column_yields_zero_with_warning(self):
        m = make_matrix([5, 5, 5, 5])
        with pytest.warns(ConstantVariableWarning):
            delta = estimate_state_size(m, SosConfig(k=3))
        assert delta.deltas[0] == 0.0

    def test_stable_range_subsets_the_series(self):
        m = make_matrix([1, 2, 100, 200, 300])
        delta = estimate_state_size(m, SosConfig(k=2, stable_range=(0, 1)))
        assert delta.deltas[0] == pytest.approx(2 * brute_sample_sd([1, 2]), rel=1e-12)

    def test_default_is_full_series_k2(self, worked_matrix):
        delta = estimate_state_size(worked_matrix)
        for i, column in enumerate(["Y1", "Y2"]):
            xs = [row[i] for row in WORKED_ROWS]
            assert delta.deltas[i] == pytest.approx(2 * brute_sample_sd(xs), rel=1e-12)

    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_values_near_the_float_limit_do_not_overflow(self, scale):
        # at 1e200 a square overflows, at 1e308 the plain sum already does
        m = make_matrix([scale, -scale, scale, -scale])
        delta = estimate_state_size(m, SosConfig(k=1))
        assert delta.deltas[0] == pytest.approx(scale * sample_sd([1, -1, 1, -1]), rel=1e-15)

    def test_single_point_range_rejected(self):
        m = make_matrix([1, 2, 3])
        with pytest.raises(DegenerateRange):
            estimate_state_size(m, SosConfig(stable_range=(1, 1)))

    def test_out_of_bounds_range_rejected(self):
        m = make_matrix([1, 2, 3])
        with pytest.raises(DegenerateRange):
            estimate_state_size(m, SosConfig(stable_range=(0, 5)))

    def test_single_row_series_rejected(self):
        m = make_matrix([7])
        with pytest.raises(DegenerateRange):
            estimate_state_size(m)


def generator_sample_sd(xs):
    """sample_sd as plain Python floats compute it, one square at a time."""
    n = len(xs)

    def sd(values):
        mean = math.fsum(values) / n
        return math.sqrt(math.fsum((x - mean) ** 2 for x in values) / (n - 1))

    try:
        return sd(xs)
    except OverflowError:
        return sd([x * SD_SCALE for x in xs]) / SD_SCALE


def outcome(f, *args):
    """f(*args).hex(), or the name of the exception it raises."""
    try:
        return f(*args).hex()
    except Exception as exc:  # both paths must fail alike
        return type(exc).__name__


# reals from subnormal to the float limit, at every scale in between
any_scale = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(-10, 10), st.integers(-320, 300)),
    st.sampled_from([1e308, -1e308, 1.7e308, 1e200, -1e200, 5e-324, 2.2e-308]),
)


class TestSampleSdBitForBit:
    @given(st.lists(any_scale, min_size=2, max_size=60))
    @settings(max_examples=500)
    def test_matches_the_per_element_formula(self, xs):
        assert outcome(sample_sd, xs) == outcome(generator_sample_sd, xs)

    def test_numpy_column_and_list_agree(self):
        column = np.random.default_rng(4).normal(size=1000) * 1e150
        assert sample_sd(column).hex() == generator_sample_sd(column.tolist()).hex()

    def test_overflowing_column_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sample_sd([1.7e308, 1.7e308, -1.7e308]) == \
                generator_sample_sd([1.7e308, 1.7e308, -1.7e308])


class TestStateProbabilities:
    def test_worked_example_distribution(self, worked_delta):
        counts = bin_window(WORKED_ROWS, worked_delta).counts
        probabilities = tuple(c / 8 for c in counts)
        assert probabilities == (0.375, 0.25, 0.25, 0.125)
        # the index is the amplitude formula on exactly these probabilities
        q = (0.0, *map(math.sqrt, probabilities), 0.0)
        assert fisher_index(counts) == 4.0 * math.fsum((a - b) ** 2 for a, b in zip(q, q[1:]))

    def test_single_state_is_certain(self):
        counts = bin_window([(1.0,), (1.0,)], (0.5,)).counts
        assert counts == (2,)
        assert fisher_index(counts) == 8.0

    def test_all_singletons_are_uniform(self):
        points = [(float(10 * i),) for i in range(5)]
        counts = bin_window(points, (1.0,)).counts
        assert tuple(c / 5 for c in counts) == (0.2,) * 5


class TestFisherIndex:
    def test_worked_example_total(self, worked_delta):
        counts = bin_window(WORKED_ROWS, worked_delta).counts
        assert fisher_index(counts) == pytest.approx(2.136, abs=0.005)

    def test_single_state_scores_eight_exactly(self):
        assert fisher_index([7]) == 8.0

    @pytest.mark.parametrize("m", range(1, 9))
    def test_uniform_distribution_scores_eight_over_m(self, m):
        assert fisher_index([3] * m) == pytest.approx(8 / m, abs=1e-9)

    def test_matches_brute_force_formula(self):
        for counts in [(1,), (3, 2, 2, 1), (1, 1, 1), (5, 1), (2, 2, 2, 2)]:
            got = fisher_index(counts)
            assert got == pytest.approx(brute_fi_from_counts(counts, sum(counts)), abs=1e-12)

    @given(st.lists(st.integers(1, 50), min_size=1, max_size=30))
    @settings(max_examples=300)
    def test_bounds_and_identity(self, counts):
        fi = fisher_index(counts)
        # range: positive, at most 8, and 8 only for a single state
        assert 0.0 < fi <= 8.0
        assert (fi == 8.0) == (len(counts) == 1)
        # algebraic identity: FI = 8 - 8 * sum of adjacent amplitude products
        q = [math.sqrt(c / sum(counts)) for c in counts]
        adjacent = math.fsum(q[i] * q[i + 1] for i in range(len(q) - 1))
        assert fi == pytest.approx(8.0 - 8.0 * adjacent, abs=1e-12)

    def test_uniform_is_not_the_minimum(self):
        """Counts (1, 2, 1) score below 8/3, so only 0 < FI <= 8 is asserted.

        Exhaustive check over every composition of windows up to 12 points:
        the uniform value 8/m is NOT a lower bound for fixed m.
        """
        assert fisher_index([1, 2, 1]) < 8 / 3 - 0.3
        worst = {}
        for w in range(2, 13):
            for m in range(2, w + 1):
                for cut in itertools.combinations(range(1, w), m - 1):
                    bounds = (0, *cut, w)
                    counts = [b - a for a, b in zip(bounds, bounds[1:])]
                    fi = brute_fi_from_counts(counts, w)
                    key = m
                    worst[key] = min(worst.get(key, 9.0), fi)
        assert worst[3] < 8 / 3
        assert all(fi > 0 for fi in worst.values())

    @pytest.mark.parametrize("counts", [(), (0,), (3, -1), (1.5,)])
    def test_rejects_counts_that_are_not_positive_integers(self, counts):
        with pytest.raises(ValueError):
            fisher_index(counts)


class TestFiSeries:
    def make(self, **columns):
        fields = dict(time=[1.0, 2.0], fi=[8.0, 2.5], m_states=[1, 3], start=[0, 3])
        fields.update(columns)
        return FiSeries(**fields, config=WindowConfig(8, 3), state_size=StateSize((1.0,)))

    def test_columns_and_derived_fields(self):
        series = self.make()
        assert len(series) == 2
        assert series.end.tolist() == [7, 10]
        assert series.fi.tolist() == [8.0, 2.5]
        assert series.time.tolist() == [1.0, 2.0]
        assert series.m_states.tolist() == [1, 3]

    def test_columns_are_read_only_copies(self):
        fi = np.array([8.0, 2.5])
        series = self.make(fi=fi)
        fi[0] = 1.0
        assert series.fi[0] == 8.0
        with pytest.raises(ValueError):
            series.fi[0] = 1.0

    @pytest.mark.parametrize("columns, message", [
        ({"fi": [8.0, 8.5]}, r"index value 8\.5 outside \(0, 8\.0\]"),
        ({"fi": [0.0, 2.5]}, r"index value 0\.0 outside"),
        ({"fi": [8.0, math.nan]}, r"index value nan outside"),
        ({"m_states": [1, 0]}, r"state count must be >= 1, got 0"),
        ({"start": [0]}, r"columns differ in length"),
    ])
    def test_invalid_columns_rejected(self, columns, message):
        with pytest.raises(ValueError, match=message):
            self.make(**columns)


class TestSlidingFi:
    def test_single_window_series(self, worked_matrix, worked_delta):
        series = sliding_fi(worked_matrix, worked_delta, WindowConfig(8, 1))
        assert len(series) == 1
        assert series.time[0] == 8.0
        assert series.m_states[0] == 4
        assert series.start[0] == 0
        assert series.end[0] == 7
        assert series.fi[0] == pytest.approx(2.136, abs=0.005)

    def test_54_steps_window8_inc1_gives_47_points(self):
        rng = np.random.default_rng(7)
        m = validate_matrix(
            ["gdp", "pop"], range(1960, 2014), rng.normal(size=(54, 2))
        )
        series = sliding_fi(m, StateSize((0.5, 0.5)), WindowConfig(8, 1))
        assert len(series) == 47
        assert series.time[0] == 1967.0
        assert series.time[-1] == 2013.0

    def test_increment_two_skips_starts(self):
        m = make_matrix(list(range(10)))
        series = sliding_fi(m, StateSize((1.0,)), WindowConfig(8, 2))
        assert len(series) == 2
        assert list(zip(series.start.tolist(), series.end.tolist())) == [(0, 7), (2, 9)]

    def test_too_short_series_rejected(self, worked_delta):
        m = make_matrix([[1.0, 2.0]] * 5)
        with pytest.raises(SeriesTooShort):
            sliding_fi(m, worked_delta, WindowConfig(8, 1))

    def test_time_order_and_stamps(self):
        m = make_matrix(list(range(20)), t0=100)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallWindowWarning)
            cfg = WindowConfig(4, 3)
        series = sliding_fi(m, StateSize((0.5,)), cfg)
        labels = series.time.tolist()
        assert labels == sorted(labels)
        assert labels == [float(100 + end) for end in series.end.tolist()]

    @given(
        st.integers(2, 40),
        st.integers(2, 12),
        st.integers(1, 12),
    )
    @settings(max_examples=200)
    def test_window_count_formula(self, t_count, w, inc):
        if inc > w:
            inc = w
        m = make_matrix([float(i % 7) for i in range(t_count)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallWindowWarning)
            cfg = WindowConfig(w, inc)
        expected = (t_count - w) // inc + 1 if t_count >= w else 0
        assert window_count(t_count, cfg) == expected
        if t_count >= w:
            assert len(sliding_fi(m, StateSize((1.0,)), cfg)) == expected
        else:
            with pytest.raises(SeriesTooShort):
                sliding_fi(m, StateSize((1.0,)), cfg)


class TestOracleEquivalence:
    def test_small_windows_match_brute_force(self):
        rng = np.random.default_rng(42)
        for _ in range(2000):
            n = rng.integers(1, 3)
            w = rng.integers(1, 7)
            if rng.random() < 0.5:
                points = rng.integers(0, 5, size=(w, n)).astype(float)
                deltas = rng.integers(0, 4, size=n).astype(float)
            else:
                points = rng.normal(size=(w, n)) * 10
                deltas = rng.uniform(0, 5, size=n)
            assignment = bin_window(points, deltas)
            assert assignment.states == brute_bin(points.tolist(), deltas.tolist())
            fi = fisher_index(assignment.counts)
            assert fi == pytest.approx(brute_fi(points.tolist(), deltas.tolist()), abs=1e-12)


@st.composite
def sliding_cases(draw):
    """A series, state sizes and a window scheme: w in 2..130, n in 1..8.

    Half the cases are integer grids with integer state sizes, so that
    |a - b| = delta ties are common; any column may get delta 0 or inf.
    """
    w = draw(st.integers(2, 130))
    n = draw(st.integers(1, 8))
    inc = draw(st.integers(1, w))
    t_count = draw(st.integers(w, w + 3 * inc + 8))
    if draw(st.booleans()):
        cells = st.integers(-3, 3).map(float)
        widths = st.sampled_from([0.0, 1.0, 2.0, math.inf])
    else:
        cells = st.floats(-100, 100, allow_nan=False, width=32)
        widths = st.one_of(st.floats(0, 50, allow_nan=False), st.sampled_from([0.0, math.inf]))
    values = draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                           min_size=t_count, max_size=t_count))
    deltas = draw(st.lists(widths, min_size=n, max_size=n))
    return values, deltas, w, inc


class TestSlidingOracle:
    @given(sliding_cases())
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_every_window_matches_brute_force(self, case):
        values, deltas, w, inc = case
        m = make_matrix(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallWindowWarning)
            cfg = WindowConfig(w, inc)
        series = sliding_fi(m, StateSize(deltas), cfg)
        starts = list(range(0, len(values) - w + 1, inc))
        assert series.start.tolist() == starts
        assert series.end.tolist() == [a + w - 1 for a in starts]
        assert series.time.tolist() == [m.times.tolist()[a + w - 1] for a in starts]
        for k, a in enumerate(starts):
            states = brute_bin(values[a:a + w], deltas)
            assert series.m_states[k] == len(states)
            expected = brute_fi_from_counts([len(state) for state in states], w)
            assert series.fi[k] == pytest.approx(expected, abs=1e-12)

    @given(sliding_cases())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_batch_scores_equal_one_window_scores_exactly(self, case):
        values, deltas, w, inc = case
        m = make_matrix(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", SmallWindowWarning)
            cfg = WindowConfig(w, inc)
        series = sliding_fi(m, StateSize(deltas), cfg)
        for k, a in enumerate(series.start.tolist()):
            window = values[a:a + w]
            assert series.fi[k] == fisher_index(bin_window(window, deltas).counts)
