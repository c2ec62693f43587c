"""Acceptance gate: every shipped criterion at its stated tolerance.

Each test reports one line (criterion N: PASS/FAIL) in the terminal summary.
"""
import functools
import json
import time
import warnings

import numpy as np
import pytest

from fisherinfo import (
    SmallWindowWarning,
    SosConfig,
    StateSize,
    WindowConfig,
    bin_window,
    classify_regime,
    demo_matrix,
    fisher_index,
    sliding_fi,
    validate_matrix,
    window_count,
)
from fisherinfo.cli import main

import conftest
from conftest import WORKED_ROWS
from oracle import brute_bin, brute_fi

GOLDEN_FI = 2.136
GOLDEN_FI_TOL = 0.005
PUBLISHED_SOS = (985.82, 10307105.62)


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                conftest.ACCEPTANCE_RESULTS.append((number, name, "FAIL"))
                raise
            conftest.ACCEPTANCE_RESULTS.append((number, name, "PASS"))
            return result

        return wrapper

    return decorate


@criterion(1, "golden worked example")
def test_golden_worked_example(worked_csv_path, tmp_path, capsys):
    started = time.perf_counter()
    out_csv = tmp_path / "fi.csv"
    code = main(
        ["compute", str(worked_csv_path), "--sos", "0.5,1",
         "--window-size", "8", "--increment", "1", "--out-csv", str(out_csv)]
    )
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0

    lines = out_csv.read_text().splitlines()
    assert len(lines) == 2  # header + exactly one index point
    _, fi_text, m_text = lines[1].split(",")
    assert abs(float(fi_text) - GOLDEN_FI) <= GOLDEN_FI_TOL
    assert int(m_text) == 4

    assignment = bin_window(WORKED_ROWS, StateSize((0.5, 1.0)))
    assert tuple(c / 8 for c in assignment.counts) == (0.375, 0.25, 0.25, 0.125)

    assert elapsed < 0.25  # this path is expected to take milliseconds


@criterion(2, "maximal-order bound")
def test_single_state_windows_score_eight_exactly():
    rng = np.random.default_rng(20_08)
    for _ in range(1000):
        n = int(rng.integers(1, 5))
        w = int(rng.integers(2, 17))
        deltas = rng.uniform(0.5, 10.0, size=n)
        base = rng.uniform(-50.0, 50.0, size=n)
        # every later point within delta of the first: |u| <= 1 keeps the
        # scaled offset inside the box even after rounding
        offsets = deltas * rng.uniform(-1.0, 1.0, size=(w - 1, n))
        points = np.vstack([base, base + offsets])
        assignment = bin_window(points, deltas)
        assert assignment.n_states == 1
        assert fisher_index(assignment.counts) == 8.0


@criterion(3, "uniform law")
@pytest.mark.parametrize("m", range(1, 9))
def test_uniform_states_score_eight_over_m(m):
    group_size = 3
    points = [(1000.0 * g,) for g in range(m) for _ in range(group_size)]
    assignment = bin_window(points, (1.0,))
    assert assignment.n_states == m
    assert assignment.counts == (group_size,) * m
    fi = fisher_index(assignment.counts)
    assert abs(fi - 8.0 / m) <= 1e-9


@criterion(4, "oracle equivalence")
def test_brute_force_oracle_equivalence():
    rng = np.random.default_rng(4242)
    trials = 12_000
    for trial in range(trials):
        n = int(rng.integers(1, 3))
        w = int(rng.integers(1, 7))
        if trial % 2 == 0:
            # coarse integer grid: exercises exact boundary ties |a-b| == delta
            points = rng.integers(0, 5, size=(w, n)).astype(float)
            deltas = rng.integers(0, 4, size=n).astype(float)
        else:
            points = rng.normal(scale=10.0, size=(w, n))
            deltas = rng.uniform(0.0, 6.0, size=n)
        assignment = bin_window(points, deltas)
        assert assignment.states == brute_bin(points.tolist(), deltas.tolist())
        engine_fi = fisher_index(assignment.counts)
        assert abs(engine_fi - brute_fi(points.tolist(), deltas.tolist())) <= 1e-12


@criterion(5, "affine invariance")
def test_shift_and_scale_leave_results_unchanged():
    rng = np.random.default_rng(555)
    for _ in range(300):
        t_count = int(rng.integers(8, 31))
        n = int(rng.integers(1, 4))
        values = rng.uniform(-100.0, 100.0, size=(t_count, n))
        deltas = rng.uniform(0.1, 50.0, size=n)

        shifts = np.where(rng.random(n) < 0.5, rng.uniform(-1e3, 1e3, n), 0.0)
        scales = np.where(rng.random(n) < 0.5, rng.uniform(1e-3, 1e3, n), 1.0)
        moved = values * scales + shifts
        moved_deltas = deltas * scales

        base = validate_matrix([f"v{i}" for i in range(n)], range(t_count), values)
        other = validate_matrix([f"v{i}" for i in range(n)], range(t_count), moved)
        cfg = WindowConfig(8, int(rng.integers(1, 4)))

        for start in range(0, t_count - 8 + 1, cfg.increment):
            a = bin_window(values[start:start + 8], deltas)
            b = bin_window(moved[start:start + 8], moved_deltas)
            assert a.states == b.states

        series_a = sliding_fi(base, StateSize(tuple(deltas)), cfg)
        series_b = sliding_fi(other, StateSize(tuple(moved_deltas)), cfg)
        assert series_a.m_states.tolist() == series_b.m_states.tolist()
        for fa, fb in zip(series_a.fi.tolist(), series_b.fi.tolist()):
            assert abs(fa - fb) <= 1e-12


@criterion(6, "window accounting")
def test_series_length_matches_closed_form():
    rng = np.random.default_rng(66)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallWindowWarning)
        for _ in range(500):
            t_count = int(rng.integers(2, 61))
            w = int(rng.integers(2, 15))
            inc = int(rng.integers(1, w + 1))
            cfg = WindowConfig(w, inc)
            expected = (t_count - w) // inc + 1 if t_count >= w else 0
            assert window_count(t_count, cfg) == expected
            if expected > 0:
                m = validate_matrix(
                    ["y"], range(t_count), rng.normal(size=(t_count, 1))
                )
                assert len(sliding_fi(m, StateSize((1.0,)), cfg)) == expected

    # the demonstration configuration: 54 annual steps, window 8, increment 1
    m = validate_matrix(
        ["a", "b"], range(1960, 2014), rng.normal(size=(54, 2))
    )
    series = sliding_fi(m, StateSize((1.0, 1.0)), WindowConfig(8, 1))
    assert len(series) == 47
    assert series.time[0] == 1967.0
    assert series.time[-1] == 2013.0


@criterion(7, "demonstration reproduction")
def test_offline_demo_is_stable_over_1975_2013():
    started = time.perf_counter()
    matrix = demo_matrix(offline=True)
    series = sliding_fi(matrix, StateSize(PUBLISHED_SOS), WindowConfig(8, 1))
    assert len(series) == 47
    assert series.time[0] == 1967.0

    labels = series.time.tolist()
    first = labels.index(1975.0)
    last = labels.index(2013.0)
    verdict = classify_regime(series, index_range=(first, last))
    elapsed = time.perf_counter() - started

    assert str(verdict.category) == "stable"
    assert abs(verdict.slope) <= 0.02
    assert verdict.mean_fi > 0
    assert elapsed < 1.0


@criterion(8, "determinism")
def test_repeated_runs_are_byte_identical(worked_csv_path, tmp_path, capsys):
    def run_all(tag):
        paths = {
            "compute_csv": tmp_path / f"c_{tag}.csv",
            "compute_json": tmp_path / f"c_{tag}.json",
            "compute_svg": tmp_path / f"c_{tag}.svg",
            "demo_csv": tmp_path / f"d_{tag}.csv",
            "demo_json": tmp_path / f"d_{tag}.json",
            "demo_svg": tmp_path / f"d_{tag}.svg",
        }
        assert main(
            ["compute", str(worked_csv_path), "--sos", "0.5,1",
             "--out-csv", str(paths["compute_csv"]),
             "--out-json", str(paths["compute_json"]),
             "--plot", str(paths["compute_svg"])]
        ) == 0
        assert main(
            ["demo", "--sos", ",".join(str(d) for d in PUBLISHED_SOS),
             "--slope-range", "1975:2013",
             "--out-csv", str(paths["demo_csv"]),
             "--out-json", str(paths["demo_json"]),
             "--plot", str(paths["demo_svg"])]
        ) == 0
        capsys.readouterr()
        return {key: path.read_bytes() for key, path in paths.items()}

    first = run_all("one")
    second = run_all("two")
    assert set(first) == set(second)
    for key in first:
        assert first[key] == second[key], f"{key} differs between runs"
