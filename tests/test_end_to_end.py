"""One `fisherinfo compute` call per drawn case, every output checked against plain Python.

The CSV, the options and the state sizes are drawn at random; the state
sizes, partitions, index values, slope and peaks are recomputed with
tests/oracle.py and the output files with tests/reference_writers.py.  The
metamorphic tests check properties the index has by definition, with no
oracle: only past data enter a point, and neither the order of the
variables nor a power-of-two change of units moves any value.
"""
import contextlib
import hashlib
import io
import json
import math
import re
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference_writers as ref
from fisherinfo import (
    FiSeries,
    RegimeCategory,
    RegimeVerdict,
    ResultDocument,
    SmallWindowWarning,
    StateSize,
    WindowConfig,
    __version__,
    bin_window,
    fisher_index,
)
from fisherinfo.cli import main
from oracle import brute_bin, brute_fi_from_counts, brute_ols_slope, brute_sample_sd

# Bounds the oracle's work per case: windows * w**2 stays below this, so a
# case with w = 130 has at most three windows and one with w = 8 up to 400.
ORACLE_BUDGET = 60_000

SETTINGS = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                          HealthCheck.data_too_large])


def _cells(tie_grid: bool):
    if tie_grid:  # integer points and state sizes, so |a - b| == delta ties are common
        return st.integers(-3, 3).map(float), st.sampled_from([0.0, 1.0, 2.0])
    return (st.floats(-100, 100, allow_nan=False, width=32),
            st.one_of(st.floats(0, 50, allow_nan=False), st.just(0.0)))


@st.composite
def series(draw, max_steps=400):
    """A time origin, rows of 2..4 variables and explicit finite state sizes for them."""
    n = draw(st.integers(2, 4))
    t_count = draw(st.integers(10, max_steps))
    cells, widths = _cells(draw(st.booleans()))
    rows = draw(st.lists(st.lists(cells, min_size=n, max_size=n),
                         min_size=t_count, max_size=t_count))
    sos = draw(st.lists(widths, min_size=n, max_size=n))
    return draw(st.integers(-50, 2000)), rows, sos


@st.composite
def cases(draw):
    t0, rows, sos = draw(series())
    t_count = len(rows)
    w = draw(st.integers(2, min(130, t_count)))
    # the smallest increment whose (t_count - w) // inc + 1 windows fit the budget
    most_windows = ORACLE_BUDGET // (w * w)
    inc_min = 1 if most_windows > t_count - w else (t_count - w) // most_windows + 1
    inc = draw(st.integers(min(inc_min, w), w))
    if draw(st.booleans()):
        estimate = ["--k", repr(draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])))]
    else:
        estimate = ["--sos", ",".join(map(repr, sos))]
    n_windows = (t_count - w) // inc + 1
    slope_points = None
    if n_windows >= 2 and draw(st.booleans()):
        first = draw(st.integers(0, n_windows - 2))
        slope_points = (first, draw(st.integers(first + 1, n_windows - 1)))
    return t0, rows, w, inc, estimate, slope_points


def _csv_text(t0, rows) -> str:
    return "t," + ",".join(f"v{i}" for i in range(len(rows[0]))) + "\n" + "".join(
        f"{t0 + step}," + ",".join(map(repr, row)) + "\n" for step, row in enumerate(rows))


def _compute(directory, t0, rows, args):
    """Run main on the rows with every output; return its stdout and the three files' text."""
    path = directory / "in.csv"
    path.write_text(_csv_text(t0, rows), encoding="utf-8")
    outputs = {name: directory / f"out.{name}" for name in ("csv", "json", "svg")}
    stdout = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(stdout):
        warnings.simplefilter("ignore", UserWarning)  # small windows, constant columns
        code = main(["compute", str(path), *args, "--out-csv", str(outputs["csv"]),
                     "--out-json", str(outputs["json"]), "--plot", str(outputs["svg"])])
    assert code == 0
    return stdout.getvalue(), {name: p.read_text(encoding="utf-8") for name, p in outputs.items()}


def _strict_json(text: str) -> dict:
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")

    return json.loads(text, parse_constant=refuse)


def _points(directory, t0, rows, sos, w, inc):
    """fi and m_states of every window of one run with explicit state sizes."""
    args = ["--sos", ",".join(map(repr, sos)), "--window-size", str(w), "--increment", str(inc)]
    _, files = _compute(directory, t0, rows, args)
    return [(p["fi"], p["m_states"]) for p in _strict_json(files["json"])["fi_points"]]


@given(cases())
@settings(SETTINGS, max_examples=60)
def test_every_output_of_main_matches_the_oracle(tmp_path_factory, case):
    t0, rows, w, inc, estimate, slope_points = case
    directory = tmp_path_factory.mktemp("run", numbered=True)
    args = ["--window-size", str(w), "--increment", str(inc), *estimate]
    slope_labels = None
    if slope_points is not None:
        slope_labels = [float(t0 + a * inc + w - 1) for a in slope_points]
        args.append("--slope-range={:g}:{:g}".format(*slope_labels))
    stdout, files = _compute(directory, t0, rows, args)
    doc = _strict_json(files["json"])
    meta = doc["metadata"]

    # state sizes: explicit ones are passed through, estimated ones are k sample SDs
    columns = list(zip(*rows))
    deltas = meta["state_size"]
    if estimate[0] == "--k":
        k = float(estimate[1])
        for delta, column in zip(deltas, columns):
            expected = k * brute_sample_sd(list(column))
            assert math.isclose(delta, expected, rel_tol=1e-12)
    else:
        assert deltas == [float(d) for d in estimate[1].split(",")]

    # every window: partition, state count and index value
    starts = range(0, len(rows) - w + 1, inc)
    points = doc["fi_points"]
    assert [(p["window_start_index"], p["window_end_index"], p["time"]) for p in points] == [
        (a, a + w - 1, t0 + a + w - 1) for a in starts]
    fis, counts_per_window = [], []
    for point, a in zip(points, starts):
        states = brute_bin(rows[a:a + w], deltas)
        assert bin_window(rows[a:a + w], deltas).states == states
        counts = [len(state) for state in states]
        assert point["m_states"] == len(counts)
        assert point["fi"] == fisher_index(counts)
        assert math.isclose(point["fi"], brute_fi_from_counts(counts, w), rel_tol=0.0,
                            abs_tol=1e-12)
        fis.append(fisher_index(counts))
        counts_per_window.append(counts)

    # the verdict over the selected points, and the peaks
    verdict = None
    if len(points) >= 2:
        a, b = slope_points or (0, len(points) - 1)
        selected = fis[a:b + 1]
        got = doc["verdict"]
        expected_slope = brute_ols_slope(selected) / inc
        assert math.isclose(got["slope"], expected_slope, rel_tol=1e-9, abs_tol=1e-12)
        assert got["mean_fi"] == math.fsum(selected) / len(selected)
        assert got["slope_window"] == [a, b]
        bound = 0.02 * (1 + 1e-9)
        category = ("declining" if got["slope"] < -bound
                    else "increasing" if got["slope"] > bound else "stable")
        assert got["category"] == category
        verdict = RegimeVerdict(RegimeCategory(category), got["slope"], got["mean_fi"], (a, b))
    else:
        assert doc["verdict"] is None
    peaks = tuple(i for i in range(1, len(fis) - 1) if fis[i - 1] < fis[i] > fis[i + 1])
    assert tuple(doc["peaks"]) == peaks

    # the three files, rendered row by row from the oracle's values
    csv_bytes = _csv_text(t0, rows).encode("utf-8")
    expected_meta = {
        "tool": "fisherinfo",
        "version": __version__,
        "command": "compute",
        "inputs_sha256": {str(directory / "in.csv"): hashlib.sha256(csv_bytes).hexdigest()},
        "variables": [f"v{i}" for i in range(len(columns))],
        "n_steps": len(rows),
        "window_size": w,
        "increment": inc,
        "state_size": deltas,
        "slope_tol": 0.02,
        "slope_range_labels": slope_labels,
        "sos_source": "estimated" if estimate[0] == "--k" else "explicit",
        "k": float(estimate[1]) if estimate[0] == "--k" else None,
        "stable_range": None,
    }
    assert meta == expected_meta
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", SmallWindowWarning)
        config = WindowConfig(w, inc)
    start = np.arange(len(fis)) * inc
    oracle_series = FiSeries(time=t0 + start + (w - 1), fi=fis,
                             m_states=[len(c) for c in counts_per_window], start=start,
                             config=config, state_size=StateSize(deltas))
    expected_doc = ResultDocument(metadata=expected_meta, series=oracle_series, verdict=verdict,
                                  peaks=peaks)
    assert files["csv"] == ref.csv_text(expected_doc)
    assert files["json"] == ref.json_text(expected_doc)
    assert files["svg"] == ref.svg_text(oracle_series)

    # stdout names the first and last time labels
    first_line = stdout.splitlines()[0]
    match = re.match(r"(\d+) index point\(s\), (\S+?)\.\.(\S+), window ", first_line)
    assert match is not None, first_line
    assert match.groups() == (str(len(points)), str(points[0]["time"]), str(points[-1]["time"]))


@st.composite
def explicit_cases(draw, max_steps=150):
    t0, rows, sos = draw(series(max_steps))
    w = draw(st.integers(2, min(130, len(rows))))
    return t0, rows, sos, w, draw(st.integers(1, w))


@given(explicit_cases(max_steps=120), st.data())
@settings(SETTINGS, max_examples=25)
def test_appending_rows_leaves_every_earlier_window_unchanged(tmp_path_factory, case, data):
    t0, rows, sos, w, inc = case
    more = data.draw(st.lists(st.lists(st.floats(-100, 100, allow_nan=False, width=32),
                                       min_size=len(sos), max_size=len(sos)),
                              min_size=1, max_size=60))
    directory = tmp_path_factory.mktemp("append", numbered=True)
    before = _points(directory, t0, rows, sos, w, inc)
    after = _points(directory, t0, rows + more, sos, w, inc)
    assert after[:len(before)] == before


@given(explicit_cases(), st.data())
@settings(SETTINGS, max_examples=25)
def test_permuting_the_variables_leaves_every_value_unchanged(tmp_path_factory, case, data):
    t0, rows, sos, w, inc = case
    order = data.draw(st.permutations(range(len(sos))))
    directory = tmp_path_factory.mktemp("permute", numbered=True)
    before = _points(directory, t0, rows, sos, w, inc)
    after = _points(directory, t0, [[row[i] for i in order] for row in rows],
                    [sos[i] for i in order], w, inc)
    assert after == before


@given(explicit_cases(), st.data())
@settings(SETTINGS, max_examples=25)
def test_a_power_of_two_change_of_units_leaves_every_value_unchanged(tmp_path_factory, case,
                                                                     data):
    t0, rows, sos, w, inc = case
    column = data.draw(st.integers(0, len(sos) - 1))
    scale = 2.0 ** data.draw(st.integers(-8, 8))
    directory = tmp_path_factory.mktemp("scale", numbered=True)
    before = _points(directory, t0, rows, sos, w, inc)
    scaled_rows = [[x * scale if i == column else x for i, x in enumerate(row)] for row in rows]
    scaled_sos = [d * scale if i == column else d for i, d in enumerate(sos)]
    after = _points(directory, t0, scaled_rows, scaled_sos, w, inc)
    assert after == before
