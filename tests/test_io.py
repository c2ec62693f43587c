import io as stdio
import json
import warnings
import xml.etree.ElementTree as ET
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import fisherinfo.io as fio
from fisherinfo import (
    EmptyInput,
    EmptySeries,
    FiSeries,
    FisherInfoError,
    MissingValue,
    NonUniformTimeAxis,
    ParseError,
    RegimeCategory,
    RegimeVerdict,
    ResultDocument,
    StateSize,
    WindowConfig,
    classify_regime,
    emit_plot,
    read_csv,
    sliding_fi,
    validate_matrix,
    write_results,
)
from fisherinfo.io import format_time_label

import reference_writers as ref
from conftest import WORKED_CSV


@pytest.fixture
def demo_series():
    rng = np.random.default_rng(3)
    m = validate_matrix(
        ["a", "b"], range(1960, 2014), rng.normal(size=(54, 2)).cumsum(axis=0)
    )
    return sliding_fi(m, StateSize((1.0, 1.0)), WindowConfig(8, 1))


def empty_series():
    return FiSeries(time=[], fi=[], m_states=[], start=[], config=WindowConfig(8, 1),
                    state_size=StateSize((1.0,)))


def make_doc(series, verdict=None):
    return ResultDocument(metadata={"window_size": 8, "increment": 1}, series=series,
                          verdict=verdict)


class TestReadCsv:
    def test_worked_example_layout(self, worked_csv_path):
        m = read_csv(worked_csv_path)
        assert m.n_steps == 8
        assert m.n_vars == 2
        assert m.labels == ("Y1", "Y2")
        assert m.values[4, 0] == 0.95

    def test_reads_streams(self):
        m = read_csv(stdio.StringIO(WORKED_CSV))
        assert m.n_steps == 8

    def test_header_only_is_empty(self):
        with pytest.raises(EmptyInput):
            read_csv(stdio.StringIO("t,Y1,Y2\n"))

    def test_no_variable_columns_is_empty(self):
        with pytest.raises(EmptyInput):
            read_csv(stdio.StringIO("t\n1\n2\n"))

    def test_bad_cell_names_line_and_column(self):
        with pytest.raises(ParseError) as exc:
            read_csv(stdio.StringIO("t,Y1\n1,0.5\n2,abc\n"))
        assert exc.value.line == 3
        assert exc.value.column == "Y1"

    def test_bad_time_cell(self):
        with pytest.raises(ParseError) as exc:
            read_csv(stdio.StringIO("t,Y1\nnope,0.5\n"))
        assert exc.value.line == 2
        assert exc.value.column == "t"

    def test_padded_cells_parse_and_errors_show_the_stripped_cell(self):
        m = read_csv(stdio.StringIO("t,Y1\n 1 ,\t0.5 \n2, 0.25\n"))
        assert m.times.tolist() == [1.0, 2.0]
        assert m.values[:, 0].tolist() == [0.5, 0.25]
        with pytest.raises(ParseError, match=r"cannot parse 'abc' as a number"):
            read_csv(stdio.StringIO("t,Y1\n1,  abc \n"))

    def test_ragged_row_rejected(self):
        with pytest.raises(ParseError) as exc:
            read_csv(stdio.StringIO("t,Y1,Y2\n1,0.5\n"))
        assert exc.value.line == 2

    def test_nan_cell_is_missing_value(self):
        with pytest.raises(MissingValue):
            read_csv(stdio.StringIO("t,Y1\n1,nan\n2,3\n"))

    def test_crlf_and_quotes_accepted(self):
        m = read_csv(stdio.StringIO('t,"Y1",Y2\r\n1,0.5,1\r\n2,0.25,2\r\n'))
        assert m.labels == ("Y1", "Y2")
        assert m.values[1, 1] == 2.0

    def test_blank_lines_skipped(self):
        m = read_csv(stdio.StringIO("t,Y1\n1,0.5\n\n2,0.25\n\n"))
        assert m.n_steps == 2

    def test_full_width_row_of_blank_cells_skipped(self):
        m = read_csv(stdio.StringIO("t,Y1,Y2\n1,0.5,1\n , ,\t\n2,0.25,2\n"))
        assert m.times.tolist() == [1.0, 2.0]
        assert m.values.tolist() == [[0.5, 1.0], [0.25, 2.0]]

    def test_first_bad_cell_of_a_row_is_reported(self):
        with pytest.raises(ParseError) as exc:
            read_csv(stdio.StringIO("t,Y1,Y2\n1,0.5,1\n2,x,y\n"))
        assert (exc.value.line, exc.value.column) == (3, "Y1")

    def test_non_finite_cell_names_file_and_line(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("t,a,b\n1,1,2\n\n2,3,nan\n3,4,5\n")
        with pytest.raises(MissingValue) as exc:
            read_csv(path)
        assert str(exc.value) == f"{path}: line 4, column 'b': non-finite value nan"
        assert (exc.value.row, exc.value.column) == (1, 1)

    def test_time_gap_names_file_and_line(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text("t,a\n1,1\n2,2\n\n3,3\n5,4\n6,5\n")
        with pytest.raises(NonUniformTimeAxis) as exc:
            read_csv(path)
        assert str(exc.value) == (
            f"{path}: line 6: spacing changes at step 3: 2.0 differs from 1.0"
        )
        assert exc.value.row == 3

    @pytest.mark.parametrize("text, error, line", [
        ('t,"a\nb"\n1,2\n2,x\n', ParseError, 4),  # a bad cell after a two-line header
        ('t,a\n1,"2\n"\n2,3\n3,x\n', ParseError, 5),  # a bad cell after a two-line row
        ('t,a\n1,"2\n"\n2,3\n4,4\n', NonUniformTimeAxis, 5),
        ('t,a\n1,"2\n"\n2,3\n3,nan\n', MissingValue, 5),
        ('t,a\n1,"2\n"\n2,3,4\n', ParseError, 4),  # three cells, not two
    ])
    def test_fault_after_a_quoted_newline_names_the_line_it_is_on(self, text, error, line):
        with pytest.raises(error, match=rf"^<stream>: line {line}\b"):
            read_csv(stdio.StringIO(text, newline=""))


# Padding that float() and loadtxt both strip.
SPACES = ["", " ", "\t", "\x0b", "\x0c", "\xa0", "\u2003"]
# Cells the two parsers may read differently: float() takes `1_000` and
# non-ASCII digits, loadtxt strips \x1c-\x1f and refuses quotes, neither
# takes a BOM; and the non-finite spellings.
ODD_CELLS = ['"1.5"', '" 2"', "1_000", "\u0661\u0662", "\ufeff1", "\x1c1", "1\x1f", "",
             " ", "abc", "nan", "NaN", "-nan", "inf", "-inf", "Infinity", "+infinity", "1e400"]
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["-0.0", "0", "1e-320", "+.5", "5.", "1E5"]),
)


@st.composite
def csv_texts(draw):
    """A small CSV text; half of them hold a few cells or rows that one reader may refuse."""
    odd = draw(st.booleans())

    def cell(text):
        if odd and draw(st.integers(0, 7)) == 0:
            text = draw(st.sampled_from(ODD_CELLS))
        return draw(st.sampled_from(SPACES)) + text + draw(st.sampled_from(SPACES))

    n_vars = draw(st.integers(1, 3))
    lines = [draw(st.sampled_from(["", "\ufeff"])) + ",".join(["t", *"abc"[:n_vars]])]
    for t in range(1, draw(st.integers(1, 8)) + 1):
        if odd and draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " ", ",", ", ,", "\t,\t,\t"])))
        lines.append(",".join([cell(str(t)), *(cell(draw(NUMBERS)) for _ in range(n_vars))]))
        if draw(st.integers(0, 5)) == 0:
            lines.append("")  # a blank line
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def read_outcome(text):
    """What read_csv makes of a text: the exact matrix, or the error and its attributes."""
    try:
        m = read_csv(stdio.StringIO(text, newline=""))
    except FisherInfoError as exc:
        return type(exc).__name__, str(exc), sorted(vars(exc).items())
    return m.labels, np.array(m.times).tobytes(), m.values.shape, m.values.tobytes()


class TestBulkIngest:
    """The bulk parse returns what the per-cell reader returns, or hands the body to it."""

    @settings(max_examples=400, deadline=None)
    @given(csv_texts())
    def test_same_matrix_or_error_as_the_per_cell_reader(self, text):
        with mock.patch.object(fio, "_bulk_grid", return_value=None):
            per_cell = read_outcome(text)
        with mock.patch.object(fio, "_read_cells", side_effect=fio._read_cells) as fallback:
            assert read_outcome(text) == per_cell
        event("fell back" if fallback.called else "bulk parse")

    @pytest.mark.parametrize("text", [
        "t,a,b\n1,0.1,-0.0\n2,1e-320,5e300\n",
        "t,a\r\n1, 0.5 \r\n\r\n2,\t0.25\r\n",
        "t,a\r1,0.5\r2,0.25",
        "t,a\n1,\xa00.5\u2003\n2,1E5\n\n",
    ], ids=["repr", "crlf_padded_blank", "cr", "unicode_spaces"])
    def test_clean_files_take_the_bulk_path(self, text):
        expected = read_outcome(text)
        with mock.patch.object(fio, "_read_cells", side_effect=AssertionError("fell back")):
            assert read_outcome(text) == expected

    @pytest.mark.parametrize("text, first", [
        ('t,a\n1,"0.5"\n2,0.25\n', 0.5),
        ("t,a\n1,0.5\n , \n2,0.25\n", 0.5),
        ("t,a\n1,1_000\n2,0.25\n", 1000.0),
        ("t,a\n1,\u0661\n2,0.25\n", 1.0),
    ], ids=["quoted", "comma_only_row", "underscore", "arabic_digit"])
    def test_cells_only_float_reads_fall_back_to_the_same_matrix(self, text, first):
        with mock.patch.object(fio, "_read_cells", side_effect=fio._read_cells) as fallback:
            m = read_csv(stdio.StringIO(text))
        assert fallback.called
        assert m.times.tolist() == [1.0, 2.0]
        assert m.values[:, 0].tolist() == [first, 0.25]

    def test_cell_loadtxt_strips_but_float_refuses_is_a_parse_error(self):
        with pytest.raises(ParseError) as exc:
            read_csv(stdio.StringIO("t,a\n1,0.5\n2,\x1c1\n"))
        # the message keeps the \x1c that float() refuses
        assert str(exc.value) == "<stream>: line 3, column 'a': cannot parse '\\x1c1' as a number"
        assert (exc.value.line, exc.value.column) == (3, "a")

    def test_blank_lines_only_are_empty_input_without_a_warning(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(EmptyInput, match=r"^<stream>: header only, no data rows$"):
                read_csv(stdio.StringIO("t,a\n\n\r\n\n", newline=""))
        assert caught == []

    def test_cell_over_the_field_limit_is_a_parse_error(self):
        # loadtxt reads this cell as 1.0; the csv module refuses it
        text = "t,a\n1,1\n2," + "0" * 200_000 + "1\n3,2\n"
        with pytest.raises(ParseError) as exc:
            read_csv(stdio.StringIO(text))
        assert str(exc.value) == "<stream>: line 3: field larger than field limit (131072)"
        assert exc.value.line == 3

    def test_validator_runs_on_the_bulk_path(self, worked_csv_path):
        real = fio.validate_matrix
        with mock.patch.object(fio, "validate_matrix", side_effect=real) as validate, \
                mock.patch.object(fio, "_read_cells", side_effect=AssertionError("fell back")):
            read_csv(worked_csv_path)
        labels, times, values = validate.call_args.args
        assert isinstance(values, np.ndarray) and values.shape == (8, 2)


class TestWriteResults:
    def test_csv_golden_line(self, tmp_path):
        series = FiSeries(time=[1967.0], fi=[2.136], m_states=[4], start=[0],
                          config=WindowConfig(8, 1), state_size=StateSize((0.5, 1.0)))
        out = tmp_path / "out.csv"
        write_results(make_doc(series), "csv", out)
        lines = out.read_text().splitlines()
        assert lines[0] == "time,fi,m_states"
        assert lines[1] == "1967,2.136,4"

    def test_csv_roundtrip_recovers_fi_exactly(self, demo_series, tmp_path):
        out = tmp_path / "out.csv"
        write_results(make_doc(demo_series), "csv", out)
        lines = out.read_text().splitlines()[1:]
        assert len(lines) == len(demo_series)
        for line, t, fi, m in zip(lines, demo_series.time.tolist(), demo_series.fi.tolist(),
                                  demo_series.m_states.tolist()):
            time_text, fi_text, m_text = line.split(",")
            assert float(fi_text) == fi
            assert float(time_text) == t
            assert int(m_text) == m

    def test_json_document_structure(self, demo_series, tmp_path):
        verdict = classify_regime(demo_series)
        doc = ResultDocument(
            metadata={"window_size": 8}, series=demo_series, verdict=verdict,
            peaks=(1, 5),
        )
        out = tmp_path / "out.json"
        write_results(doc, "json", out)
        payload = json.loads(out.read_text())
        assert payload["metadata"] == {"window_size": 8}
        assert len(payload["fi_points"]) == len(demo_series)
        assert payload["fi_points"][0]["time"] == 1967
        assert payload["fi_points"][0]["fi"] == demo_series.fi[0]
        assert payload["verdict"]["category"] in {"stable", "declining", "increasing"}
        assert payload["peaks"] == [1, 5]

    @pytest.mark.parametrize("times", [[1967.0, 1968.0], [0.5, 1.5], [-1e17, 1e17 - 1.0]])
    @pytest.mark.parametrize("verdict", [True, False])
    @pytest.mark.parametrize("peaks", [(), (0,), (1, 5)])
    def test_json_matches_the_standard_encoder(self, times, verdict, peaks):
        series = FiSeries(time=times, fi=[8.0, 0.1 + 0.2], m_states=[1, 7], start=[0, 3],
                          config=WindowConfig(8, 3), state_size=StateSize((0.5,)))
        metadata = {"tool": "fisherinfo", "state_size": [0.5], "nested": {"k": None},
                    "empty": {}, "label": "caf\u00e9 \"q\"\n"}
        doc = ResultDocument(metadata=metadata, series=series, peaks=peaks,
                             verdict=classify_regime(series) if verdict else None)
        out = stdio.StringIO()
        write_results(doc, "json", out)
        payload = {
            "metadata": metadata,
            "fi_points": [
                {"time": int(t) if t.is_integer() else t, "fi": fi, "m_states": m,
                 "window_start_index": a, "window_end_index": b}
                for t, fi, m, a, b in zip(times, series.fi.tolist(), series.m_states.tolist(),
                                          series.start.tolist(), series.end.tolist())
            ],
            "verdict": None,
            "peaks": list(peaks),
        }
        if verdict:
            v = doc.verdict
            payload["verdict"] = {"category": str(v.category), "slope": v.slope,
                                  "mean_fi": v.mean_fi, "slope_window": list(v.slope_window)}
        assert out.getvalue() == json.dumps(payload, indent=2) + "\n"

    def test_empty_series_json_keeps_metadata(self, tmp_path):
        empty = empty_series()
        out = tmp_path / "empty.json"
        write_results(make_doc(empty), "json", out)
        payload = json.loads(out.read_text())
        assert payload["fi_points"] == []
        assert payload["verdict"] is None
        assert payload["metadata"]["window_size"] == 8

    def test_unknown_format_rejected(self, demo_series, tmp_path):
        with pytest.raises(ValueError):
            write_results(make_doc(demo_series), "xml", tmp_path / "x")

    def test_unwritable_destination_names_path(self, demo_series, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError) as exc:
            write_results(make_doc(demo_series), "csv", target)
        assert "missing-dir" in str(exc.value)

    def test_write_is_deterministic(self, demo_series, tmp_path):
        doc = make_doc(demo_series, verdict=classify_regime(demo_series))
        for fmt, suffix in [("csv", "csv"), ("json", "json")]:
            a, b = tmp_path / f"a.{suffix}", tmp_path / f"b.{suffix}"
            write_results(doc, fmt, a)
            write_results(doc, fmt, b)
            assert a.read_bytes() == b.read_bytes()


# fi values in (0, 8]: a few distinct ones (as real runs give) or any
_FEW_FI = [8.0, 5e-324, 0.1 + 0.2, 4.0, 2.0 - 2 ** -52, 7.999999999999999, 1e-300]
_ANY_FI = st.floats(min_value=5e-324, max_value=8.0)
_TIME = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(float),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.integers(2 ** 53 - 4, 2 ** 62).map(float),
    st.integers(-2 ** 62, -2 ** 53).map(float),
    st.sampled_from([-0.0, 0.0, 0.5, -1.5, 1e300, -2.5e-310]),
)


@st.composite
def documents(draw):
    n = draw(st.integers(1, 60))
    fi_value = st.sampled_from(_FEW_FI) if draw(st.booleans()) else _ANY_FI
    window = draw(st.integers(8, 40))
    start = sorted(draw(st.lists(st.integers(0, 10 ** 9), min_size=n, max_size=n)))
    series = FiSeries(
        time=draw(st.lists(_TIME, min_size=n, max_size=n)),
        fi=draw(st.lists(fi_value, min_size=n, max_size=n)),
        m_states=draw(st.lists(st.integers(1, 300), min_size=n, max_size=n)),
        start=start, config=WindowConfig(window, 1), state_size=StateSize((0.5,)),
    )
    verdict = draw(st.none() | st.builds(
        RegimeVerdict, st.sampled_from(list(RegimeCategory)),
        st.floats(allow_nan=False, allow_infinity=False),
        st.floats(5e-324, 8.0), st.tuples(st.integers(0, 60), st.integers(0, 60)),
    ))
    peaks = tuple(draw(st.lists(st.integers(0, 60), max_size=10)))
    metadata = {"window_size": window, "state_size": [0.5], "k": None}
    return ResultDocument(metadata=metadata, series=series, verdict=verdict, peaks=peaks)


class TestWritersMatchPerRowReference:
    """The column writers give the same text as per-row formatting (tests/reference_writers.py)."""

    @given(documents())
    @settings(max_examples=300, deadline=None)
    def test_csv_json_and_svg_match(self, doc):
        for fmt, reference in (("csv", ref.csv_text), ("json", ref.json_text)):
            out = stdio.StringIO()
            write_results(doc, fmt, out)
            assert out.getvalue() == reference(doc)
        out = stdio.StringIO()
        emit_plot(doc.series, out)
        assert out.getvalue() == ref.svg_text(doc.series)

    def test_empty_series_matches(self):
        doc = make_doc(empty_series())
        for fmt, reference in (("csv", ref.csv_text), ("json", ref.json_text)):
            out = stdio.StringIO()
            write_results(doc, fmt, out)
            assert out.getvalue() == reference(doc)

    def test_each_bit_pattern_renders_apart(self):
        column = np.array([0.0, -0.0, 0.0, 0.004, -0.0])
        render = mock.Mock(side_effect="{:.2f}".format)
        assert fio._texts(column, render) == ["0.00", "-0.00", "0.00", "0.00", "-0.00"]
        assert render.call_count == 3

    def test_non_finite_metadata_is_a_string(self):
        doc = ResultDocument(metadata={"state_size": [float("inf"), 0.5],
                                       "slope_range_labels": (-np.inf, 2.0)},
                             series=empty_series())
        out = stdio.StringIO()
        write_results(doc, "json", out)
        payload = json.loads(out.getvalue(), parse_constant=_refuse)
        assert payload["metadata"] == {"state_size": ["inf", 0.5],
                                       "slope_range_labels": ["-inf", 2.0]}


def _refuse(token):
    raise ValueError(f"not strict JSON: {token}")


class TestEmitPlot:
    def test_polyline_has_one_vertex_per_point(self, demo_series, tmp_path):
        out = tmp_path / "plot.svg"
        emit_plot(demo_series, out)
        root = ET.parse(out).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        polylines = root.findall(".//svg:polyline", ns)
        assert len(polylines) == 1
        vertices = polylines[0].attrib["points"].split()
        assert len(vertices) == 47

    def test_single_point_becomes_marker(self, worked_matrix, worked_delta, tmp_path):
        series = sliding_fi(worked_matrix, worked_delta, WindowConfig(8, 1))
        out = tmp_path / "single.svg"
        emit_plot(series, out)
        root = ET.parse(out).getroot()
        ns = {"svg": "http://www.w3.org/2000/svg"}
        assert root.findall(".//svg:polyline", ns) == []
        assert len(root.findall(".//svg:circle", ns)) == 1

    def test_empty_series_rejected(self, tmp_path):
        empty = empty_series()
        with pytest.raises(EmptySeries):
            emit_plot(empty, tmp_path / "never.svg")

    @pytest.mark.parametrize("n, one_end", [*((n, False) for n in range(1, 41)),
                                            (2, True), (5, True)])
    def test_matches_reference_at_every_tick_count(self, n, one_end):
        # n = 1..40 gives every x-tick stride (n - 1) // 7 from 0 to 5; windows
        # that all end on one row put every vertex at the centre, as a lone point is
        rng = np.random.default_rng(n)
        start = np.full(n, 3) if one_end else np.cumsum(rng.integers(1, 5, n))
        series = FiSeries(time=1900.0 + 0.5 * start, fi=rng.uniform(0.01, 8.0, n),
                          m_states=rng.integers(1, 9, n), start=start,
                          config=WindowConfig(8, 1), state_size=StateSize((0.5,)))
        out = stdio.StringIO()
        emit_plot(series, out)
        assert out.getvalue() == ref.svg_text(series)

    def test_plot_is_deterministic(self, demo_series, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_plot(demo_series, a)
        emit_plot(demo_series, b)
        assert a.read_bytes() == b.read_bytes()


class TestTimeLabels:
    def test_integral_labels_render_as_integers(self):
        assert format_time_label(1967.0) == "1967"
        assert format_time_label(8.0) == "8"

    def test_fractional_labels_keep_precision(self):
        assert format_time_label(1.5) == "1.5"
        assert float(format_time_label(0.1)) == 0.1
