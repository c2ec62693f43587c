import io as stdio
import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from fisherinfo import (
    EmptyInput,
    EmptySeries,
    FiSeries,
    MissingValue,
    ParseError,
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
from fisherinfo.io import format_time_label, write_matrix_csv

from conftest import WORKED_CSV


@pytest.fixture
def demo_series():
    rng = np.random.default_rng(3)
    m = validate_matrix(
        ["a", "b"], range(1960, 2014), rng.normal(size=(54, 2)).cumsum(axis=0)
    )
    return sliding_fi(m, StateSize((1.0, 1.0)), WindowConfig(8, 1))


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
        assert m.times == (1.0, 2.0)
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

    def test_matrix_roundtrip_identity(self, worked_csv_path, tmp_path):
        m = read_csv(worked_csv_path)
        out = tmp_path / "again.csv"
        write_matrix_csv(m, out, time_header="t")
        again = read_csv(out)
        assert again.labels == m.labels
        assert again.times == m.times
        assert np.array_equal(again.values, m.values)


class TestWriteResults:
    def test_csv_golden_line(self, tmp_path):
        from fisherinfo.engine import FiPoint

        point = FiPoint(time_label=1967.0, fi=2.136, m_states=4,
                        window_start_index=0, window_end_index=7)
        series = FiSeries(points=(point,), config=WindowConfig(8, 1),
                          state_size=StateSize((0.5, 1.0)))
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
        for line, point in zip(lines, demo_series.points):
            time_text, fi_text, m_text = line.split(",")
            assert float(fi_text) == point.fi
            assert float(time_text) == point.time_label
            assert int(m_text) == point.m_states

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
        assert payload["fi_points"][0]["fi"] == demo_series.points[0].fi
        assert payload["verdict"]["category"] in {"stable", "declining", "increasing"}
        assert payload["peaks"] == [1, 5]

    def test_empty_series_json_keeps_metadata(self, tmp_path):
        empty = FiSeries(points=(), config=WindowConfig(8, 1), state_size=StateSize((1.0,)))
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
        empty = FiSeries(points=(), config=WindowConfig(8, 1), state_size=StateSize((1.0,)))
        with pytest.raises(EmptySeries):
            emit_plot(empty, tmp_path / "never.svg")

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
