import hashlib
import http.client
import io
import json
import math
import subprocess
import sys
import tempfile
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import fisherinfo.worldbank as wb
from fisherinfo import (
    EmptyInput,
    GapInSeries,
    IndicatorRequest,
    MissingValue,
    NetworkError,
    NonUniformTimeAxis,
    NotFound,
    ParseError,
    demo_matrix,
    fetch_indicator,
)

from fisherinfo.cli import main

from conftest import child_env


def wb_payload(records):
    return [{"page": 1, "pages": 1, "per_page": 20000, "total": len(records)}, records]


def wb_records(pairs, country="USA"):
    return [
        {"date": str(year), "value": value, "country": {"id": country}}
        for year, value in pairs
    ]


@pytest.fixture
def fake_api(monkeypatch):
    """Patch the HTTP layer; returns a dict to configure payloads and count calls."""
    state = {"calls": 0, "payload": None, "raise_exc": None}

    def _fake_get_json(url, params, timeout):
        state["calls"] += 1
        state["last_url"] = url
        state["last_params"] = params
        if state["raise_exc"] is not None:
            raise state["raise_exc"]
        return state["payload"]

    monkeypatch.setattr(wb, "_get_json", _fake_get_json)
    return state


def served(matrix):
    """A served one-column matrix as (times, values) lists."""
    assert matrix.n_vars == 1
    return matrix.times.tolist(), matrix.values[:, 0].tolist()


def demo_request(indicator):
    return IndicatorRequest(wb.DEMO_COUNTRY, indicator, wb.DEMO_YEARS)


def demo_digests(directory):
    """(cache file name, sha256 of its bytes) of the demo's two indicators, in demo order."""
    paths = [wb.cache_path(demo_request(indicator), directory)
             for indicator in (wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION)]
    return [(path.name, hashlib.sha256(path.read_bytes()).hexdigest()) for path in paths]


@pytest.fixture
def fake_urlopen(monkeypatch):
    """Patch urllib's urlopen under the real _get_json; configure its reply."""
    state = {"body": b"", "raise_exc": None}

    def _fake_urlopen(url, timeout):
        state["url"] = url
        state["timeout"] = timeout
        if state["raise_exc"] is not None:
            raise state["raise_exc"]
        return io.BytesIO(state["body"])

    monkeypatch.setattr(urllib.request, "urlopen", _fake_urlopen)
    return state


class TestIndicatorRequest:
    def test_valid(self):
        req = IndicatorRequest("USA", "SP.POP.TOTL", (1960, 2013))
        assert req.year_range == (1960, 2013)

    def test_reversed_years_rejected(self):
        with pytest.raises(ValueError):
            IndicatorRequest("USA", "SP.POP.TOTL", (2013, 1960))

    def test_empty_identifiers_rejected(self):
        with pytest.raises(ValueError):
            IndicatorRequest("", "SP.POP.TOTL", (1960, 1961))
        with pytest.raises(ValueError):
            IndicatorRequest("USA", "", (1960, 1961))

    @pytest.mark.parametrize("code", ["../outside/USA", "a/b", "a\\b", "US A", "USA?x=1",
                                      "US%2F", "USA\n", "ÜSA", ".", "..", ".USA", "-USA"])
    def test_code_that_is_not_one_plain_path_segment_rejected(self, code):
        with pytest.raises(ValueError, match="followed by letters, digits"):
            IndicatorRequest(code, "SP.POP.TOTL", (1960, 1961))
        with pytest.raises(ValueError, match="followed by letters, digits"):
            IndicatorRequest("USA", code, (1960, 1961))

    def test_code_characters_accepted(self):
        req = IndicatorRequest("1W", "NY.GDP.PCAP.CD_x-1", (1960, 1961))
        assert req.indicator_id == "NY.GDP.PCAP.CD_x-1"


class TestFetchIndicator:
    def test_fetch_sorts_years_and_caches(self, fake_api, tmp_path):
        req = IndicatorRequest("USA", "X.Y", (2000, 2002))
        # API returns newest first; fetch must deliver ascending
        fake_api["payload"] = wb_payload(
            wb_records([(2002, 3.0), (2001, 2.0), (2000, 1.0)])
        )
        series = fetch_indicator(req, tmp_path)
        assert served(series) == ([2000, 2001, 2002], [1.0, 2.0, 3.0])
        assert fake_api["calls"] == 1
        assert wb.cache_path(req, tmp_path).exists()
        assert fake_api["last_params"]["date"] == "2000:2002"

    def test_fetched_series_is_served_from_the_file_written(self, fake_api, tmp_path,
                                                           monkeypatch):
        req = IndicatorRequest("USA", "X.Y", (2000, 2001))
        fake_api["payload"] = wb_payload(wb_records([(2000, 1.0), (2001, 2.0)]))
        write_cache = wb._write_cache

        def write_other_values(path, years, values):
            write_cache(path, years, [10 * value for value in values])

        monkeypatch.setattr(wb, "_write_cache", write_other_values)
        assert served(fetch_indicator(req, tmp_path)) == ([2000, 2001], [10.0, 20.0])

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=20))
    @example([5e-324, -2.2250738585072014e-308, 1e308, -1e308, -0.0, 0.0, 1.7976931348623157e308])
    def test_live_fetch_serves_every_finite_float_bit_for_bit(self, fake_api, values):
        # written with repr, read back by read_csv's bulk parse
        years = range(2000, 2000 + len(values))
        fake_api["payload"] = wb_payload(wb_records(zip(years, values)))
        req = IndicatorRequest("USA", "X.Y", (years[0], years[-1]))
        with tempfile.TemporaryDirectory() as cache:
            series = fetch_indicator(req, cache)
            assert wb.cache_path(req, cache).exists()
        times, served_values = served(series)
        assert times == list(years)
        assert [v.hex() for v in served_values] == [v.hex() for v in values]

    def test_second_call_served_from_cache(self, fake_api, tmp_path):
        req = IndicatorRequest("USA", "X.Y", (2000, 2002))
        fake_api["payload"] = wb_payload(wb_records([(2000, 1.0), (2001, 2.0), (2002, 3.0)]))
        first = fetch_indicator(req, tmp_path)
        second = fetch_indicator(req, tmp_path)
        assert served(second) == served(first)
        assert second.sources == first.sources
        assert fake_api["calls"] == 1  # cache hit never touches the network

    def test_cache_file_is_byte_stable(self, fake_api, tmp_path):
        req = IndicatorRequest("USA", "X.Y", (2000, 2001))
        fake_api["payload"] = wb_payload(wb_records([(2000, 1.25), (2001, 2.5)]))
        fetch_indicator(req, tmp_path)
        path = wb.cache_path(req, tmp_path)
        blob = path.read_bytes()
        path.unlink()
        fetch_indicator(req, tmp_path)
        assert path.read_bytes() == blob

    def test_offline_cache_miss_is_network_error(self, fake_api, tmp_path):
        req = IndicatorRequest("USA", "X.Y", (2000, 2002))
        with pytest.raises(NetworkError):
            fetch_indicator(req, tmp_path, offline=True)
        assert fake_api["calls"] == 0

    def test_offline_cache_hit_works(self, fake_api, tmp_path):
        req = IndicatorRequest("USA", "X.Y", (2000, 2001))
        fake_api["payload"] = wb_payload(wb_records([(2000, 1.0), (2001, 2.0)]))
        fetch_indicator(req, tmp_path)
        series = fetch_indicator(req, tmp_path, offline=True)
        assert served(series) == ([2000, 2001], [1.0, 2.0])
        assert fake_api["calls"] == 1

    def test_unknown_indicator_is_not_found(self, fake_api, tmp_path):
        fake_api["payload"] = [
            {"message": [{"id": "120", "key": "Invalid value", "value": "bad indicator"}]}
        ]
        with pytest.raises(NotFound):
            fetch_indicator(IndicatorRequest("USA", "BOGUS", (2000, 2001)), tmp_path)

    def test_empty_data_is_not_found(self, fake_api, tmp_path):
        fake_api["payload"] = wb_payload([])
        with pytest.raises(NotFound):
            fetch_indicator(IndicatorRequest("USA", "X.Y", (2000, 2001)), tmp_path)

    def test_gap_inside_range_reported(self, fake_api, tmp_path):
        fake_api["payload"] = wb_payload(
            wb_records([(2000, 1.0), (2001, None), (2002, 3.0)])
        )
        with pytest.raises(GapInSeries) as exc:
            fetch_indicator(IndicatorRequest("USA", "X.Y", (2000, 2002)), tmp_path)
        assert "2001" in str(exc.value)

    def test_gap_leaves_no_cache_file(self, fake_api, tmp_path):
        req = IndicatorRequest("USA", "X.Y", (2000, 2002))
        fake_api["payload"] = wb_payload(wb_records([(2000, 1.0), (2002, 3.0)]))
        with pytest.raises(GapInSeries):
            fetch_indicator(req, tmp_path)
        assert not wb.cache_path(req, tmp_path).exists()
        assert list(tmp_path.glob("*.tmp")) == []

    def test_gap_of_more_than_eight_years_is_summarized(self, fake_api, tmp_path):
        fake_api["payload"] = wb_payload(wb_records([(2000, 1.0), (2011, 2.0)]))
        with pytest.raises(GapInSeries) as exc:
            fetch_indicator(IndicatorRequest("USA", "X.Y", (2000, 2011)), tmp_path)
        assert str(exc.value) == ("USA/X.Y: missing years inside 2000-2011: "
                                  "2001, 2002, 2003, 2004, 2005, 2006, 2007, 2008, ... (10 total)")

    @pytest.mark.parametrize("payload, shape", [({"message": "down"}, "dict"), ([], "list"),
                                                ("busy", "str")])
    def test_payload_that_is_no_list_of_pages_is_network_error(self, fake_api, tmp_path,
                                                               payload, shape):
        fake_api["payload"] = payload
        with pytest.raises(NetworkError, match=f"^unexpected API response shape: {shape}$"):
            fetch_indicator(IndicatorRequest("USA", "X.Y", (2000, 2001)), tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_failed_cache_write_leaves_no_file_and_fetch_exits_1(self, fake_api, tmp_path,
                                                                 monkeypatch, capsys):
        fake_api["payload"] = wb_payload(wb_records([(2000, 1.0), (2001, 2.0)]))

        def write_then_fail(fh, years, values):
            fh.write("year,value\n2000,")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(wb, "_write_series", write_then_fail)
        code = main(["fetch", "--indicator", "X.Y", "--start", "2000", "--end", "2001",
                     "--cache-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr() == ("", "error: OSError: [Errno 28] No space left on device\n")
        assert list(tmp_path.iterdir()) == []  # neither the cache file nor its temporary

    def test_url_error_wrapped(self, fake_urlopen, tmp_path):
        fake_urlopen["raise_exc"] = urllib.error.URLError("no dns")
        with pytest.raises(NetworkError):
            fetch_indicator(IndicatorRequest("USA", "X.Y", (2000, 2001)), tmp_path)


class TestGetJson:
    REQ = IndicatorRequest("USA", "X.Y", (2000, 2001))

    def test_query_and_decoded_payload(self, fake_urlopen, tmp_path):
        records = wb_records([(2001, 2.0), (2000, 1.0)])
        fake_urlopen["body"] = json.dumps(wb_payload(records)).encode("utf-8")
        series = fetch_indicator(self.REQ, tmp_path, timeout=7.5)
        assert served(series) == ([2000, 2001], [1.0, 2.0])
        base, _, query = fake_urlopen["url"].partition("?")
        assert base == f"{wb.API_BASE}/country/USA/indicator/X.Y"
        assert set(query.split("&")) == {"format=json", "date=2000%3A2001", "per_page=20000"}
        assert fake_urlopen["timeout"] == 7.5

    @pytest.mark.parametrize(
        "exc",
        [
            urllib.error.HTTPError(wb.API_BASE, 500, "Internal Server Error", None, None),
            TimeoutError("timed out"),
            http.client.IncompleteRead(b"[{"),
        ],
        ids=["http_500", "timeout", "incomplete_read"],
    )
    def test_transport_failures_are_network_errors(self, fake_urlopen, tmp_path, exc):
        fake_urlopen["raise_exc"] = exc
        with pytest.raises(NetworkError):
            fetch_indicator(self.REQ, tmp_path)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "body", [b"<html>busy</html>", b"", b"\xc3\x28[1]"], ids=["html", "empty", "not_utf8"]
    )
    def test_body_that_is_not_json_is_network_error(self, fake_urlopen, tmp_path, body):
        fake_urlopen["body"] = body
        with pytest.raises(NetworkError):
            fetch_indicator(self.REQ, tmp_path)
        assert list(tmp_path.iterdir()) == []


def test_cli_import_loads_no_http_client():
    probe = (
        "import sys, fisherinfo.cli; "
        "print([m for m in ('requests', 'urllib.request', 'http.client', 'ssl') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=child_env(), capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestCacheFiles:
    REQ = IndicatorRequest("USA", "X.Y", (2000, 2002))

    def write_cache(self, tmp_path, text):
        path = wb.cache_path(self.REQ, tmp_path)
        path.write_text(text, encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "bad_line, column, fault",
        [("2001,abc", "value", ", column 'value': cannot parse 'abc' as a number"),
         ("20x1,2.0", "year", ", column 'year': cannot parse '20x1' as a number"),
         ("2001", None, " has 1 cells, expected 2"),
         ("2001,2.0,9", None, " has 3 cells, expected 2")],
        ids=["non_numeric_value", "non_numeric_year", "one_cell", "extra_cell"],
    )
    def test_malformed_row_names_file_line_and_column(self, fake_api, tmp_path, bad_line, column,
                                                      fault):
        path = self.write_cache(tmp_path, f"year,value\n2000,1.0\n{bad_line}\n2002,3.0\n")
        with pytest.raises(ParseError) as exc:
            fetch_indicator(self.REQ, tmp_path, offline=True)
        assert str(exc.value) == f"{path}: line 3{fault}"
        assert (exc.value.line, exc.value.column) == (3, column)
        assert fake_api["calls"] == 0

    @pytest.mark.parametrize(
        "bad_line, error, fault",
        [("2001,nan", MissingValue, "line 3, column 'value': non-finite value nan"),
         ("2001,-inf", MissingValue, "line 3, column 'value': non-finite value -inf"),
         ("2001,1e999", MissingValue, "line 3, column 'value': non-finite value inf"),
         ("nan,2.0", NonUniformTimeAxis, "line 3: non-finite time stamp nan")],
        ids=["nan_value", "minus_inf_value", "overflowing_value", "nan_year"],
    )
    def test_non_finite_cell_names_file_line_and_column(
        self, fake_api, tmp_path, bad_line, error, fault
    ):
        path = self.write_cache(tmp_path, f"year,value\n2000,1.0\n{bad_line}\n2002,3.0\n")
        with pytest.raises(error) as exc:
            fetch_indicator(self.REQ, tmp_path, offline=True)
        assert str(exc.value) == f"{path}: {fault}"
        assert exc.value.row == 1  # the second data row
        if error is MissingValue:
            assert exc.value.column == 0  # the one value column
        assert fake_api["calls"] == 0

    def test_unparsable_cell_shows_the_characters_float_refuses(self, tmp_path):
        path = self.write_cache(tmp_path, "year,value\n2000,1.0\n2001,\x1c2 \n2002,3.0\n")
        with pytest.raises(ParseError) as exc:
            fetch_indicator(self.REQ, tmp_path, offline=True)
        assert str(exc.value) == f"{path}: line 3, column 'value': cannot parse '\\x1c2' as a number"

    @pytest.mark.parametrize(
        "years, error, fault",
        [((2000, 2001), GapInSeries, "cache file does not hold exactly the years 2000-2002"),
         ((2000, 2002, 2003), NonUniformTimeAxis,
          "line 4: spacing changes at step 2: 1.0 differs from 2.0"),
         ((2000, 2001, 2001, 2002), NonUniformTimeAxis,
          "line 4: time stamps must be strictly increasing"),
         ((2000, 2002), GapInSeries, "cache file does not hold exactly the years 2000-2002"),
         ((), EmptyInput, "header only, no data rows"),
         ((2001, 2002, 2003), GapInSeries, "cache file does not hold exactly the years 2000-2002")],
        ids=["truncated", "extra_year", "duplicate_year", "inner_gap", "header_only", "shifted"],
    )
    def test_cache_must_hold_exactly_the_requested_years(self, fake_api, tmp_path, years,
                                                         error, fault):
        path = self.write_cache(tmp_path, "year,value\n" + "".join(f"{y},1.5\n" for y in years))
        with pytest.raises(error) as exc:
            fetch_indicator(self.REQ, tmp_path)
        assert str(exc.value) == f"{path}: {fault}"
        assert fake_api["calls"] == 0

    @pytest.mark.parametrize("text, error, fault", [
        ("year\n2000\n2001\n2002\n", EmptyInput, "header has no variable columns"),
        ("year,value,other\n2000,1,9\n2001,2,9\n2002,3,9\n", ParseError,
         "expected one value column after the year, got 2"),
    ], ids=["no_value_column", "two_value_columns"])
    def test_cache_must_hold_one_value_column(self, fake_api, tmp_path, text, error, fault):
        path = self.write_cache(tmp_path, text)
        with pytest.raises(error) as exc:
            fetch_indicator(self.REQ, tmp_path)
        assert str(exc.value) == f"{path}: {fault}"
        assert fake_api["calls"] == 0

    def test_unsorted_cache_is_refused_naming_the_line(self, tmp_path):
        path = self.write_cache(tmp_path, "year,value\n2002,3.0\n2000,1.0\n\n2001,2.0\n")
        with pytest.raises(NonUniformTimeAxis) as exc:
            fetch_indicator(self.REQ, tmp_path, offline=True)
        assert str(exc.value) == f"{path}: line 3: time stamps must be strictly increasing"
        assert exc.value.row == 1

    def test_any_layout_read_csv_accepts_is_served(self, tmp_path):
        # CRLF, a BOM, blank lines, padded and quoted cells, `2000.0`-style years
        self.write_cache(tmp_path, '\ufeffyear,value\r\n 2000.0 , 1.0\r\n\r\n'
                                   '2001,"2.5"\r\n2002.0,-0.0 \r\n')
        times, values = served(fetch_indicator(self.REQ, tmp_path, offline=True))
        assert (times, values) == ([2000, 2001, 2002], [1.0, 2.5, 0.0])
        assert math.copysign(1.0, values[2]) == -1.0


def write_demo_cache(directory, gdp, population):
    """The demo's two cache files, holding the 54 values given for each."""
    years = range(wb.DEMO_YEARS[0], wb.DEMO_YEARS[1] + 1)
    for indicator, values in ((wb.GDP_PER_CAPITA, gdp), (wb.TOTAL_POPULATION, population)):
        wb.cache_path(demo_request(indicator), directory).write_text(
            "year,value\n" + "".join(f"{y},{v!r}\n" for y, v in zip(years, values)))


class TestServedMatrix:
    """fetch_indicator serves the matrix read_csv parsed; demo_matrix stacks two of them."""

    @pytest.mark.parametrize("indicator", [wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION])
    def test_fetch_serves_the_cache_cells_bit_for_bit(self, indicator):
        req = demo_request(indicator)
        path = wb.cache_path(req, wb.fixture_cache_dir())
        cells = [line.split(",") for line in path.read_text().splitlines()[1:]]
        m = fetch_indicator(req, wb.fixture_cache_dir(), offline=True)
        assert m.n_vars == 1
        assert m.times.tolist() == list(range(wb.DEMO_YEARS[0], wb.DEMO_YEARS[1] + 1))
        assert [v.hex() for v in m.values[:, 0].tolist()] == [float(v).hex() for _, v in cells]

    @pytest.mark.parametrize("indicator", [wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION])
    def test_fetch_records_the_cache_path_and_digest(self, indicator):
        req = demo_request(indicator)
        path = wb.cache_path(req, wb.fixture_cache_dir())
        m = fetch_indicator(req, wb.fixture_cache_dir(), offline=True)
        assert m.sources == ((str(path), hashlib.sha256(path.read_bytes()).hexdigest()),)

    def test_demo_matrix_is_the_two_fetched_matrices_stacked(self):
        directory = wb.fixture_cache_dir()
        gdp, population = (fetch_indicator(demo_request(indicator), directory, offline=True)
                           for indicator in (wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION))
        m = demo_matrix(directory)
        assert m.values.tobytes() == np.hstack((gdp.values, population.values)).tobytes()
        assert m.times.tobytes() == gdp.times.tobytes()
        assert m.labels == wb.DEMO_LABELS
        assert m.sources == tuple((Path(path).name, digest)
                                  for series in (gdp, population)
                                  for path, digest in series.sources)

    def test_two_cache_files_become_two_columns(self, tmp_path):
        steps = range(1, 55)
        write_demo_cache(tmp_path, [0.5 * k for k in steps], [10.0 * k for k in steps])
        m = demo_matrix(tmp_path)
        assert (m.n_steps, m.n_vars) == (54, 2)
        assert m.times.tolist() == list(range(1960, 2014))
        assert m.values[1].tolist() == [1.0, 20.0]
        assert m.values[-1].tolist() == [27.0, 540.0]

    def test_population_over_other_years_is_a_gap_naming_its_file(self, tmp_path):
        write_demo_cache(tmp_path, [1.0] * 54, [1.0] * 54)
        population = wb.cache_path(demo_request(wb.TOTAL_POPULATION), tmp_path)
        lines = population.read_text().splitlines()
        population.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(GapInSeries) as exc:
            demo_matrix(tmp_path)
        assert str(exc.value).startswith(f"{population}: ")


class TestShippedFixture:
    def test_fixture_files_cover_the_demo_years(self):
        directory = wb.fixture_cache_dir()
        for indicator in (wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION):
            times, values = served(fetch_indicator(demo_request(indicator), directory,
                                                   offline=True))
            assert times == list(range(1960, 2014))
            assert all(v > 0 for v in values)

    def test_demo_matrix_offline(self):
        m = demo_matrix(offline=True)
        assert m.n_steps == 54
        assert m.n_vars == 2
        assert m.labels == ("gdp_per_capita_usd", "population")
        assert m.times[0] == 1960.0
        assert m.times[-1] == 2013.0

    def test_demo_matrix_records_each_cache_file_it_parsed(self):
        assert list(demo_matrix(offline=True).sources) == demo_digests(wb.fixture_cache_dir())

    def test_live_demo_records_the_cache_files_it_wrote(self, fake_api, tmp_path, capsys):
        years = range(wb.DEMO_YEARS[1], wb.DEMO_YEARS[0] - 1, -1)
        fake_api["payload"] = wb_payload(wb_records([(y, y % 7 + 1.5) for y in years]))
        cache, out_json = tmp_path / "cache", tmp_path / "demo.json"
        code = main(["demo", "--live", "--sos", "1,1", "--cache-dir", str(cache),
                     "--out-json", str(out_json)])
        assert code == 0
        assert fake_api["calls"] == 2
        digests = json.loads(out_json.read_text())["metadata"]["inputs_sha256"]
        assert list(digests.items()) == demo_digests(cache)

    def test_demo_matrix_empty_cache_offline_fails(self, tmp_path):
        with pytest.raises(NetworkError):
            demo_matrix(cache_dir=tmp_path, offline=True)

    def test_default_cache_dir_honors_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(wb.CACHE_DIR_ENV, str(tmp_path))
        assert wb.default_cache_dir() == tmp_path
        monkeypatch.delenv(wb.CACHE_DIR_ENV)
        assert wb.default_cache_dir() == wb.fixture_cache_dir()
