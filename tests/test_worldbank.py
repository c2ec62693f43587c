import http.client
import io
import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import fisherinfo
import fisherinfo.worldbank as wb
from fisherinfo import (
    GapInSeries,
    IndicatorRequest,
    NetworkError,
    NotFound,
    ParseError,
    RangeMismatch,
    assemble_demo_matrix,
    demo_matrix,
    fetch_indicator,
)


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


class TestFetchIndicator:
    def test_fetch_sorts_years_and_caches(self, fake_api, tmp_path):
        req = IndicatorRequest("USA", "X.Y", (2000, 2002))
        # API returns newest first; fetch must deliver ascending
        fake_api["payload"] = wb_payload(
            wb_records([(2002, 3.0), (2001, 2.0), (2000, 1.0)])
        )
        series = fetch_indicator(req, tmp_path)
        assert series == [(2000, 1.0), (2001, 2.0), (2002, 3.0)]
        assert fake_api["calls"] == 1
        assert wb.cache_path(req, tmp_path).exists()
        assert fake_api["last_params"]["date"] == "2000:2002"

    def test_second_call_served_from_cache(self, fake_api, tmp_path):
        req = IndicatorRequest("USA", "X.Y", (2000, 2002))
        fake_api["payload"] = wb_payload(wb_records([(2000, 1.0), (2001, 2.0), (2002, 3.0)]))
        first = fetch_indicator(req, tmp_path)
        second = fetch_indicator(req, tmp_path)
        assert second == first
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
        assert series == [(2000, 1.0), (2001, 2.0)]
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
        assert series == [(2000, 1.0), (2001, 2.0)]
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
    src = str(Path(fisherinfo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    probe = (
        "import sys, fisherinfo.cli; "
        "print([m for m in ('requests', 'urllib.request', 'http.client', 'ssl') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"


class TestCacheFiles:
    REQ = IndicatorRequest("USA", "X.Y", (2000, 2002))

    def write_cache(self, tmp_path, text):
        path = wb.cache_path(self.REQ, tmp_path)
        path.write_text(text, encoding="utf-8")
        return path

    @pytest.mark.parametrize(
        "bad_line, column",
        [("2001,abc", "value"), ("20x1,2.0", "year"), ("2001", "value"), ("2001,2.0,9", "value")],
        ids=["non_numeric_value", "non_numeric_year", "one_cell", "extra_cell"],
    )
    def test_malformed_row_names_file_line_and_column(self, fake_api, tmp_path, bad_line, column):
        path = self.write_cache(tmp_path, f"year,value\n2000,1.0\n{bad_line}\n2002,3.0\n")
        with pytest.raises(ParseError) as exc:
            fetch_indicator(self.REQ, tmp_path, offline=True)
        assert exc.value.line == 3
        assert exc.value.column == column
        assert str(path) in str(exc.value)
        assert f"line 3, column {column!r}" in str(exc.value)
        assert fake_api["calls"] == 0

    @pytest.mark.parametrize(
        "bad_line, column, shown",
        [("2001,nan", "value", "nan"), ("2001,-inf", "value", "-inf"),
         ("2001,1e999", "value", "inf"), ("nan,2.0", "year", "nan")],
        ids=["nan_value", "minus_inf_value", "overflowing_value", "nan_year"],
    )
    def test_non_finite_cell_names_file_line_and_column(
        self, fake_api, tmp_path, bad_line, column, shown
    ):
        path = self.write_cache(tmp_path, f"year,value\n2000,1.0\n{bad_line}\n2002,3.0\n")
        with pytest.raises(ParseError) as exc:
            fetch_indicator(self.REQ, tmp_path, offline=True)
        assert str(exc.value) == f"{path}: line 3, column {column!r}: non-finite value {shown}"
        assert (exc.value.line, exc.value.column) == (3, column)
        assert fake_api["calls"] == 0

    def test_unparsable_cell_shows_the_characters_float_refuses(self, tmp_path):
        path = self.write_cache(tmp_path, "year,value\n2000,1.0\n2001,\x1c2 \n2002,3.0\n")
        with pytest.raises(ParseError) as exc:
            fetch_indicator(self.REQ, tmp_path, offline=True)
        assert str(exc.value) == f"{path}: line 3, column 'value': cannot parse '\\x1c2' as a number"

    @pytest.mark.parametrize(
        "years",
        [(2000, 2001), (2000, 2002, 2003), (2000, 2001, 2001, 2002), (2000, 2002), ()],
        ids=["truncated", "extra_year", "duplicate_year", "inner_gap", "header_only"],
    )
    def test_cache_must_hold_exactly_the_requested_years(self, fake_api, tmp_path, years):
        path = self.write_cache(tmp_path, "year,value\n" + "".join(f"{y},1.5\n" for y in years))
        with pytest.raises(GapInSeries) as exc:
            fetch_indicator(self.REQ, tmp_path)
        assert str(path) in str(exc.value)
        assert fake_api["calls"] == 0

    def test_unsorted_complete_cache_is_served_ascending(self, tmp_path):
        self.write_cache(tmp_path, "year,value\n2002,3.0\n2000,1.0\n\n2001,2.0\n")
        series = fetch_indicator(self.REQ, tmp_path, offline=True)
        assert series == [(2000, 1.0), (2001, 2.0), (2002, 3.0)]
        assert all(type(y) is int for y, _ in series)


class TestAssembleDemoMatrix:
    def test_two_series_become_two_columns(self):
        a = [(2000, 1.0), (2001, 2.0), (2002, 3.0)]
        b = [(2000, 10.0), (2001, 20.0), (2002, 30.0)]
        m = assemble_demo_matrix([a, b], labels=("x", "y"))
        assert m.n_steps == 3
        assert m.n_vars == 2
        assert m.times.tolist() == [2000.0, 2001.0, 2002.0]
        assert m.values[1, 1] == 20.0

    def test_single_series(self):
        m = assemble_demo_matrix([[(2000, 1.0), (2001, 2.0)]])
        assert m.n_vars == 1
        assert m.labels == ("var1",)

    def test_length_mismatch_rejected(self):
        a = [(2000, 1.0), (2001, 2.0)]
        b = [(2000, 10.0)]
        with pytest.raises(RangeMismatch):
            assemble_demo_matrix([a, b])

    def test_year_mismatch_rejected(self):
        a = [(2000, 1.0), (2001, 2.0)]
        b = [(2000, 10.0), (2002, 20.0)]
        with pytest.raises(RangeMismatch):
            assemble_demo_matrix([a, b])

    def test_no_series_rejected(self):
        with pytest.raises(RangeMismatch):
            assemble_demo_matrix([])


class TestShippedFixture:
    def test_fixture_files_cover_the_demo_years(self):
        directory = wb.fixture_cache_dir()
        for indicator in (wb.GDP_PER_CAPITA, wb.TOTAL_POPULATION):
            req = IndicatorRequest(wb.DEMO_COUNTRY, indicator, wb.DEMO_YEARS)
            series = fetch_indicator(req, directory, offline=True)
            assert [y for y, _ in series] == list(range(1960, 2014))
            assert all(v > 0 for _, v in series)

    def test_demo_matrix_offline(self):
        m = demo_matrix(offline=True)
        assert m.n_steps == 54
        assert m.n_vars == 2
        assert m.labels == ("gdp_per_capita_usd", "population")
        assert m.times[0] == 1960.0
        assert m.times[-1] == 2013.0

    def test_demo_matrix_empty_cache_offline_fails(self, tmp_path):
        with pytest.raises(NetworkError):
            demo_matrix(cache_dir=tmp_path, offline=True)

    def test_default_cache_dir_honors_environment(self, monkeypatch, tmp_path):
        monkeypatch.setenv(wb.CACHE_DIR_ENV, str(tmp_path))
        assert wb.default_cache_dir() == tmp_path
        monkeypatch.delenv(wb.CACHE_DIR_ENV)
        assert wb.default_cache_dir() == wb.fixture_cache_dir()
