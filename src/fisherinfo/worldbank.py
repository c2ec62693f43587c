"""World Bank open-data client with an on-disk cache.

Fetches indicator series (API v2, JSON) and converts them into the matrix
form the engine consumes.  Every successful fetch is cached as a small CSV
under the cache directory, keyed by country, indicator, and year range; a
cache hit never touches the network, so a populated cache (the shipped
fixture) makes the whole demonstration pipeline reproducible offline.
"""
from __future__ import annotations

import importlib.resources
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from .core import TimeSeriesMatrix, validate_matrix
from .errors import GapInSeries, NetworkError, NotFound, RangeMismatch
from .io import _checked, _parse_cell

API_BASE = "https://api.worldbank.org/v2"
REQUEST_TIMEOUT = 30.0

GDP_PER_CAPITA = "NY.GDP.PCAP.CD"
TOTAL_POPULATION = "SP.POP.TOTL"

DEMO_COUNTRY = "USA"
DEMO_YEARS = (1960, 2013)
DEMO_LABELS = ("gdp_per_capita_usd", "population")

CACHE_DIR_ENV = "FISHERINFO_CACHE_DIR"


@dataclass(frozen=True)
class IndicatorRequest:
    """One indicator series to fetch: country, indicator id, year range."""

    country_code: str
    indicator_id: str
    year_range: tuple[int, int]

    def __post_init__(self):
        if not self.country_code or not self.indicator_id:
            raise ValueError("country_code and indicator_id must be non-empty")
        start, end = self.year_range
        if start > end:
            raise ValueError(f"year range start {start} exceeds end {end}")
        object.__setattr__(self, "year_range", (int(start), int(end)))


def cache_path(req: IndicatorRequest, cache_dir: str | Path) -> Path:
    start, end = req.year_range
    return Path(cache_dir) / f"{req.country_code}_{req.indicator_id}_{start}-{end}.csv"


def fixture_cache_dir() -> Path:
    """Directory of the committed demonstration fixture (USA 1960-2013)."""
    return Path(str(importlib.resources.files("fisherinfo").joinpath("data")))


def default_cache_dir() -> Path:
    """Cache directory: $FISHERINFO_CACHE_DIR if set, else the shipped fixture."""
    env = os.environ.get(CACHE_DIR_ENV)
    if env:
        return Path(env)
    return fixture_cache_dir()


def _get_json(url: str, params: dict, timeout: float) -> object:
    """One HTTP GET returning decoded JSON; any failure becomes NetworkError."""
    import http.client  # network modules load only when a fetch runs
    import json
    import urllib.parse
    import urllib.request

    try:
        with urllib.request.urlopen(f"{url}?{urllib.parse.urlencode(params)}", timeout=timeout) as r:
            return json.load(r)
    except (OSError, http.client.HTTPException, ValueError) as exc:
        # OSError: URLError, HTTPError (status >= 400), timeouts; ValueError: bad JSON
        raise NetworkError(f"World Bank API request failed: {exc}") from exc


def fetch_indicator(
    req: IndicatorRequest,
    cache_dir: str | Path,
    offline: bool = False,
    timeout: float = REQUEST_TIMEOUT,
) -> list[tuple[int, float]]:
    """Return (year, value) pairs for one indicator, years ascending.

    Serves from the cache file when present (never touching the network);
    otherwise fetches from the API, verifies the range is complete, and
    writes the cache atomically before returning.

    Raises NetworkError when offline with no cached copy or when the API
    is unreachable; NotFound for unknown indicator or country; GapInSeries
    when the years served are not exactly the requested range (gaps are
    reported, never imputed); ParseError for a malformed cache row.
    """
    path = cache_path(req, cache_dir)
    start, end = req.year_range
    if path.exists():
        series = _read_cache(path)
        if [y for y, _ in series] != list(range(start, end + 1)):
            raise GapInSeries(f"{path}: cache file does not hold exactly the years {start}-{end}")
        return [(int(y), v) for y, v in series]
    if offline:
        raise NetworkError(
            f"offline and no cached copy for {req.country_code}/{req.indicator_id} "
            f"{start}-{end} (looked in {path})"
        )

    series = _fetch_remote(req, timeout)
    _write_cache(path, series)
    return series


def _fetch_remote(req: IndicatorRequest, timeout: float) -> list[tuple[int, float]]:
    start, end = req.year_range
    url = f"{API_BASE}/country/{req.country_code}/indicator/{req.indicator_id}"
    params = {"format": "json", "date": f"{start}:{end}", "per_page": 20000}
    payload = _get_json(url, params, timeout)

    # Error responses come back as a one-element list with a message block.
    if not isinstance(payload, list) or not payload:
        raise NetworkError(f"unexpected API response shape: {type(payload).__name__}")
    first = payload[0]
    if isinstance(first, dict) and "message" in first:
        detail = "; ".join(str(m.get("value", m)) for m in first["message"])
        raise NotFound(
            f"no such indicator/country {req.country_code}/{req.indicator_id}: {detail}"
        )
    if len(payload) < 2 or not payload[1]:
        raise NotFound(
            f"no data returned for {req.country_code}/{req.indicator_id} {start}-{end}"
        )
    if not isinstance(payload[1], list):
        raise NetworkError(f"unexpected API response shape: data is {type(payload[1]).__name__}")

    by_year: dict[int, float] = {}
    for record in payload[1]:
        try:
            value = record.get("value")
            if value is None:
                continue
            by_year[int(record["date"])] = float(value)
        except (AttributeError, KeyError, TypeError, ValueError):
            raise NetworkError(
                f"malformed World Bank record for {req.country_code}/{req.indicator_id}: "
                f"{record!r}"
            ) from None

    missing = [y for y in range(start, end + 1) if y not in by_year]
    if missing:
        raise GapInSeries(
            f"{req.country_code}/{req.indicator_id}: missing years inside "
            f"{start}-{end}: {_summarize(missing)}"
        )
    return [(y, by_year[y]) for y in range(start, end + 1)]


def _summarize(years: list[int], limit: int = 8) -> str:
    shown = ", ".join(str(y) for y in years[:limit])
    if len(years) > limit:
        shown += f", ... ({len(years)} total)"
    return shown


def _read_cache(path: Path) -> list[tuple[float, float]]:
    """Parse a `year,value` cache file; a malformed row or non-UTF-8 text raises ParseError."""
    series = []
    with open(path, "r", encoding="utf-8") as fh:
        lines = _checked(fh, str(path))
        next(lines, None)  # header
        for line_no, line in enumerate(lines, start=2):
            if line.strip():
                year, _, value = line.partition(",")  # a missing or extra cell spoils value
                series.append((_parse_cell(year, str(path), line_no, "year"),
                               _parse_cell(value, str(path), line_no, "value")))
    return sorted(series)


def _write_series(fh: IO[str], series: list[tuple[int, float]]) -> None:
    """Write (year, value) pairs in the `year,value` cache format."""
    fh.write("year,value\n")
    for year, value in series:
        fh.write(f"{year},{value!r}\n")


def _write_cache(path: Path, series: list[tuple[int, float]]) -> None:
    # write-temp-then-rename so concurrent readers never see a partial file
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            _write_series(fh, series)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def assemble_demo_matrix(
    series_list: list[list[tuple[int, float]]],
    labels: tuple[str, ...] | None = None,
) -> TimeSeriesMatrix:
    """Combine per-indicator (year, value) series into one matrix.

    All series must cover exactly the same years; raises RangeMismatch
    otherwise.
    """
    if not series_list:
        raise RangeMismatch("no series to assemble")
    years = [y for y, _ in series_list[0]]
    for i, series in enumerate(series_list[1:], start=2):
        if [y for y, _ in series] != years:
            raise RangeMismatch(
                f"series 1 covers {len(years)} year(s) "
                f"{years[0]}-{years[-1]} but series {i} differs"
            )
    if labels is None:
        labels = tuple(f"var{i + 1}" for i in range(len(series_list)))
    rows = [[series[j][1] for series in series_list] for j in range(len(years))]
    return validate_matrix(labels, [float(y) for y in years], rows)


def demo_matrix(
    cache_dir: str | Path | None = None,
    offline: bool = True,
    timeout: float = REQUEST_TIMEOUT,
) -> TimeSeriesMatrix:
    """GDP per capita (current US$) and total population, USA 1960-2013.

    Offline by default, serving the shipped fixture (or any populated cache
    directory); pass offline=False to allow a live fetch into the cache.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    series_list = [
        fetch_indicator(
            IndicatorRequest(DEMO_COUNTRY, indicator, DEMO_YEARS),
            directory,
            offline=offline,
            timeout=timeout,
        )
        for indicator in (GDP_PER_CAPITA, TOTAL_POPULATION)
    ]
    return assemble_demo_matrix(series_list, labels=DEMO_LABELS)
