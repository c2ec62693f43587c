"""World Bank open-data client with an on-disk cache.

Fetches indicator series (API v2, JSON) and serves each as the matrix
form the engine consumes.  Every successful fetch is cached as a small CSV
under the cache directory, keyed by country, indicator, and year range; a
cache hit never touches the network, so a populated cache (the shipped
fixture) makes the whole demonstration pipeline reproducible offline.
"""
from __future__ import annotations

import math
import os
import re
import tempfile
from dataclasses import dataclass, replace
from pathlib import Path
from typing import IO, Iterable

import numpy as np

from .core import TimeSeriesMatrix, validate_matrix
from .errors import GapInSeries, NetworkError, NotFound, ParseError
from .io import read_csv

API_BASE = "https://api.worldbank.org/v2"
REQUEST_TIMEOUT = 30.0

GDP_PER_CAPITA = "NY.GDP.PCAP.CD"
TOTAL_POPULATION = "SP.POP.TOTL"

DEMO_COUNTRY = "USA"
DEMO_YEARS = (1960, 2013)
DEMO_LABELS = ("gdp_per_capita_usd", "population")

CACHE_DIR_ENV = "FISHERINFO_CACHE_DIR"

# a code names a cache file and a URL path segment, so it holds no separator
# and is not `.` or `..`
_CODE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")


@dataclass(frozen=True)
class IndicatorRequest:
    """One indicator series to fetch: country, indicator id, year range."""

    country_code: str
    indicator_id: str
    year_range: tuple[int, int]

    def __post_init__(self):
        for name, code in (("country_code", self.country_code),
                           ("indicator_id", self.indicator_id)):
            if not _CODE.fullmatch(code):
                raise ValueError(
                    f"{name} must be a letter or digit followed by letters, digits, "
                    f"'.', '_' or '-', got {code!r}")
        start, end = self.year_range
        if start > end:
            raise ValueError(f"year range start {start} exceeds end {end}")
        object.__setattr__(self, "year_range", (int(start), int(end)))


def cache_path(req: IndicatorRequest, cache_dir: str | Path) -> Path:
    start, end = req.year_range
    return Path(cache_dir) / f"{req.country_code}_{req.indicator_id}_{start}-{end}.csv"


def fixture_cache_dir() -> Path:
    """Directory of the committed demonstration fixture (USA 1960-2013)."""
    return Path(__file__).with_name("data")


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
) -> TimeSeriesMatrix:
    """One indicator as the one-column matrix read_csv parsed from its cache file.

    The times are the requested years, ascending, and sources pairs the
    cache file's path with the sha256 of the bytes parsed.  Serves the cache
    file when present (never touching the network); otherwise fetches from
    the API, verifies the range is complete, writes the cache atomically and
    serves the file it wrote, read like a cache hit.

    Raises NetworkError when offline with no cached copy or when the API
    is unreachable; NotFound for unknown indicator or country; GapInSeries
    when the years served are not exactly the requested range (gaps are
    reported, never imputed).  A cache file is read by read_csv, so a
    malformed one raises what read_csv raises for the same fault, and a
    file with more than one value column is a ParseError.
    """
    path = cache_path(req, cache_dir)
    start, end = req.year_range
    years = range(start, end + 1)
    if not path.exists():
        if offline:
            raise NetworkError(
                f"offline and no cached copy for {req.country_code}/{req.indicator_id} "
                f"{start}-{end} (looked in {path})"
            )
        _write_cache(path, years, _fetch_remote(req, timeout))
    matrix = read_csv(path)
    if matrix.n_vars != 1:
        raise ParseError(f"{path}: expected one value column after the year, "
                         f"got {matrix.n_vars}")
    if matrix.times.tolist() != list(years):
        raise GapInSeries(f"{path}: cache file does not hold exactly the years {start}-{end}")
    return matrix


def _fetch_remote(req: IndicatorRequest, timeout: float) -> list[float]:
    """The indicator's values for each requested year, ascending."""
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
            year, number = int(record["date"]), float(value)
            if not math.isfinite(number):  # would be cached, then refused on reading
                raise ValueError(number)
            by_year[year] = number
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
    return [by_year[y] for y in range(start, end + 1)]


def _summarize(years: list[int], limit: int = 8) -> str:
    shown = ", ".join(str(y) for y in years[:limit])
    if len(years) > limit:
        shown += f", ... ({len(years)} total)"
    return shown


def _write_series(fh: IO[str], years: Iterable[int], values: Iterable[float]) -> None:
    """Write a series in the `year,value` cache format."""
    fh.write("year,value\n")
    for year, value in zip(years, values):
        fh.write(f"{year},{value!r}\n")


def _write_cache(path: Path, years: Iterable[int], values: Iterable[float]) -> None:
    # write-temp-then-rename so concurrent readers never see a partial file
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            _write_series(fh, years, values)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def demo_matrix(
    cache_dir: str | Path | None = None,
    offline: bool = True,
    timeout: float = REQUEST_TIMEOUT,
) -> TimeSeriesMatrix:
    """GDP per capita (current US$) and total population, USA 1960-2013.

    The two fetch_indicator matrices side by side, each cache file's digest
    recorded under the file's name.  Offline by default, serving the shipped fixture (or any populated cache
    directory); pass offline=False to allow a live fetch into the cache.
    """
    directory = Path(cache_dir) if cache_dir is not None else default_cache_dir()
    gdp, population = (
        fetch_indicator(IndicatorRequest(DEMO_COUNTRY, indicator, DEMO_YEARS), directory,
                        offline, timeout)
        for indicator in (GDP_PER_CAPITA, TOTAL_POPULATION)
    )
    matrix = validate_matrix(DEMO_LABELS, gdp.times, np.hstack((gdp.values, population.values)))
    return replace(matrix, sources=tuple((Path(path).name, digest)
                                         for series in (gdp, population)
                                         for path, digest in series.sources))
