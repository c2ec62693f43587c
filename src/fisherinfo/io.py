"""CSV ingestion, result serialization, and static SVG plots.

Input CSV: UTF-8, comma-separated, `.` decimal point, first row a header,
first column the time label, remaining columns variables.  LF, CRLF and CR
line endings are accepted.  Output files are deterministic: identical
inputs and configuration produce byte-identical bytes.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import re
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

from .core import TimeSeriesMatrix, validate_matrix
from .engine import FI_MAX, FiSeries
from .errors import EmptyInput, MissingValue, NonUniformTimeAxis, ParseError
from .regimes import RegimeVerdict, local_maxima

PLOT_Y_RANGE = (0.0, FI_MAX)


def format_time_labels(times: np.ndarray | Sequence[float]) -> list[str]:
    """Render each time stamp the way it was most likely written (1967, not 1967.0).

    An integral stamp renders as its integer, any other as its float repr.
    """
    t = np.asarray(times, dtype=float)
    # an integral float below 2**53 is exactly its int64, which str renders
    whole = (np.trunc(t) == t) & (np.abs(t) < 2.0 ** 53)
    labels = list(map(str, np.where(whole, t, 0.0).astype(np.int64).tolist()))
    for i in np.flatnonzero(~whole).tolist():
        x = float(t[i])
        labels[i] = str(int(x)) if x.is_integer() else repr(x)
    return labels


def read_csv(source: str | Path | IO[str]) -> TimeSeriesMatrix:
    """Parse a time-series CSV and validate it into a TimeSeriesMatrix.

    Raises ParseError, naming the file and the 1-based line, for a cell that
    is not a number (also naming its column), for bad CSV syntax and for text
    that is not UTF-8 (a stream names no line).  Validation errors
    (EmptyInput, MissingValue, NonUniformTimeAxis) propagate from
    validate_matrix; a MissingValue or NonUniformTimeAxis is re-raised with
    a message naming the file and the CSV line, keeping its row and column.

    A path is read once, and the matrix's sources pairs the path as given
    with the sha256 of the bytes parsed; a stream's matrix has no sources.
    """
    stream = hasattr(source, "read")
    name = getattr(source, "name", "<stream>") if stream else str(Path(source))
    data = b"" if stream else Path(name).read_bytes()
    sources = () if stream else ((os.fspath(source), hashlib.sha256(data).hexdigest()),)
    try:
        lines = list(source if stream else
                     io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        del data  # decoded: the parse holds the lines, not the bytes as well
        reader = csv.reader(lines)
        matrix = _parse_lines(lines, reader, name)
    except UnicodeDecodeError as exc:
        if stream:  # its wrapper decodes in chunks, so exc.start is no place in the text
            raise ParseError(f"{name}: not UTF-8 text ({exc.reason})") from None
        # decoded again, each bad byte is a lone surrogate: count the line ends before the first
        head = re.split("[\udc80-\udcff]", data.decode("utf-8", "surrogateescape"), maxsplit=1)[0]
        line = 1 + head.count("\n") + head.count("\r") - head.count("\r\n")
        raise ParseError(f"{name}: line {line}: not UTF-8 text ({exc.reason})", line=line) from None
    except csv.Error as exc:  # only the reader raises it, and it counts lines
        raise ParseError(f"{name}: line {reader.line_num}: {exc}", line=reader.line_num) from None
    return replace(matrix, sources=sources)


def _parse_lines(lines: list[str], reader, name: str) -> TimeSeriesMatrix:
    """Parse the body in one numpy call; the per-cell reader takes over when that fails.

    The per-cell reader, reader (a csv.reader over lines), is the reference:
    it runs whenever the bulk parse refuses the body or the grid does not
    validate, and it either returns the same matrix or raises the error
    naming the file, line and column.
    """
    header = next(reader, None)
    if header is None or len(header) == 0:
        raise EmptyInput(f"{name}: empty file, expected a header row")
    header = [cell.strip() for cell in header]
    if len(header) < 2:
        raise EmptyInput(f"{name}: header has no variable columns")

    grid = _bulk_grid(lines[reader.line_num:])
    if grid is not None:
        try:
            # a column count other than the header's is a MissingValue here
            return validate_matrix(header[1:], grid[:, 0], grid[:, 1:])
        except (MissingValue, NonUniformTimeAxis):
            pass  # the per-cell reader below reports the file and line
    return _read_cells(reader, header, name)


# loadtxt strips these from a cell as whitespace, float() refuses them
_FLOAT_REFUSES = "\x1c\x1d\x1e\x1f"


def _bulk_grid(body: list[str]) -> np.ndarray | None:
    """The data lines as one 2-D float grid, or None where loadtxt may disagree.

    None hands the body to the per-cell reader (csv plus float()) when the
    two could read it differently: no data rows (loadtxt would warn), a
    \\x1c-\\x1f character, a line longer than the csv field limit, and
    anything loadtxt refuses (quotes, comma-only rows, `1_000`, non-ASCII
    digits, ragged rows).  Both skip blank lines.
    """
    text = "".join(body)
    if (not text or text.isspace() or any(c in text for c in _FLOAT_REFUSES)
            or max(map(len, body)) > csv.field_size_limit()):
        return None
    try:
        return np.loadtxt(body, delimiter=",", comments=None, ndmin=2, dtype=float)
    except ValueError:  # whatever loadtxt refuses, the per-cell reader judges
        return None


def _read_cells(reader, header: list[str], name: str) -> TimeSeriesMatrix:
    """Convert the reader's rows cell by cell and validate them, naming the line of any fault."""
    labels = header[1:]
    times: list[float] = []
    values: list[list[float]] = []
    line_nos: list[int] = []  # CSV line of each data row
    for row in reader:
        line_no = reader.line_num  # the line the row ends on: a quoted cell may span lines
        try:
            # float() itself ignores the whitespace around a number
            cells = [float(cell) for cell in row]
        except ValueError:
            cells = []
        if len(cells) != len(header):
            # skip a blank row or report the first bad cell
            if not row or all(cell.strip() == "" for cell in row):
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"{name}: line {line_no} has {len(row)} cells, expected {len(header)}",
                    line=line_no,
                )
            cells = [_parse_cell(cell, name, line_no, header[i]) for i, cell in enumerate(row)]
        times.append(cells[0])
        values.append(cells[1:])
        line_nos.append(line_no)

    if not values:
        raise EmptyInput(f"{name}: header only, no data rows")
    try:
        return validate_matrix(labels, times, values)
    except MissingValue as exc:
        j, i = exc.row, exc.column
        raise MissingValue(
            f"{name}: line {line_nos[j]}, column {labels[i]!r}: non-finite value {values[j][i]!r}",
            row=j,
            column=i,
        ) from None
    except NonUniformTimeAxis as exc:
        raise NonUniformTimeAxis(f"{name}: line {line_nos[exc.row]}: {exc}", row=exc.row) from None


def _parse_cell(cell: str, name: str, line_no: int, column: str) -> float:
    try:
        return float(cell)
    except ValueError:
        # strip only the ASCII whitespace float() ignores; str.strip() would
        # also hide the \x1c-\x1f separators that float() refuses
        shown = cell.strip(" \t\n\r\x0b\x0c")
        raise ParseError(
            f"{name}: line {line_no}, column {column!r}: cannot parse {shown!r} as a number",
            line=line_no,
            column=column,
        ) from None


@dataclass(frozen=True)
class ResultDocument:
    """A computed index series plus everything needed to replay the run.

    metadata echoes the full configuration (window, increment, state-size
    source and resolved values, input digest); re-running with it on the
    same input reproduces fi_points exactly.
    """

    metadata: dict
    series: FiSeries
    verdict: RegimeVerdict | None = None

    @cached_property
    def peaks(self) -> tuple[int, ...]:
        """local_maxima of the series."""
        return local_maxima(self.series)

    @cached_property
    def columns(self) -> tuple[list[str], list[str], list[str]]:
        """The time, fi and m_states texts of every point, rendered once for all writers."""
        series = self.series
        return (format_time_labels(series.time), _texts(series.fi, repr),
                _texts(series.m_states, str))


def _texts(column: np.ndarray, render) -> list[str]:
    """render(x) for every x of column, called once per distinct bit pattern (-0.0 is not 0.0)."""
    _, first, inverse = np.unique(column.view(f"i{column.itemsize}"),
                                  return_index=True, return_inverse=True)
    texts = np.array(list(map(render, column[first].tolist())), dtype=object)
    return texts[inverse.reshape(-1)].tolist()


def _rows(pieces: Sequence[str], *columns: Iterable[str]) -> Iterator[str]:
    """Row i's texts are pieces[0], columns[0][i], pieces[1], ..., pieces[-1], all rows in turn.

    The first row's pieces[0] is left out, so it can hold the separator between rows.
    """
    parts = [repeat(pieces[0])]
    for column, piece in zip(columns, pieces[1:]):
        parts += [column, repeat(piece)]
    texts = chain.from_iterable(zip(*parts))
    next(texts, None)
    return texts


def write_results(doc: ResultDocument, fmt: str, destination: str | Path | IO[str]) -> None:
    """Write a result document as CSV (`time,fi,m_states`) or JSON.

    Numbers are rendered with full round-trip precision; re-parsing a CSV
    recovers every fi value exactly.  The JSON is strict: a non-finite number
    in the metadata or verdict is written as the string of its repr ("inf").
    """
    render = {"csv": _csv_text, "json": _json_text}.get(fmt)
    if render is None:
        raise ValueError(f"unknown result format {fmt!r}, expected 'csv' or 'json'")
    _write(destination, render(doc))


def _csv_text(doc: ResultDocument) -> str:
    rows = _rows(("", ",", ",", "\n"), *doc.columns)
    return "".join(chain(["time,fi,m_states\n"], rows))


def _strict(value):
    """value with every non-finite float replaced by the string of its repr."""
    if isinstance(value, dict):
        return {key: _strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return list(map(_strict, value))
    return repr(value) if isinstance(value, float) and not math.isfinite(value) else value


def _member(value) -> str:
    """value as json.dump(indent=2) lays it out one level deep, in strict JSON."""
    # json never writes a raw newline inside a string, so shifting every line is safe
    return json.dumps(_strict(value), indent=2, allow_nan=False).replace("\n", "\n  ")


# One fi_points entry two levels deep, after the comma ending the one before;
# its numbers render as the json module writes them (float repr, int str).
_JSON_POINT = (',\n    {\n      "time": ', ',\n      "fi": ', ',\n      "m_states": ',
               ',\n      "window_start_index": ', ',\n      "window_end_index": ', "\n    }")


def _json_text(doc: ResultDocument) -> str:
    """The document exactly as json.dump(payload, indent=2) would write it, in one join."""
    series, v = doc.series, doc.verdict
    points: Iterable[str] = ["[]"]
    if len(series):
        rows = _rows(_JSON_POINT, *doc.columns, map(str, series.start.tolist()),
                     map(str, series.end.tolist()))
        points = chain(["[", _JSON_POINT[0][1:]], rows, ["\n  ]"])  # no comma before the first
    verdict = None if v is None else {"category": str(v.category), "slope": v.slope,
                                      "mean_fi": v.mean_fi, "slope_window": list(v.slope_window)}
    return "".join(chain(['{\n  "metadata": ', _member(doc.metadata), ',\n  "fi_points": '],
                         points, [',\n  "verdict": ', _member(verdict),
                                  ',\n  "peaks": ', _member(list(doc.peaks)), "\n}\n"]))


def _write(destination: str | Path | IO[str], text: str) -> None:
    if hasattr(destination, "write"):
        destination.write(text)
        return
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# --- plotting -------------------------------------------------------------

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 24, 24, 56


def emit_plot(series: FiSeries, destination: str | Path | IO[str]) -> None:
    """Write the index series as a self-contained static SVG line chart.

    One polyline with one vertex per point (a lone point becomes a single
    circular marker), time labels on the x axis, the index on the y axis
    over PLOT_Y_RANGE, 0..8.  Output bytes depend only on the series, so
    identical runs produce identical files.

    Raises EmptyInput when the series has no points.
    """
    if len(series) == 0:
        raise EmptyInput("cannot plot an empty index series")
    _write(destination, _render_svg(series))


def _render_svg(series: FiSeries) -> str:
    y_lo, y_hi = PLOT_Y_RANGE
    n = len(series)
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT

    # each coordinate column is one expression, in the float operations of the
    # scalar form: x from the window ends (the centre when they all end on one
    # row), y over the five y-tick levels followed by the points
    steps = series.end.astype(float)
    span = steps[-1] - steps[0]
    xs = (np.full(n, _ML + (_W - _ML - _MR) / 2.0) if span == 0
          else _ML + (steps - steps[0]) / span * (_W - _ML - _MR))
    levels = y_lo + (y_hi - y_lo) * np.arange(5) / 4.0
    ys = _H - _MB - (np.concatenate((levels, series.fi)) - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)
    x_texts = list(map("{:.2f}".format, xs.tolist()))
    y_texts = _texts(ys, "{:.2f}".format)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
        'stroke="black" stroke-width="1"/>',
    ]

    # y ticks: five even divisions of the range
    for v, yy, y_text in zip(levels.tolist(), ys[:5].tolist(), y_texts):
        out += [f'<line x1="{x0 - 4}" y1="{y_text}" x2="{x0}" y2="{y_text}" stroke="black"/>',
                f'<text x="{x0 - 8}" y="{yy + 4:.2f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="12">{v:g}</text>']

    # x ticks: every (n - 1) // 7-th point (every point while n <= 14), and the last
    ticks = [*range(0, n - 1, max(1, (n - 1) // 7)), n - 1]
    for i, label in zip(ticks, format_time_labels(series.time[ticks])):
        xx = x_texts[i]
        out += [f'<line x1="{xx}" y1="{y0}" x2="{xx}" y2="{y0 + 4}" stroke="black"/>',
                f'<text x="{xx}" y="{y0 + 18}" text-anchor="middle" font-family="sans-serif" '
                f'font-size="12">{label}</text>']

    # axis titles
    out += [f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 14}" text-anchor="middle" '
            'font-family="sans-serif" font-size="13">time</text>',
            f'<text x="18" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
            'font-family="sans-serif" font-size="13" '
            f'transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">Fisher information</text>']

    # the data: one polyline, or a single marker for a lone point
    if n == 1:
        data = [f'<circle cx="{x_texts[0]}" cy="{y_texts[5]}" r="3.5" fill="#1f6fb4"/>']
    else:
        data = chain(['<polyline points="'], _rows((" ", ",", ""), x_texts, y_texts[5:]),
                     ['" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>'])
    return "".join(chain(["\n".join(out), "\n"], data, ["\n</svg>\n"]))
