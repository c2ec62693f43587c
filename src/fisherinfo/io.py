"""CSV ingestion, result serialization, and static SVG plots.

Input CSV: UTF-8, comma-separated, `.` decimal point, first row a header,
first column the time label, remaining columns variables.  LF or CRLF line
endings are both accepted.  Output files are deterministic: identical
inputs and configuration produce byte-identical bytes.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .core import TimeSeriesMatrix, validate_matrix
from .engine import FiSeries
from .errors import EmptyInput, MissingValue, NonUniformTimeAxis, ParseError
from .regimes import RegimeVerdict

PLOT_Y_RANGE = (0.0, 8.0)


def format_time_label(t: float) -> str:
    """Render a time stamp the way it was most likely written (1967, not 1967.0)."""
    t = float(t)
    if t.is_integer():
        return str(int(t))
    return repr(t)


def format_number(x: float) -> str:
    """Shortest decimal string that parses back to exactly the same float."""
    return repr(float(x))


def read_csv(source: str | Path | IO[str]) -> TimeSeriesMatrix:
    """Parse a time-series CSV and validate it into a TimeSeriesMatrix.

    Raises ParseError, naming the file, for a cell that is not a number
    (with its 1-based line and column name), for text that is not UTF-8 and
    for bad CSV syntax.  Validation errors (EmptyInput, MissingValue,
    NonUniformTimeAxis) propagate from validate_matrix; a MissingValue or
    NonUniformTimeAxis is re-raised with a message naming the file and the
    CSV line, keeping its row and column attributes.
    """
    if hasattr(source, "read"):
        name = getattr(source, "name", "<stream>")
        lines = list(_checked(source, name))
    else:
        name = str(Path(source))
        with open(name, "r", encoding="utf-8", newline="") as fh:
            lines = list(_checked(fh, name))
    return _parse_lines(lines, name)


def _parse_lines(lines: list[str], name: str) -> TimeSeriesMatrix:
    """Parse the body in one numpy call; the per-cell reader takes over when that fails.

    The per-cell reader is the reference: it runs whenever the bulk parse
    refuses the body or the grid does not validate, and it either returns
    the same matrix or raises the error naming the file, line and column.
    """
    reader = csv.reader(lines)
    rows = _checked(reader, name)
    header = next(rows, None)
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
    return _read_cells(rows, header, name)


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
    except Exception:  # whatever loadtxt refuses, the per-cell reader judges
        return None


def _read_cells(rows, header: list[str], name: str) -> TimeSeriesMatrix:
    """Convert the data rows cell by cell and validate them, naming the line of any fault."""
    labels = header[1:]
    times: list[float] = []
    values: list[list[float]] = []
    line_nos: list[int] = []  # CSV line of each data row
    for line_no, row in enumerate(rows, start=2):
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


def _checked(rows, name: str):
    """Yield from a text file or CSV reader; a decode or CSV error becomes a ParseError."""
    try:
        yield from rows
    except UnicodeDecodeError as exc:
        # decoding runs in chunks, so the failing position is not a line
        raise ParseError(f"{name}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:  # only a CSV reader raises it, and it counts lines
        raise ParseError(f"{name}: line {rows.line_num}: {exc}", line=rows.line_num) from None


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


def write_matrix_csv(matrix: TimeSeriesMatrix, destination: str | Path | IO[str],
                     time_header: str = "t") -> None:
    """Write a matrix back out in the input CSV dialect (round-trip identity)."""
    def emit(fh):
        fh.write(",".join([time_header, *matrix.labels]) + "\n")
        for j in range(matrix.n_steps):
            cells = [format_time_label(matrix.times[j])]
            cells += [format_number(v) for v in matrix.values[j]]
            fh.write(",".join(cells) + "\n")

    _with_output(destination, emit)


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
    peaks: tuple[int, ...] = field(default_factory=tuple)

    @cached_property
    def time_labels(self) -> tuple[str, ...]:
        """Every point's time rendered by format_time_label, once for all writers."""
        return tuple(map(format_time_label, self.series.time.tolist()))


def write_results(doc: ResultDocument, fmt: str, destination: str | Path | IO[str]) -> None:
    """Write a result document as CSV (`time,fi,m_states`) or JSON.

    Numbers are rendered with full round-trip precision; re-parsing a CSV
    recovers every fi value exactly.
    """
    if fmt == "csv":
        _with_output(destination, lambda fh: _write_csv(doc, fh))
    elif fmt == "json":
        _with_output(destination, lambda fh: _write_json(doc, fh))
    else:
        raise ValueError(f"unknown result format {fmt!r}, expected 'csv' or 'json'")


def _write_csv(doc: ResultDocument, fh: IO[str]) -> None:
    series = doc.series
    fh.write("time,fi,m_states\n")
    for t, fi, m in zip(doc.time_labels, series.fi.tolist(), series.m_states.tolist()):
        fh.write(f"{t},{format_number(fi)},{m}\n")


def _verdict_dict(verdict: RegimeVerdict) -> dict:
    return {
        "category": str(verdict.category),
        "slope": verdict.slope,
        "mean_fi": verdict.mean_fi,
        "slope_window": list(verdict.slope_window),
    }


# One fi_points entry as json.dump(indent=2) lays it out one level deep.  A
# time label renders like format_time_label (an int when integral, else the
# float's repr) and every other field is an int or a float's repr, which is
# how the json module writes numbers.
_JSON_POINT = (
    "  {{\n"
    '    "time": {},\n'
    '    "fi": {!r},\n'
    '    "m_states": {},\n'
    '    "window_start_index": {},\n'
    '    "window_end_index": {}\n'
    "  }}"
)


def _write_json(doc: ResultDocument, fh: IO[str]) -> None:
    """Write the document exactly as json.dump(payload, indent=2) would.

    Each fi_points entry comes from one string template; the other members
    are rendered by json.dumps and shifted one level in.
    """
    series = doc.series
    points = "[]"
    if len(series):
        columns = (doc.time_labels, series.fi.tolist(), series.m_states.tolist(),
                   series.start.tolist(), series.end.tolist())
        points = "[\n" + ",\n".join(
            _JSON_POINT.format(t, fi, m, a, b)
            for t, fi, m, a, b in zip(*columns)
        ) + "\n]"
    members = {
        "metadata": json.dumps(doc.metadata, indent=2),
        "fi_points": points,
        "verdict": json.dumps(
            _verdict_dict(doc.verdict) if doc.verdict is not None else None, indent=2
        ),
        "peaks": json.dumps(list(doc.peaks), indent=2),
    }
    # json never writes a raw newline inside a string, so shifting every line is safe
    body = ",\n".join(f'  "{key}": ' + text.replace("\n", "\n  ") for key, text in members.items())
    fh.write("{\n" + body + "\n}\n")


def _with_output(destination: str | Path | IO[str], emit) -> None:
    if hasattr(destination, "write"):
        emit(destination)
        return
    path = Path(destination)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        emit(fh)


# --- plotting -------------------------------------------------------------

_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 24, 24, 56


def emit_plot(
    series: FiSeries,
    destination: str | Path | IO[str],
    y_range: tuple[float, float] = PLOT_Y_RANGE,
) -> None:
    """Write the index series as a self-contained static SVG line chart.

    One polyline with one vertex per point (a lone point becomes a single
    circular marker), time labels on the x axis, the index on the y axis
    (range 0..8 by default).  Output bytes depend only on the series and
    y_range, so identical runs produce identical files.

    Raises EmptyInput when the series has no points.
    """
    if len(series) == 0:
        raise EmptyInput("cannot plot an empty index series")
    _with_output(destination, lambda fh: fh.write(_render_svg(series, y_range)))


def _render_svg(series: FiSeries, y_range: tuple[float, float]) -> str:
    y_lo, y_hi = float(y_range[0]), float(y_range[1])
    if not y_hi > y_lo:
        raise ValueError(f"invalid y_range {y_range}")
    steps = series.end.astype(float)
    x_lo, x_hi = float(steps[0]), float(steps[-1])

    def sx(step: float) -> float:
        if x_hi == x_lo:
            return _ML + (_W - _ML - _MR) / 2.0
        return _ML + (step - x_lo) / (x_hi - x_lo) * (_W - _ML - _MR)

    def sy(v: float) -> float:
        return _H - _MB - (v - y_lo) / (y_hi - y_lo) * (_H - _MT - _MB)

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
    ]

    # axes
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    out.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
        'stroke="black" stroke-width="1"/>'
    )

    # y ticks: five even divisions of the range
    for k in range(5):
        v = y_lo + (y_hi - y_lo) * k / 4.0
        yy = sy(v)
        out.append(
            f'<line x1="{x0 - 4}" y1="{yy:.2f}" x2="{x0}" y2="{yy:.2f}" stroke="black"/>'
        )
        out.append(
            f'<text x="{x0 - 8}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{_tick(v)}</text>'
        )

    # x ticks: at most eight, on point positions
    n = len(series)
    stride = max(1, (n - 1) // 7 if n > 1 else 1)
    tick_idx = list(range(0, n, stride))
    if tick_idx[-1] != n - 1:
        tick_idx.append(n - 1)
    for i in tick_idx:
        xx = sx(float(steps[i]))
        out.append(
            f'<line x1="{xx:.2f}" y1="{y0}" x2="{xx:.2f}" y2="{y0 + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{format_time_label(series.time[i])}</text>'
        )

    # axis titles
    out.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 14}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">time</text>'
    )
    out.append(
        f'<text x="18" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">Fisher information</text>'
    )

    # the data: one polyline, or a single marker for a lone point
    if n == 1:
        out.append(
            f'<circle cx="{sx(x_lo):.2f}" cy="{sy(float(series.fi[0])):.2f}" '
            'r="3.5" fill="#1f6fb4"/>'
        )
    else:
        # the same float operations as the scalar form, one array at a time
        xs, ys = sx(steps).tolist(), sy(series.fi).tolist()
        coords = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs, ys))
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tick(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:g}"
