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
from pathlib import Path
from typing import IO, Sequence

from .core import TimeSeriesMatrix, validate_matrix
from .engine import FiSeries
from .errors import EmptyInput, EmptySeries, ParseError
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

    Raises ParseError (with 1-based line number and column name) for cells
    that do not parse as numbers; validation errors (EmptyInput,
    MissingValue, NonUniformTimeAxis) propagate from validate_matrix.
    """
    if hasattr(source, "read"):
        return _read_csv_stream(source, name=getattr(source, "name", "<stream>"))
    path = Path(source)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return _read_csv_stream(fh, name=str(path))


def _read_csv_stream(fh: IO[str], name: str) -> TimeSeriesMatrix:
    reader = csv.reader(fh)
    header = next(reader, None)
    if header is None or len(header) == 0:
        raise EmptyInput(f"{name}: empty file, expected a header row")
    header = [cell.strip() for cell in header]
    if len(header) < 2:
        raise EmptyInput(f"{name}: header has no variable columns")
    labels = header[1:]

    times: list[float] = []
    rows: list[list[float]] = []
    for line_no, row in enumerate(reader, start=2):
        if not row or all(cell.strip() == "" for cell in row):
            continue
        if len(row) != len(header):
            raise ParseError(
                f"{name}: line {line_no} has {len(row)} cells, expected {len(header)}",
                line=line_no,
            )
        times.append(_parse_cell(row[0], name, line_no, header[0]))
        rows.append(
            [
                _parse_cell(cell, name, line_no, header[i + 1])
                for i, cell in enumerate(row[1:])
            ]
        )

    if not rows:
        raise EmptyInput(f"{name}: header only, no data rows")
    return validate_matrix(labels, times, rows)


def _parse_cell(cell: str, name: str, line_no: int, column: str) -> float:
    try:
        return float(cell)  # float() itself ignores surrounding whitespace
    except ValueError:
        raise ParseError(
            f"{name}: line {line_no}, column {column!r}: cannot parse {cell.strip()!r} as a number",
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
    fh.write("time,fi,m_states\n")
    for p in doc.series.points:
        fh.write(f"{format_time_label(p.time_label)},{format_number(p.fi)},{p.m_states}\n")


def _verdict_dict(verdict: RegimeVerdict) -> dict:
    return {
        "category": str(verdict.category),
        "slope": verdict.slope,
        "mean_fi": verdict.mean_fi,
        "slope_window": list(verdict.slope_window),
    }


def _json_time(t: float) -> float | int:
    t = float(t)
    return int(t) if t.is_integer() else t


def _write_json(doc: ResultDocument, fh: IO[str]) -> None:
    payload = {
        "metadata": doc.metadata,
        "fi_points": [
            {
                "time": _json_time(p.time_label),
                "fi": p.fi,
                "m_states": p.m_states,
                "window_start_index": p.window_start_index,
                "window_end_index": p.window_end_index,
            }
            for p in doc.series.points
        ],
        "verdict": _verdict_dict(doc.verdict) if doc.verdict is not None else None,
        "peaks": list(doc.peaks),
    }
    json.dump(payload, fh, indent=2)
    fh.write("\n")


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

    Raises EmptySeries when the series has no points.
    """
    if len(series) == 0:
        raise EmptySeries("cannot plot an empty index series")
    _with_output(destination, lambda fh: fh.write(_render_svg(series, y_range)))


def _render_svg(series: FiSeries, y_range: tuple[float, float]) -> str:
    y_lo, y_hi = float(y_range[0]), float(y_range[1])
    if not y_hi > y_lo:
        raise ValueError(f"invalid y_range {y_range}")
    steps = [p.window_end_index for p in series.points]
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
    n = len(series.points)
    stride = max(1, (n - 1) // 7 if n > 1 else 1)
    tick_idx = list(range(0, n, stride))
    if tick_idx[-1] != n - 1:
        tick_idx.append(n - 1)
    for i in tick_idx:
        p = series.points[i]
        xx = sx(float(p.window_end_index))
        out.append(
            f'<line x1="{xx:.2f}" y1="{y0}" x2="{xx:.2f}" y2="{y0 + 4}" stroke="black"/>'
        )
        out.append(
            f'<text x="{xx:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{format_time_label(p.time_label)}</text>'
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
        p = series.points[0]
        out.append(
            f'<circle cx="{sx(float(p.window_end_index)):.2f}" cy="{sy(p.fi):.2f}" '
            'r="3.5" fill="#1f6fb4"/>'
        )
    else:
        coords = " ".join(
            f"{sx(float(p.window_end_index)):.2f},{sy(p.fi):.2f}" for p in series.points
        )
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>'
        )

    out.append("</svg>")
    return "\n".join(out) + "\n"


def _tick(v: float) -> str:
    if float(v).is_integer():
        return str(int(v))
    return f"{v:g}"
