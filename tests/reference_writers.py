"""Per-row reference renderings of the CSV, JSON and SVG outputs.

These are the straightforward writers that fisherinfo.io replaced with
column-at-a-time joins: every row is formatted by its own f-string or
template call.  The tests compare the package's output with these string
for string.  Metadata and verdict numbers are assumed finite here.
"""
from __future__ import annotations

import json

from fisherinfo.io import PLOT_Y_RANGE, format_time_label


def _labels(series) -> list[str]:
    return [format_time_label(t) for t in series.time.tolist()]


def csv_text(doc) -> str:
    series = doc.series
    out = ["time,fi,m_states\n"]
    for t, fi, m in zip(_labels(series), series.fi.tolist(), series.m_states.tolist()):
        out.append(f"{t},{fi!r},{m}\n")
    return "".join(out)


_JSON_POINT = (
    "  {{\n"
    '    "time": {},\n'
    '    "fi": {!r},\n'
    '    "m_states": {},\n'
    '    "window_start_index": {},\n'
    '    "window_end_index": {}\n'
    "  }}"
)


def json_text(doc) -> str:
    series = doc.series
    points = "[]"
    if len(series):
        columns = (_labels(series), series.fi.tolist(), series.m_states.tolist(),
                   series.start.tolist(), series.end.tolist())
        points = "[\n" + ",\n".join(
            _JSON_POINT.format(t, fi, m, a, b) for t, fi, m, a, b in zip(*columns)
        ) + "\n]"
    verdict = None
    if doc.verdict is not None:
        v = doc.verdict
        verdict = {"category": str(v.category), "slope": v.slope, "mean_fi": v.mean_fi,
                   "slope_window": list(v.slope_window)}
    members = {
        "metadata": json.dumps(doc.metadata, indent=2),
        "fi_points": points,
        "verdict": json.dumps(verdict, indent=2),
        "peaks": json.dumps(list(doc.peaks), indent=2),
    }
    body = ",\n".join(f'  "{key}": ' + text.replace("\n", "\n  ") for key, text in members.items())
    return "{\n" + body + "\n}\n"


_W, _H = 720, 440
_ML, _MR, _MT, _MB = 70, 24, 24, 56


def svg_text(series) -> str:
    y_lo, y_hi = PLOT_Y_RANGE
    steps = series.end.astype(float).tolist()
    x_lo, x_hi = steps[0], steps[-1]

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
    x0, y0 = _ML, _H - _MB
    x1, y1 = _W - _MR, _MT
    out.append(
        f'<path d="M {x0} {y1} L {x0} {y0} L {x1} {y0}" fill="none" '
        'stroke="black" stroke-width="1"/>'
    )
    for k in range(5):
        v = y_lo + (y_hi - y_lo) * k / 4.0
        yy = sy(v)
        tick = str(int(v)) if float(v).is_integer() else f"{v:g}"
        out.append(f'<line x1="{x0 - 4}" y1="{yy:.2f}" x2="{x0}" y2="{yy:.2f}" stroke="black"/>')
        out.append(
            f'<text x="{x0 - 8}" y="{yy + 4:.2f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12">{tick}</text>'
        )
    n = len(series)
    stride = max(1, (n - 1) // 7 if n > 1 else 1)
    tick_idx = list(range(0, n, stride))
    if tick_idx[-1] != n - 1:
        tick_idx.append(n - 1)
    for i in tick_idx:
        xx = sx(steps[i])
        out.append(f'<line x1="{xx:.2f}" y1="{y0}" x2="{xx:.2f}" y2="{y0 + 4}" stroke="black"/>')
        out.append(
            f'<text x="{xx:.2f}" y="{y0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{format_time_label(series.time[i])}</text>'
        )
    out.append(
        f'<text x="{(x0 + x1) / 2:.2f}" y="{_H - 14}" text-anchor="middle" '
        'font-family="sans-serif" font-size="13">time</text>'
    )
    out.append(
        f'<text x="18" y="{(y0 + y1) / 2:.2f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13" '
        f'transform="rotate(-90 18 {(y0 + y1) / 2:.2f})">Fisher information</text>'
    )
    fis = series.fi.tolist()
    if n == 1:
        out.append(f'<circle cx="{sx(x_lo):.2f}" cy="{sy(fis[0]):.2f}" r="3.5" fill="#1f6fb4"/>')
    else:
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(steps, fis))
        out.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f6fb4" stroke-width="1.5"/>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
