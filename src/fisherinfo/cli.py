"""Command-line entry point wiring the modules into pipelines.

Subcommands: compute (CSV in, index series out), estimate-sos (print the
estimated state sizes), demo (the GDP/population demonstration, offline by
default), fetch (one World Bank indicator into the cache).  Exit codes:
0 success; 1 bad data, file, cache or network; 2 an argument value refused
before any file is read.  A traceback is a bug.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import io
import sys
import warnings
from pathlib import Path
from typing import NoReturn

import numpy as np

from . import __version__
from .core import (
    DEFAULT_INCREMENT,
    DEFAULT_K,
    DEFAULT_WINDOW_SIZE,
    SosConfig,
    StateSize,
    TimeSeriesMatrix,
    WindowConfig,
)
from .engine import estimate_state_size, sliding_fi
from .errors import DegenerateRange, DimensionMismatch, FisherInfoError, SosPrecedenceWarning
from .io import (
    ResultDocument,
    emit_plot,
    format_time_label,
    format_time_labels,
    read_csv,
    write_results,
)
from .regimes import DEFAULT_SLOPE_TOL, classify_regime, local_maxima
from .worldbank import (
    DEMO_COUNTRY,
    DEMO_YEARS,
    GDP_PER_CAPITA,
    TOTAL_POPULATION,
    IndicatorRequest,
    _write_series,
    cache_path,
    default_cache_dir,
    demo_matrix,
    fetch_indicator,
)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {value}")
    return value


def _sos_list(text: str) -> StateSize:
    try:
        return StateSize(tuple(float(part) for part in text.split(",")))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a comma-separated list of state sizes: {exc}"
        ) from None


def _index_range(text: str) -> tuple[int, int]:
    try:
        a_text, b_text = text.split(":")
        return int(a_text), int(b_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an index pair 'first:last'") from None


def _label_range(text: str) -> tuple[float, float]:
    try:
        a_text, b_text = text.split(":")
        a, b = float(a_text), float(b_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a time-label pair 'first:last'"
        ) from None
    if not a <= b:  # also refuses a nan bound
        raise argparse.ArgumentTypeError(f"need first <= last, got {text!r}")
    return a, b


# argparse reads a value that starts with '-' as an option name
_EQUALS_FORM = "a value starting with '-' needs the {}=FIRST:LAST form"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fisherinfo",
        description="Fisher information index over multivariate time series",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="compute the index series from a CSV file")
    compute.add_argument("input", help="input CSV: header row, time label first column")
    _add_pipeline_options(compute)

    estimate = sub.add_parser(
        "estimate-sos", help="print the estimated state size of each variable"
    )
    estimate.add_argument("input", help="input CSV: header row, time label first column")
    estimate.add_argument("--k", type=float, default=None,
                          help=f"Chebyshev multiplier (default {DEFAULT_K:g})")
    estimate.add_argument("--stable-range", type=_index_range, default=None, metavar="FIRST:LAST",
                          help="0-based data-row indices of the stable period, inclusive "
                               f"(default: all rows); {_EQUALS_FORM.format('--stable-range')}")

    demo = sub.add_parser(
        "demo",
        help=f"GDP per capita + population demonstration, {DEMO_COUNTRY} "
             f"{DEMO_YEARS[0]}-{DEMO_YEARS[1]}",
    )
    _add_pipeline_options(demo)
    mode = demo.add_mutually_exclusive_group()
    mode.add_argument("--offline", action="store_true", default=True,
                      help="use cached data only (default)")
    mode.add_argument("--live", action="store_true",
                      help="allow fetching from the World Bank API")
    demo.add_argument("--cache-dir", default=None,
                      help="cache directory (default: $FISHERINFO_CACHE_DIR or the shipped fixture)")

    fetch = sub.add_parser("fetch", help="fetch one indicator series into the cache")
    fetch.add_argument("--country", default=DEMO_COUNTRY, help="ISO country code")
    fetch.add_argument("--indicator", default=GDP_PER_CAPITA,
                       help=f"indicator id (e.g. {GDP_PER_CAPITA}, {TOTAL_POPULATION})")
    fetch.add_argument("--start", type=int, default=DEMO_YEARS[0], help="first year")
    fetch.add_argument("--end", type=int, default=DEMO_YEARS[1], help="last year")
    fetch.add_argument("--offline", action="store_true",
                       help="fail instead of touching the network on a cache miss")
    fetch.add_argument("--cache-dir", default=None,
                       help="cache directory (default: $FISHERINFO_CACHE_DIR or the shipped fixture)")
    fetch.add_argument("--out", default=None, help="also write the series as CSV to this path")

    for cmd in sub.choices.values():  # main reports a refused value with this usage line
        cmd.set_defaults(command_parser=cmd)
    return parser


def _add_pipeline_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--window-size", type=int, default=DEFAULT_WINDOW_SIZE,
                     help=f"window size in time steps (default {DEFAULT_WINDOW_SIZE})")
    cmd.add_argument("--increment", type=int, default=DEFAULT_INCREMENT,
                     help=f"window increment in time steps (default {DEFAULT_INCREMENT})")
    cmd.add_argument("--sos", type=_sos_list, default=None, metavar="D1,D2,...",
                     help="explicit per-variable state sizes (overrides estimation)")
    cmd.add_argument("--k", type=float, default=None,
                     help=f"Chebyshev multiplier for estimation (default {DEFAULT_K:g})")
    cmd.add_argument("--stable-range", type=_index_range, default=None, metavar="FIRST:LAST",
                     help="0-based data-row indices used to estimate state sizes, "
                          "inclusive (default: all rows); "
                          + _EQUALS_FORM.format("--stable-range"))
    cmd.add_argument("--slope-tol", type=_positive_float, default=DEFAULT_SLOPE_TOL,
                     help=f"slope tolerance for the regime verdict (default {DEFAULT_SLOPE_TOL})")
    cmd.add_argument("--slope-range", type=_label_range, default=None, metavar="FIRST:LAST",
                     help="time labels as written in the CSV's first column, inclusive, "
                          "analyzed for the verdict (default: all points); "
                          + _EQUALS_FORM.format("--slope-range"))
    cmd.add_argument("--out-csv", default=None, help="write the index series as CSV here")
    cmd.add_argument("--out-json", default=None, help="write the full result document here")
    cmd.add_argument("--plot", default=None, help="write an SVG line chart here")


def _configure(args) -> None:
    """Build the config objects a command uses; their checks run before any input is read."""
    if args.command == "fetch":
        args.request = IndicatorRequest(args.country, args.indicator, (args.start, args.end))
        return
    args.sos_config = SosConfig(DEFAULT_K if args.k is None else args.k, args.stable_range)
    if args.command != "estimate-sos":
        args.window = WindowConfig(window_size=args.window_size, increment=args.increment)


def _resolve_state_size(args, matrix: TimeSeriesMatrix) -> tuple[StateSize, dict]:
    """Explicit --sos wins over estimation parameters, with a warning."""
    if args.sos is not None:
        if args.k is not None or args.stable_range is not None:
            warnings.warn(
                "explicit --sos overrides --k/--stable-range",
                SosPrecedenceWarning,
                stacklevel=2,
            )
        if len(args.sos) != matrix.n_vars:
            raise DimensionMismatch(
                f"--sos lists {len(args.sos)} values but the input has "
                f"{matrix.n_vars} variable(s)"
            )
        return args.sos, {"sos_source": "explicit", "k": None, "stable_range": None}
    cfg = args.sos_config
    return estimate_state_size(matrix, cfg), {
        "sos_source": "estimated",
        "k": cfg.k,
        "stable_range": list(cfg.stable_range) if cfg.stable_range else None,
    }


def _slope_index_range(series, slope_range: tuple[float, float] | None):
    if slope_range is None:
        return None
    lo, hi = slope_range
    idx = np.flatnonzero((series.time >= lo) & (series.time <= hi))
    if len(idx) < 2:
        raise DegenerateRange(
            f"--slope-range {format_time_label(lo)}:{format_time_label(hi)} "
            f"selects {len(idx)} index point(s); need at least 2"
        )
    return int(idx[0]), int(idx[-1])


def _run_pipeline(args, matrix: TimeSeriesMatrix, command: str, input_digests: dict) -> int:
    delta, sos_meta = _resolve_state_size(args, matrix)
    series = sliding_fi(matrix, delta, args.window)

    # a slope needs two points; a single-window run still reports its value
    idx_range = _slope_index_range(series, args.slope_range)
    if len(series) >= 2:
        verdict = classify_regime(series, tol=args.slope_tol, index_range=idx_range)
    else:
        verdict = None
    peaks = local_maxima(series)

    metadata = {
        "tool": "fisherinfo",
        "version": __version__,
        "command": command,
        "inputs_sha256": input_digests,
        "variables": list(matrix.labels),
        "n_steps": matrix.n_steps,
        "window_size": args.window.window_size,
        "increment": args.window.increment,
        "state_size": list(delta.deltas),
        "slope_tol": args.slope_tol,
        "slope_range_labels": list(args.slope_range) if args.slope_range else None,
        **sos_meta,
    }
    doc = ResultDocument(metadata=metadata, series=series, verdict=verdict, peaks=peaks)

    if args.out_csv:
        write_results(doc, "csv", args.out_csv)
    if args.out_json:
        write_results(doc, "json", args.out_json)
    if args.plot:
        emit_plot(series, args.plot)

    def labels(indices) -> list[str]:  # only the labels printed are rendered
        return format_time_labels(series.time[list(indices)])

    first, last = labels([0, -1])
    print(
        f"{len(series)} index point(s), {first}..{last}, "
        f"window {args.window.window_size}, increment {args.window.increment}"
    )
    print("state size: " + ", ".join(f"{matrix.labels[i]}={d:g}" for i, d in enumerate(delta)))
    if len(series) <= 10:
        for t, fi, m in zip(labels(range(len(series))), series.fi.tolist(),
                            series.m_states.tolist()):
            print(f"  t={t}: FI={fi!r} ({m} state(s))")
    if verdict is not None:
        first, last = labels(verdict.slope_window)
        print(
            f"verdict: {verdict.category} "
            f"(slope {verdict.slope:.6g} per step over {first}..{last}, "
            f"mean FI {verdict.mean_fi:.6g})"
        )
    if peaks:
        print(f"local maxima at: {', '.join(labels(peaks))}")
    return 0


def _cmd_compute(args) -> int:
    # one read: the digest covers exactly the bytes parsed, also from a pipe
    data = Path(args.input).read_bytes()
    digests = {str(args.input): hashlib.sha256(data).hexdigest()}
    buffer = io.BytesIO(data)
    buffer.name = str(Path(args.input))  # the name that parse errors report
    matrix = read_csv(io.TextIOWrapper(buffer, encoding="utf-8", newline=""))
    return _run_pipeline(args, matrix, "compute", digests)


def _cmd_estimate_sos(args) -> int:
    matrix = read_csv(args.input)
    delta = estimate_state_size(matrix, args.sos_config)
    for label, d in zip(matrix.labels, delta):
        print(f"{label}: {d!r}")
    return 0


def _cmd_demo(args) -> int:
    offline = not args.live
    directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    matrix = demo_matrix(cache_dir=directory, offline=offline)
    digests = {}
    for indicator in (GDP_PER_CAPITA, TOTAL_POPULATION):
        path = cache_path(IndicatorRequest(DEMO_COUNTRY, indicator, DEMO_YEARS), directory)
        digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return _run_pipeline(args, matrix, "demo", digests)


def _cmd_fetch(args) -> int:
    req = args.request
    directory = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
    series = fetch_indicator(req, directory, offline=args.offline)
    print(f"{req.country_code}/{req.indicator_id}: {len(series)} year(s) "
          f"{series[0][0]}..{series[-1][0]} (cache: {cache_path(req, directory)})")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_series(fh, series)
    return 0


_COMMANDS = {
    "compute": _cmd_compute,
    "estimate-sos": _cmd_estimate_sos,
    "demo": _cmd_demo,
    "fetch": _cmd_fetch,
}


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def main(argv: list[str] | None = None) -> int:
    # warnings print as one line, without Python's file:line and source echo
    default_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        try:
            _configure(args)
        except ValueError as exc:
            args.command_parser.error(str(exc))
        try:
            return _COMMANDS[args.command](args)
        except (FisherInfoError, OSError) as exc:
            print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
            return 1
    finally:
        warnings.formatwarning = default_format


def run() -> NoReturn:
    """Process entry of the ``fisherinfo`` command and ``python -m fisherinfo.cli``.

    Exits with main's status after freezing every live object into the
    collector's permanent generation, so the collection CPython runs while
    finalizing skips the heap the OS is about to reclaim.  Streams are still
    flushed and atexit handlers still run.  A usage error, --help, --version
    or an uncaught exception leaves main before the freeze.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
