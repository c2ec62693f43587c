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
from .io import ResultDocument, emit_plot, format_time_labels, read_csv, write_results
from .regimes import DEFAULT_SLOPE_TOL, classify_regime
from .worldbank import (
    DEMO_COUNTRY,
    DEMO_YEARS,
    GDP_PER_CAPITA,
    TOTAL_POPULATION,
    IndicatorRequest,
    _write_series,
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


def _out_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("expected a file path, got ''")
    return text


def _pair(convert, noun: str):
    """An argparse type reading 'first:last' with convert, refusing first >= last."""
    def parse(text: str) -> tuple:
        try:
            a_text, b_text = text.split(":")
            a, b = convert(a_text), convert(b_text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun} pair 'first:last'") from None
        if not a < b:  # also refuses a nan bound
            raise argparse.ArgumentTypeError(f"need first < last, got {text!r}")
        return a, b
    return parse


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
    estimate = sub.add_parser(
        "estimate-sos", help="print the estimated state size of each variable"
    )
    for cmd in (compute, estimate):
        cmd.add_argument("input", help="input CSV: header row, time label first column")
    _add_pipeline_options(compute)
    _add_estimation_options(estimate)

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

    fetch = sub.add_parser("fetch", help="fetch one indicator series into the cache")
    fetch.add_argument("--country", default=DEMO_COUNTRY, help="ISO country code")
    fetch.add_argument("--indicator", default=GDP_PER_CAPITA,
                       help=f"indicator id (e.g. {GDP_PER_CAPITA}, {TOTAL_POPULATION})")
    fetch.add_argument("--start", type=int, default=DEMO_YEARS[0], help="first year")
    fetch.add_argument("--end", type=int, default=DEMO_YEARS[1], help="last year")
    fetch.add_argument("--offline", action="store_true",
                       help="fail instead of touching the network on a cache miss")
    for cmd in (demo, fetch):  # between fetch's --offline and --out, its place in fetch --help
        cmd.add_argument("--cache-dir", default=None, help="cache directory "
                         "(default: $FISHERINFO_CACHE_DIR or the shipped fixture)")
    fetch.add_argument("--out", type=_out_path, default=None,
                       help="also write the series as CSV to this path")

    # main reports a refused value with command_parser's usage line
    for cmd, run in ((compute, _cmd_compute), (estimate, _cmd_estimate_sos),
                     (demo, _cmd_demo), (fetch, _cmd_fetch)):
        cmd.set_defaults(command_parser=cmd, run=run)
    return parser


def _add_pipeline_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--window-size", type=int, default=DEFAULT_WINDOW_SIZE,
                     help=f"window size in time steps (default {DEFAULT_WINDOW_SIZE})")
    cmd.add_argument("--increment", type=int, default=DEFAULT_INCREMENT,
                     help=f"window increment in time steps (default {DEFAULT_INCREMENT})")
    cmd.add_argument("--sos", type=_sos_list, default=None, metavar="D1,D2,...",
                     help="explicit per-variable state sizes (overrides estimation)")
    _add_estimation_options(cmd)
    cmd.add_argument("--slope-tol", type=_positive_float, default=DEFAULT_SLOPE_TOL,
                     help=f"slope tolerance for the regime verdict (default {DEFAULT_SLOPE_TOL})")
    cmd.add_argument("--slope-range", type=_pair(float, "a time-label"), metavar="FIRST:LAST",
                     help="time labels as written in the CSV's first column, inclusive, "
                          "analyzed for the verdict (default: all points); "
                          + _EQUALS_FORM.format("--slope-range"))
    cmd.add_argument("--out-csv", type=_out_path, default=None,
                     help="write the index series as CSV here")
    cmd.add_argument("--out-json", type=_out_path, default=None,
                     help="write the full result document here")
    cmd.add_argument("--plot", type=_out_path, default=None, help="write an SVG line chart here")


def _add_estimation_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--k", type=float, default=None,
                     help=f"Chebyshev multiplier for estimation (default {DEFAULT_K:g})")
    cmd.add_argument("--stable-range", type=_pair(int, "an index"), metavar="FIRST:LAST",
                     help="0-based data-row indices used to estimate state sizes, "
                          "inclusive (default: all rows); "
                          + _EQUALS_FORM.format("--stable-range"))


def _configure(args) -> None:
    """Build the config objects a command uses; their checks run before any input is read."""
    if args.command in ("demo", "fetch"):
        args.cache_dir = Path(args.cache_dir) if args.cache_dir else default_cache_dir()
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
            f"--slope-range {':'.join(format_time_labels(slope_range))} "
            f"selects {len(idx)} index point(s); need at least 2"
        )
    return int(idx[0]), int(idx[-1])


def _run_pipeline(args, matrix: TimeSeriesMatrix, command: str) -> int:
    delta, sos_meta = _resolve_state_size(args, matrix)
    series = sliding_fi(matrix, delta, args.window)

    # a slope needs two points; a single-window run still reports its value
    idx_range = _slope_index_range(series, args.slope_range)
    if len(series) >= 2:
        verdict = classify_regime(series, tol=args.slope_tol, index_range=idx_range)
    else:
        verdict = None

    metadata = {
        "tool": "fisherinfo",
        "version": __version__,
        "command": command,
        "inputs_sha256": dict(matrix.sources),
        "variables": list(matrix.labels),
        "n_steps": matrix.n_steps,
        "window_size": args.window.window_size,
        "increment": args.window.increment,
        "state_size": list(delta.deltas),
        "slope_tol": args.slope_tol,
        "slope_range_labels": list(args.slope_range) if args.slope_range else None,
        **sos_meta,
    }
    doc = ResultDocument(metadata=metadata, series=series, verdict=verdict)

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
    if doc.peaks:
        print(f"local maxima at: {', '.join(labels(doc.peaks))}")
    return 0


def _cmd_compute(args) -> int:
    return _run_pipeline(args, read_csv(args.input), "compute")


def _cmd_estimate_sos(args) -> int:
    matrix = read_csv(args.input)
    delta = estimate_state_size(matrix, args.sos_config)
    for label, d in zip(matrix.labels, delta):
        print(f"{label}: {d!r}")
    return 0


def _cmd_demo(args) -> int:
    return _run_pipeline(args, demo_matrix(args.cache_dir, offline=not args.live), "demo")


def _cmd_fetch(args) -> int:
    req = args.request
    matrix = fetch_indicator(req, args.cache_dir, offline=args.offline)
    years = matrix.times.astype(int).tolist()
    ((path, _),) = matrix.sources
    print(f"{req.country_code}/{req.indicator_id}: {len(years)} year(s) "
          f"{years[0]}..{years[-1]} (cache: {path})")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            _write_series(fh, years, matrix.values[:, 0].tolist())
    return 0


def _format_warning(message, category, filename, lineno, line=None) -> str:
    return f"warning: {category.__name__}: {message}\n"


def main(argv: list[str] | None = None) -> int:
    # warnings print as one line, without Python's file:line and source echo
    default_format, warnings.formatwarning = warnings.formatwarning, _format_warning
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        # argparse hands '--opt=--' an empty list without calling the option's type
        for dest, value in vars(args).items():
            if isinstance(value, list):
                args.command_parser.error(f"argument --{dest.replace('_', '-')}: "
                                          "expected one argument")
        try:
            _configure(args)
        except ValueError as exc:
            args.command_parser.error(str(exc))
        try:
            return args.run(args)
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
