"""Command-line entry point wiring the modules into pipelines.

Subcommands: compute (CSV in, index series out), estimate-sos (print the
estimated state sizes), demo (the GDP/population demonstration, offline by
default), fetch (one World Bank indicator into the cache).  Exit codes:
0 success, 1 runtime error, 2 usage error.
"""
from __future__ import annotations

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

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
from .errors import (
    DimensionMismatch,
    FisherInfoError,
    RangeTooShort,
    SosPrecedenceWarning,
)
from .io import ResultDocument, emit_plot, format_time_label, read_csv, write_results
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


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


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
        a, b = int(a_text), int(b_text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an index pair 'first:last'") from None
    if a < 0 or a > b:
        raise argparse.ArgumentTypeError(f"need 0 <= first <= last, got {text!r}")
    return a, b


def _label_range(text: str) -> tuple[float, float]:
    try:
        a_text, b_text = text.split(":")
        a, b = float(a_text), float(b_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a time-label pair 'first:last'"
        ) from None
    if a > b:
        raise argparse.ArgumentTypeError(f"need first <= last, got {text!r}")
    return a, b


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
    estimate.add_argument("--k", type=_positive_float, default=None,
                          help=f"Chebyshev multiplier (default {DEFAULT_K:g})")
    estimate.add_argument("--stable-range", type=_index_range, default=None,
                          metavar="FIRST:LAST",
                          help="inclusive row index range of the stable period (default: all)")

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

    return parser


def _add_pipeline_options(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--window-size", type=_positive_int, default=DEFAULT_WINDOW_SIZE,
                     help=f"window size in time steps (default {DEFAULT_WINDOW_SIZE})")
    cmd.add_argument("--increment", type=_positive_int, default=DEFAULT_INCREMENT,
                     help=f"window increment in time steps (default {DEFAULT_INCREMENT})")
    cmd.add_argument("--sos", type=_sos_list, default=None, metavar="D1,D2,...",
                     help="explicit per-variable state sizes (overrides estimation)")
    cmd.add_argument("--k", type=_positive_float, default=None,
                     help=f"Chebyshev multiplier for estimation (default {DEFAULT_K:g})")
    cmd.add_argument("--stable-range", type=_index_range, default=None, metavar="FIRST:LAST",
                     help="inclusive row index range used to estimate state sizes")
    cmd.add_argument("--slope-tol", type=_positive_float, default=DEFAULT_SLOPE_TOL,
                     help=f"slope tolerance for the regime verdict (default {DEFAULT_SLOPE_TOL})")
    cmd.add_argument("--slope-range", type=_label_range, default=None, metavar="FIRST:LAST",
                     help="time-label range analyzed for the verdict (default: all points)")
    cmd.add_argument("--out-csv", default=None, help="write the index series as CSV here")
    cmd.add_argument("--out-json", default=None, help="write the full result document here")
    cmd.add_argument("--plot", default=None, help="write an SVG line chart here")


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
    k = args.k if args.k is not None else DEFAULT_K
    cfg = SosConfig(k=k, stable_range=args.stable_range)
    delta = estimate_state_size(matrix, cfg)
    return delta, {
        "sos_source": "estimated",
        "k": k,
        "stable_range": list(args.stable_range) if args.stable_range else None,
    }


def _slope_index_range(series, slope_range: tuple[float, float] | None):
    if slope_range is None:
        return None
    lo, hi = slope_range
    idx = [i for i, t in enumerate(series.time.tolist()) if lo <= t <= hi]
    if len(idx) < 2:
        raise RangeTooShort(
            f"--slope-range {format_time_label(lo)}:{format_time_label(hi)} "
            f"selects {len(idx)} index point(s); need at least 2"
        )
    return idx[0], idx[-1]


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _run_pipeline(args, matrix: TimeSeriesMatrix, command: str, input_digests: dict) -> int:
    delta, sos_meta = _resolve_state_size(args, matrix)
    wcfg = WindowConfig(window_size=args.window_size, increment=args.increment)
    series = sliding_fi(matrix, delta, wcfg)

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
        "window_size": wcfg.window_size,
        "increment": wcfg.increment,
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

    times = [format_time_label(t) for t in series.time.tolist()]
    print(
        f"{len(series)} index point(s), {times[0]}..{times[-1]}, "
        f"window {wcfg.window_size}, increment {wcfg.increment}"
    )
    print("state size: " + ", ".join(f"{matrix.labels[i]}={d:g}" for i, d in enumerate(delta)))
    if len(series) <= 10:
        for t, fi, m in zip(times, series.fi.tolist(), series.m_states.tolist()):
            print(f"  t={t}: FI={fi!r} ({m} state(s))")
    if verdict is not None:
        a, b = verdict.slope_window
        print(
            f"verdict: {verdict.category} "
            f"(slope {verdict.slope:.6g} per step over {times[a]}..{times[b]}, "
            f"mean FI {verdict.mean_fi:.6g})"
        )
    if peaks:
        print(f"local maxima at: {', '.join(times[i] for i in peaks)}")
    return 0


def _cmd_compute(args) -> int:
    matrix = read_csv(args.input)
    digests = {str(args.input): _sha256(Path(args.input))}
    return _run_pipeline(args, matrix, "compute", digests)


def _cmd_estimate_sos(args) -> int:
    matrix = read_csv(args.input)
    k = args.k if args.k is not None else DEFAULT_K
    delta = estimate_state_size(matrix, SosConfig(k=k, stable_range=args.stable_range))
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
        digests[path.name] = _sha256(path)
    return _run_pipeline(args, matrix, "demo", digests)


def _cmd_fetch(args) -> int:
    req = IndicatorRequest(args.country, args.indicator, (args.start, args.end))
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FisherInfoError, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
