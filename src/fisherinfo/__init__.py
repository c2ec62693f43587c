"""Fisher information index over multivariate time series.

Computes a discrete index of dynamic order from the probabilities of
observing a system's states within sliding time windows, using
uncertainty-based state binning, and classifies the resulting trajectory
into regime categories (stable, declining, increasing).

Typical use:

    from fisherinfo import (
        read_csv, estimate_state_size, sliding_fi, classify_regime,
        SosConfig, WindowConfig,
    )

    matrix = read_csv("data.csv")
    delta = estimate_state_size(matrix, SosConfig(k=2))
    series = sliding_fi(matrix, delta, WindowConfig(window_size=8, increment=1))
    verdict = classify_regime(series)

Importing the package loads no submodule: each public name is imported from
its defining module on first use (PEP 562).
"""
import importlib

__version__ = "0.1.0"

# every public name, keyed by the submodule that defines it, in __all__ order
_EXPORTS = {
    "core": "TimeSeriesMatrix StateSize WindowConfig SosConfig validate_matrix",
    "binning": "StateAssignment bin_window",
    "engine": "FiSeries estimate_state_size fisher_index sliding_fi window_count",
    "regimes": "RegimeCategory RegimeVerdict classify_regime local_maxima DEFAULT_SLOPE_TOL",
    "io": "ResultDocument read_csv write_results emit_plot",
    "worldbank": "IndicatorRequest fetch_indicator demo_matrix",
    "errors": "FisherInfoError EmptyInput MissingValue NonUniformTimeAxis DimensionMismatch "
              "DegenerateRange SeriesTooShort ParseError NetworkError NotFound GapInSeries "
              "SmallWindowWarning ConstantVariableWarning SosPrecedenceWarning",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    if name in _EXPORTS:  # importing a submodule binds it here as well
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})
