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
"""

__version__ = "0.1.0"

from .binning import StateAssignment, bin_window, same_state
from .core import (
    SosConfig,
    StateSize,
    TimeSeriesMatrix,
    WindowConfig,
    validate_matrix,
)
from .engine import (
    FiSeries,
    estimate_state_size,
    fisher_index,
    sliding_fi,
    window_count,
)
from .errors import (
    ConstantVariableWarning,
    DegenerateRange,
    DimensionMismatch,
    EmptyInput,
    EmptySeries,
    EmptyWindow,
    FisherInfoError,
    GapInSeries,
    MissingValue,
    NetworkError,
    NonUniformTimeAxis,
    NotFound,
    ParseError,
    RangeMismatch,
    RangeTooShort,
    SeriesTooShort,
    SmallWindowWarning,
    SosPrecedenceWarning,
)
from .io import ResultDocument, emit_plot, read_csv, write_results
from .regimes import (
    DEFAULT_SLOPE_TOL,
    RegimeCategory,
    RegimeVerdict,
    classify_regime,
    fi_slope,
    local_maxima,
)
from .worldbank import (
    IndicatorRequest,
    assemble_demo_matrix,
    demo_matrix,
    fetch_indicator,
)

__all__ = [
    "__version__",
    # core types
    "TimeSeriesMatrix",
    "StateSize",
    "WindowConfig",
    "SosConfig",
    "validate_matrix",
    # binning
    "StateAssignment",
    "same_state",
    "bin_window",
    # engine
    "FiSeries",
    "estimate_state_size",
    "fisher_index",
    "sliding_fi",
    "window_count",
    # regimes
    "RegimeCategory",
    "RegimeVerdict",
    "fi_slope",
    "classify_regime",
    "local_maxima",
    "DEFAULT_SLOPE_TOL",
    # io
    "ResultDocument",
    "read_csv",
    "write_results",
    "emit_plot",
    # worldbank
    "IndicatorRequest",
    "fetch_indicator",
    "assemble_demo_matrix",
    "demo_matrix",
    # errors
    "FisherInfoError",
    "EmptyInput",
    "MissingValue",
    "NonUniformTimeAxis",
    "DimensionMismatch",
    "EmptyWindow",
    "DegenerateRange",
    "SeriesTooShort",
    "RangeTooShort",
    "ParseError",
    "EmptySeries",
    "NetworkError",
    "NotFound",
    "GapInSeries",
    "RangeMismatch",
    "SmallWindowWarning",
    "ConstantVariableWarning",
    "SosPrecedenceWarning",
]
