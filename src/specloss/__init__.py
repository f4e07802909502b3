"""Speculative-loss analysis for exchange and interbank data.

The package computes the mean daily speculative loss per stock,
u = I*R/(365*U), from deposited money I, the one-day interbank rate R,
and stock counts U, then verifies the relationship two ways: descriptive
checks (near-constancy, structural break, deposit coverage) and a
unit-root/cointegration pipeline with the full least-squares diagnostic
block.  See the README for the CLI and file formats.
"""

from .errors import (
    AlignmentError,
    CsvParseError,
    CsvSchemaError,
    CsvValidationError,
    DivisionDomainError,
    InsufficientDataError,
    InvalidArgumentError,
    SingularMatrixError,
    SpeclossError,
    UnsupportedConfigError,
)
from .series import TimeSeries, align, diff, mean, stddev, trading_dates
from .special import f_sf, student_t_sf
from .ols import CoefRow, OlsFit, RegressionSpec, fit, fit_arrays
from .unit_root import (
    AdfResult,
    LadderResult,
    Verdict,
    adf_regression,
    adf_test,
    classify_ladder,
    mackinnon_critical_values,
    mackinnon_pvalue,
    select_lag,
    stationarity_ladder,
    verdict_from_t,
)
from .cointegration import CointResult, CointVerdict, dm_critical_values, engle_granger
from .market import (
    BreakResult,
    ConstancyResult,
    CoverageResult,
    MarketData,
    UVariant,
    break_analysis,
    constancy_check,
    coverage_ratios,
    daily_loss_limit,
    mean_loss_per_stock,
    u_series,
)
from .synth import SynthConfig, gen_market_days
from .dataio import (
    RunConfig,
    load_market_csv,
    load_series_csv,
    parse_config_file,
    write_market_csv,
)
from .report import AnalysisReport, fmt_stat, render_analysis_csv, render_analysis_text

__version__ = "0.1.0"

__all__ = [
    "SpeclossError",
    "InvalidArgumentError",
    "InsufficientDataError",
    "AlignmentError",
    "DivisionDomainError",
    "UnsupportedConfigError",
    "SingularMatrixError",
    "CsvSchemaError",
    "CsvParseError",
    "CsvValidationError",
    "TimeSeries",
    "diff",
    "mean",
    "stddev",
    "align",
    "trading_dates",
    "student_t_sf",
    "f_sf",
    "RegressionSpec",
    "CoefRow",
    "OlsFit",
    "fit",
    "fit_arrays",
    "AdfResult",
    "LadderResult",
    "Verdict",
    "adf_regression",
    "select_lag",
    "adf_test",
    "mackinnon_critical_values",
    "mackinnon_pvalue",
    "stationarity_ladder",
    "verdict_from_t",
    "classify_ladder",
    "CointResult",
    "CointVerdict",
    "dm_critical_values",
    "engle_granger",
    "MarketData",
    "UVariant",
    "ConstancyResult",
    "BreakResult",
    "CoverageResult",
    "daily_loss_limit",
    "mean_loss_per_stock",
    "u_series",
    "constancy_check",
    "break_analysis",
    "coverage_ratios",
    "SynthConfig",
    "gen_market_days",
    "RunConfig",
    "load_market_csv",
    "write_market_csv",
    "load_series_csv",
    "parse_config_file",
    "AnalysisReport",
    "fmt_stat",
    "render_analysis_text",
    "render_analysis_csv",
    "__version__",
]
