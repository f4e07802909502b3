"""The names the package exports."""

import specloss

# Every name `from specloss import *` gives.  A name added to or taken out
# of the package's exports is an API change, and changes this set with it.
SHIPPED = {
    "SpeclossError", "InvalidArgumentError", "InsufficientDataError", "AlignmentError",
    "DivisionDomainError", "UnsupportedConfigError", "SingularMatrixError",
    "CsvSchemaError", "CsvParseError", "CsvValidationError",
    "TimeSeries", "diff", "mean", "stddev", "align", "trading_dates",
    "student_t_sf", "f_sf",
    "RegressionSpec", "CoefRow", "OlsFit", "fit", "fit_arrays",
    "AdfResult", "LadderResult", "Verdict", "adf_regression", "select_lag", "adf_test",
    "mackinnon_critical_values", "mackinnon_pvalue", "stationarity_ladder",
    "verdict_from_t", "classify_ladder",
    "CointResult", "CointVerdict", "dm_critical_values", "engle_granger",
    "MarketData", "UVariant", "ConstancyResult", "BreakResult", "CoverageResult",
    "daily_loss_limit", "mean_loss_per_stock", "u_series", "constancy_check",
    "break_analysis", "coverage_ratios",
    "SynthConfig", "gen_market_days",
    "RunConfig", "load_market_csv", "write_market_csv", "load_series_csv",
    "parse_config_file",
    "AnalysisReport", "fmt_stat", "render_analysis_text", "render_analysis_csv",
    "__version__",
}


def test_package_exports_exactly_the_shipped_names():
    assert len(specloss.__all__) == len(set(specloss.__all__))
    assert set(specloss.__all__) == SHIPPED
    assert all(hasattr(specloss, name) for name in specloss.__all__)
