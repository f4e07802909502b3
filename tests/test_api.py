"""The names the package exports."""

import importlib
import inspect
import pkgutil

import specloss
from specloss.cli import build_parser
from specloss.cointegration import engle_granger
from specloss.ols import fit
from specloss.pipeline import build_analysis
from specloss.synth import gen_market_days

# Every name `from specloss import *` gives.  A name added to or taken out
# of the package's exports is an API change, and changes this set with it.
SHIPPED = {
    "SpeclossError", "InvalidArgumentError", "InsufficientDataError", "AlignmentError",
    "DivisionDomainError", "UnsupportedConfigError", "SingularMatrixError",
    "CsvSchemaError", "CsvParseError", "CsvValidationError",
    "TimeSeries", "diff", "mean", "stddev", "align", "trading_dates",
    "student_t_sf", "f_sf",
    "CoefRow", "OlsFit", "fit", "fit_arrays",
    "AdfResult", "LadderResult", "Verdict", "select_lag", "adf_test",
    "mackinnon_critical_values", "mackinnon_pvalue", "stationarity_ladder",
    "verdict_from_t", "classify_ladder",
    "CointResult", "CointVerdict", "dm_critical_values", "engle_granger",
    "MarketData", "UVariant", "ConstancyResult", "BreakResult", "CoverageResult",
    "daily_loss_limit", "mean_loss_per_stock", "u_series", "constancy_check",
    "break_analysis", "coverage_ratios",
    "gen_market_days",
    "load_market_csv", "write_market_csv", "load_series_csv",
    "parse_config_file",
    "AnalysisReport", "fmt_stat", "render_analysis_text", "render_analysis_csv",
    "__version__",
}


def test_package_exports_exactly_the_shipped_names():
    assert len(specloss.__all__) == len(set(specloss.__all__))
    assert set(specloss.__all__) == SHIPPED
    assert all(hasattr(specloss, name) for name in specloss.__all__)


# Every knob a user can turn: each subcommand's long flags and the
# parameters of the generator, the fit, the cointegration test and the
# pipeline.  Adding or removing one is a reviewed change.
FLAGS = {
    "analyze": {"config", "input", "synth-seed", "break-date", "maxlag", "format"},
    "adf": {"config", "input", "column", "maxlag"},
    "ols": {"config", "input", "dep", "regressors"},
    "coint": {"config", "input", "dep", "regressors", "maxlag"},
    "synth": {"config", "seed", "days", "out", "noise-scale", "break-factor", "break-index"},
}
SYNTH_PARAMETERS = ("seed", "n_days", "noise_scale", "break_factor", "break_index")
FIT_PARAMETERS = ("dependent", "regressors")
COINT_PARAMETERS = ("dependent", "regressors", "max_lag", "resid_name")
ANALYSIS_PARAMETERS = ("days", "max_lag", "break_date")


def test_cli_flags_and_config_fields_are_the_pinned_ones():
    parser = build_parser()
    for command, flags in FLAGS.items():
        # A config file may set every long flag but --config itself.
        assert set(parser.parse_args([command]).config_keys) | {"config"} == flags, command
    assert tuple(inspect.signature(gen_market_days).parameters) == SYNTH_PARAMETERS
    assert tuple(inspect.signature(fit).parameters) == FIT_PARAMETERS
    assert tuple(inspect.signature(engle_granger).parameters) == COINT_PARAMETERS
    assert tuple(inspect.signature(build_analysis).parameters) == ANALYSIS_PARAMETERS


def test_every_module_exports_only_names_it_has():
    for info in pkgutil.iter_modules(specloss.__path__):
        if info.name == "__main__":  # running it is its only use
            continue
        module = importlib.import_module(f"specloss.{info.name}")
        names = getattr(module, "__all__", ())  # without one, `import *` takes what exists
        assert len(names) == len(set(names)), info.name
        missing = [name for name in names if not hasattr(module, name)]
        assert missing == [], info.name
