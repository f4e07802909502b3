"""The full analysis pipeline: one run configuration in, one report out.

A first-approach check that the data cannot support is marked skipped in
the report instead of failing the run.
"""

from __future__ import annotations

import numpy as np

from .cointegration import engle_granger
from .dataio import RunConfig, load_market_csv
from .errors import InvalidArgumentError
from .market import (
    UVariant,
    break_analysis,
    constancy_check,
    coverage_ratios,
    u_series,
)
from .ols import RegressionSpec
from .report import AnalysisReport
from .synth import SynthConfig, gen_market_days
from .unit_root import stationarity_ladder

__all__ = ["build_analysis"]


def build_analysis(config: RunConfig) -> AnalysisReport:
    """Run the full pipeline for a RunConfig and assemble the report."""
    if config.input_path is not None:
        days = load_market_csv(config.input_path)
    else:
        days = gen_market_days(SynthConfig(seed=config.synth_seed))
    u_vol = u_series(days, UVariant.BY_VOLUME)
    u_dep = u_series(days, UVariant.BY_DEPOSIT)
    raw = days.series()
    variables = {"U_SMALL_VOL": u_vol, "U_SMALL_DEP": u_dep, **raw}
    ladders = {
        name: stationarity_ladder(series, config.max_lag)
        for name, series in variables.items()
    }
    coint_vol = engle_granger(
        RegressionSpec(dependent=u_vol, regressors=(raw["U_BIG_VOL"], raw["R"], raw["I"])),
        max_lag=config.max_lag,
        resid_name="RESID1",
    )
    coint_dep = engle_granger(
        RegressionSpec(dependent=u_dep, regressors=(raw["U_BIG_DEP"], raw["R"], raw["I"])),
        max_lag=config.max_lag,
        resid_name="RESID2",
    )
    prices = days.mean_price
    have_prices = prices is not None and not np.isnan(prices).any()
    mean_price = float(np.mean(prices)) if have_prices else None
    # Both u series share one calendar, so the break splits them alike.
    try:
        break_vol = break_analysis(u_vol, config.break_date)
        break_dep = break_analysis(u_dep, config.break_date)
        break_skipped = None
    except InvalidArgumentError as exc:
        break_vol = break_dep = None
        break_skipped = str(exc)
    return AnalysisReport(
        n_days=len(days),
        max_lag=config.max_lag,
        break_date=config.break_date,
        ladders=ladders,
        coint_by_volume=coint_vol,
        coint_by_deposit=coint_dep,
        constancy_vol=constancy_check(u_vol, mean_price) if have_prices else None,
        constancy_dep=constancy_check(u_dep, mean_price) if have_prices else None,
        break_vol=break_vol,
        break_dep=break_dep,
        break_skipped=break_skipped,
        coverage=coverage_ratios(days) if have_prices else None,
        mean_price=mean_price,
    )
