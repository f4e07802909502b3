"""The full analysis pipeline: one run configuration in, one report out.

A first-approach check that the data cannot support does not fail the run:
its slot holds a ``report.Skipped`` with the reason.  That is the error the
check raised, or "no mean price available", given once here.
"""

from __future__ import annotations

import numpy as np

from .cointegration import engle_granger
from .dataio import RunConfig, load_market_csv
from .errors import DivisionDomainError, InvalidArgumentError
from .market import (
    UVariant,
    break_analysis,
    constancy_check,
    coverage_ratios,
    u_series,
)
from .ols import RegressionSpec, _scaled, _scaled_back
from .report import AnalysisReport, Skipped, VariantResult
from .synth import SynthConfig, gen_market_days
from .unit_root import stationarity_ladder

__all__ = ["build_analysis"]


def _skipped_or(check, *args):
    """``check(*args)``, or a Skipped slot holding the reason it raised."""
    try:
        return check(*args)
    except (InvalidArgumentError, DivisionDomainError) as exc:
        return Skipped(str(exc))


def build_analysis(config: RunConfig) -> AnalysisReport:
    """Run the full pipeline for a RunConfig and assemble the report."""
    if config.input_path is not None:
        days = load_market_csv(config.input_path)
    else:
        days = gen_market_days(SynthConfig(seed=config.synth_seed))
    u = {variant: u_series(days, variant) for variant in UVariant}
    raw = days.series()
    ladders = {
        series.name: stationarity_ladder(series, config.max_lag)
        for series in (*u.values(), *raw.values())
    }
    u_big = {UVariant.BY_VOLUME: raw["U_BIG_VOL"], UVariant.BY_DEPOSIT: raw["U_BIG_DEP"]}
    coints = [
        engle_granger(
            RegressionSpec(dependent=u[variant], regressors=(u_big[variant], raw["R"], raw["I"])),
            max_lag=config.max_lag,
            resid_name=f"RESID{number}",
        )
        for number, variant in enumerate(UVariant, 1)
    ]
    # The constancy check needs only the mean price of the days that have
    # one, summed scaled by an exact power of two as ols scales its inputs;
    # the coverage ratios need a price on every day.
    no_price = Skipped("no mean price available")
    prices = np.empty(0) if days.mean_price is None else days.mean_price
    priced = prices[~np.isnan(prices)]
    mean_price = no_price
    if priced.size:
        scaled, e = _scaled(priced)
        mean_price = _skipped_or(_scaled_back, float(np.mean(scaled)), e, "the mean price")
    return AnalysisReport(
        n_days=len(days),
        max_lag=config.max_lag,
        break_date=config.break_date,
        ladders=ladders,
        variants=tuple(
            VariantResult(variant, coint,
                          mean_price if isinstance(mean_price, Skipped)
                          else _skipped_or(constancy_check, u[variant], mean_price),
                          _skipped_or(break_analysis, u[variant], config.break_date))
            for variant, coint in zip(UVariant, coints)
        ),
        coverage=_skipped_or(coverage_ratios, days) if priced.size == len(days) else no_price,
    )
