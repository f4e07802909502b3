"""The full analysis pipeline: one market table in, one report out.

Reading a file or generating a table is the caller's job, so a table in
memory is analyzed as one loaded from a CSV file is.

A first-approach check that the data cannot support does not fail the run:
its slot holds a ``report.Skipped`` with the error the check raised as the
reason.  The checks read the price column themselves; this module only wires.
"""

from __future__ import annotations

import datetime

from .cointegration import engle_granger
from .errors import DivisionDomainError, InvalidArgumentError
from .market import (
    MarketData,
    UVariant,
    break_analysis,
    constancy_check,
    coverage_ratios,
    u_series,
)
from .report import AnalysisReport, Skipped, VariantResult
from .unit_root import stationarity_ladder

__all__ = ["build_analysis"]


def _skipped_or(check, *args):
    """``check(*args)``, or a Skipped slot holding the reason it raised."""
    try:
        return check(*args)
    except (InvalidArgumentError, DivisionDomainError) as exc:
        return Skipped(str(exc))


def build_analysis(days: MarketData, *, max_lag: int = 5,
                   break_date: datetime.date = datetime.date(2012, 5, 10)) -> AnalysisReport:
    """Run the full pipeline on one market table and assemble the report.

    ``max_lag`` bounds every ADF lag search; the break check splits the days at ``break_date``.
    """
    u = {variant: u_series(days, variant) for variant in UVariant}
    raw = days.series()
    ladders = {
        series.name: stationarity_ladder(series, max_lag)
        for series in (*u.values(), *raw.values())
    }
    u_big = {UVariant.BY_VOLUME: raw["U_BIG_VOL"], UVariant.BY_DEPOSIT: raw["U_BIG_DEP"]}
    coints = [
        engle_granger(
            u[variant], (u_big[variant], raw["R"], raw["I"]),
            max_lag=max_lag,
            resid_name=f"RESID{number}",
        )
        for number, variant in enumerate(UVariant, 1)
    ]
    return AnalysisReport(
        n_days=len(days),
        max_lag=max_lag,
        break_date=break_date,
        ladders=ladders,
        variants=tuple(
            VariantResult(variant, coint,
                          _skipped_or(constancy_check, u[variant], days),
                          _skipped_or(break_analysis, u[variant], break_date))
            for variant, coint in zip(UVariant, coints)
        ),
        coverage=_skipped_or(coverage_ratios, days),
    )
