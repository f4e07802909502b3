"""Tests for the loss formulas and the first-approach analyses."""

import datetime
import math

import numpy as np
import pytest

from specloss.errors import DivisionDomainError, InvalidArgumentError
from specloss.market import (
    MarketData,
    UVariant,
    break_analysis,
    constancy_check,
    coverage_ratios,
    daily_loss_limit,
    mean_loss_per_stock,
    u_series,
)
from specloss.series import TimeSeries, stddev, trading_dates


def make_days(rows, start=datetime.date(2012, 1, 3), price=None):
    """Build MarketData from (i, r, vol, dep) tuples, one per day."""
    i, r, vol, dep = np.array(rows, dtype=float).reshape(len(rows), 4).T
    return MarketData(
        dates=trading_dates(len(rows), start) if rows else (),
        invest_i=i,
        rate_r=r,
        u_big_vol=vol,
        u_big_dep=dep,
        mean_price=None if price is None else np.full(len(rows), price),
    )


def test_daily_loss_limit_hand_values():
    assert daily_loss_limit(365.0, 0.05) == 0.05
    assert math.isclose(daily_loss_limit(1000.0, 0.0365), 0.1, rel_tol=1e-15)
    assert daily_loss_limit(1000.0, 0.0) == 0.0
    assert daily_loss_limit(0.0, 0.5) == 0.0


def test_daily_loss_limit_rejects_negative():
    with pytest.raises(InvalidArgumentError):
        daily_loss_limit(-1.0, 0.05)
    with pytest.raises(InvalidArgumentError):
        daily_loss_limit(1.0, -0.05)


def test_mean_loss_per_stock_unit_case():
    assert mean_loss_per_stock(365.0, 1.0, 1.0) == 1.0


def test_mean_loss_per_stock_equals_limit_over_u():
    rng = np.random.default_rng(21)
    for case in range(100):
        i = float(rng.uniform(0.0, 1e6))
        r = float(rng.uniform(0.0, 0.5))
        u = float(rng.uniform(1e-3, 1e9))
        assert mean_loss_per_stock(i, r, u) == daily_loss_limit(i, r) / u


def test_mean_loss_per_stock_domain_errors():
    with pytest.raises(DivisionDomainError):
        mean_loss_per_stock(1.0, 0.1, 0.0)
    with pytest.raises(InvalidArgumentError):
        mean_loss_per_stock(1.0, 0.1, -1.0)


def test_u_series_values_names_units():
    days = make_days([(3.65, 10.0, 1e5, 2e5), (7.30, 10.0, 1e5, 2e5)])
    u_vol = u_series(days, UVariant.BY_VOLUME)
    u_dep = u_series(days, UVariant.BY_DEPOSIT)
    assert u_vol.name == "U_SMALL_VOL" and u_dep.name == "U_SMALL_DEP"
    assert np.allclose(u_vol.values, [1.0, 2.0], rtol=1e-12)
    assert np.allclose(u_dep.values, [0.5, 1.0], rtol=1e-12)
    assert u_vol.dates == days.dates


def test_u_series_constant_days_have_zero_stddev():
    days = make_days([(10.0, 5.0, 1e6, 2e6)] * 5)
    u = u_series(days, UVariant.BY_VOLUME)
    assert stddev(u) == 0.0


def test_u_series_zero_u_names_date():
    days = make_days([(1.0, 5.0, 1e6, 2e6), (1.0, 5.0, 0.0, 2e6)])
    with pytest.raises(DivisionDomainError, match=str(days.dates[1])):
        u_series(days, UVariant.BY_VOLUME)
    # The deposit variant is still fine on those days.
    u_series(days, UVariant.BY_DEPOSIT)
    with pytest.raises(InvalidArgumentError):
        u_series(make_days([]), UVariant.BY_VOLUME)


def test_u_series_homogeneity():
    rng = np.random.default_rng(23)
    rows = [
        (float(rng.uniform(10.0, 1e4)), float(rng.uniform(0.5, 15.0)),
         float(rng.uniform(1e4, 1e6)), float(rng.uniform(1e6, 1e8)))
        for _ in range(30)
    ]
    days = make_days(rows)
    base = u_series(days, UVariant.BY_VOLUME).values
    a, b, c = 3.5, 0.25, 8.0
    scaled_i = make_days([(i * a, r, v, d) for i, r, v, d in rows])
    scaled_r = make_days([(i, r * b, v, d) for i, r, v, d in rows])
    scaled_u = make_days([(i, r, v * c, d * c) for i, r, v, d in rows])
    assert np.allclose(u_series(scaled_i, UVariant.BY_VOLUME).values, a * base,
                       rtol=1e-12)
    assert np.allclose(u_series(scaled_r, UVariant.BY_VOLUME).values, b * base,
                       rtol=1e-12)
    assert np.allclose(u_series(scaled_u, UVariant.BY_VOLUME).values, base / c,
                       rtol=1e-12)


def test_constancy_check_threshold_and_verdicts():
    # Mean price arrives in rubles; the threshold is price/100 in kopecks,
    # numerically equal to the ruble price.
    u = TimeSeries(trading_dates(4), np.array([10.0, 90.0, 10.0, 90.0]))
    sd = stddev(u)
    result = constancy_check(u, mean_price=5320.0)
    assert result.threshold == 5320.0
    assert result.stddev == sd
    assert result.mean == 50.0
    assert result.passes
    # Boundary: stddev exactly at the threshold fails the strict test.
    at_limit = constancy_check(u, mean_price=sd)
    assert at_limit.threshold == sd
    assert not at_limit.passes
    assert constancy_check(u, mean_price=sd * 1.001).passes


def test_constancy_check_constant_series_always_passes():
    u = TimeSeries(trading_dates(5), np.full(5, 7.0))
    assert constancy_check(u, mean_price=0.001).passes


def test_constancy_check_rejects_bad_price():
    u = TimeSeries(trading_dates(3), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidArgumentError):
        constancy_check(u, mean_price=0.0)


def test_break_analysis_step_series():
    values = np.array([1.0] * 10 + [2.0] * 10)
    dates = trading_dates(20)
    u = TimeSeries(dates, values)
    result = break_analysis(u, dates[10])
    assert result.mean_before == 1.0
    assert result.mean_after == 2.0
    assert result.ratio == 2.0


def test_break_analysis_break_date_belongs_to_after():
    dates = trading_dates(6)  # Fri Jan 6 and Mon Jan 9 straddle a weekend
    u = TimeSeries(dates, np.array([1.0, 1.0, 1.0, 1.0, 5.0, 5.0]))
    result = break_analysis(u, dates[4])
    assert result.mean_before == 1.0 and result.mean_after == 5.0
    # A weekend date splits at the same point as the following Monday.
    saturday = dates[3] + datetime.timedelta(days=1)
    assert saturday < dates[4]
    assert break_analysis(u, saturday) == result


def test_break_analysis_constant_series_ratio_one():
    dates = trading_dates(8)
    u = TimeSeries(dates, np.full(8, 3.0))
    assert break_analysis(u, dates[4]).ratio == 1.0


def test_break_analysis_degenerate_segments_rejected():
    dates = trading_dates(6)
    u = TimeSeries(dates, np.arange(6.0))
    with pytest.raises(InvalidArgumentError):
        break_analysis(u, dates[1])
    with pytest.raises(InvalidArgumentError):
        break_analysis(u, dates[5])
    with pytest.raises(InvalidArgumentError):
        break_analysis(u, dates[0] - datetime.timedelta(days=30))


def test_coverage_ratios_hand_values():
    days = make_days(
        [(10.0, 5.0, 1e5, 1e6), (10.0, 5.0, 3e5, 1e6)], price=10.0
    )
    result = coverage_ratios(days)
    assert math.isclose(result.stock_utilization, 0.2, rel_tol=1e-12)
    # 10 m. rubles over 1e6 stocks at 10 rubles each covers the value.
    assert math.isclose(result.money_coverage, 1.0, rel_tol=1e-12)


def test_coverage_ratios_tenth_utilization():
    days = make_days([(5.0, 5.0, d / 10.0, d) for d in (1e6, 2e6, 5e6)], price=100.0)
    assert math.isclose(coverage_ratios(days).stock_utilization, 0.1, rel_tol=1e-12)


def test_coverage_ratios_errors():
    days = make_days([(1.0, 1.0, 1e5, 1e6)], price=None)
    with pytest.raises(InvalidArgumentError, match="mean_price"):
        coverage_ratios(days)
    with pytest.raises(InvalidArgumentError):
        coverage_ratios(make_days([]))
    zero_dep = make_days([(1.0, 1.0, 0.0, 0.0)], price=5.0)
    with pytest.raises(DivisionDomainError, match=str(zero_dep.dates[0])):
        coverage_ratios(zero_dep)


def test_analyses_invariant_under_date_relabeling():
    rng = np.random.default_rng(24)
    rows = [
        (float(rng.uniform(10.0, 1e4)), float(rng.uniform(0.5, 15.0)),
         float(rng.uniform(1e4, 1e6)), float(rng.uniform(1e6, 1e8)))
        for _ in range(20)
    ]
    days_a = make_days(rows, start=datetime.date(2012, 1, 3), price=100.0)
    days_b = make_days(rows, start=datetime.date(2015, 6, 1), price=100.0)
    u_a = u_series(days_a, UVariant.BY_VOLUME)
    u_b = u_series(days_b, UVariant.BY_VOLUME)
    assert constancy_check(u_a, 100.0) == constancy_check(u_b, 100.0)
    assert coverage_ratios(days_a) == coverage_ratios(days_b)
    split = break_analysis(u_a, u_a.dates[8])
    assert split == break_analysis(u_b, u_b.dates[8])


def test_market_day_validation():
    def one_day(**columns):
        values = dict(dates=(datetime.date(2012, 1, 3),), invest_i=[1.0],
                      rate_r=[1.0], u_big_vol=[1.0], u_big_dep=[1.0])
        values.update(columns)
        return MarketData(**values)

    with pytest.raises(InvalidArgumentError, match="subset"):
        one_day(u_big_vol=[2e6], u_big_dep=[1e6])
    with pytest.raises(InvalidArgumentError):
        one_day(invest_i=[-1.0])
    with pytest.raises(InvalidArgumentError):
        one_day(rate_r=[math.nan])
    with pytest.raises(InvalidArgumentError):
        one_day(dates=("2012-01-03",))
    with pytest.raises(InvalidArgumentError, match="mean_price"):
        one_day(mean_price=[0.0])
    # Optional price may be absent, for all days or for one.
    one_day()
    one_day(mean_price=[math.nan])
    # The error names the first offending day.
    dates = trading_dates(3)
    with pytest.raises(InvalidArgumentError, match=str(dates[1])) as exc_info:
        one_day(dates=dates, invest_i=[1.0, -1.0, -2.0], rate_r=[1.0] * 3,
                u_big_vol=[1.0] * 3, u_big_dep=[1.0] * 3)
    assert exc_info.value.date == dates[1]
    with pytest.raises(InvalidArgumentError, match="one value per date"):
        one_day(rate_r=[1.0, 2.0])
    with pytest.raises(ValueError):
        one_day().invest_i[0] = 2.0
