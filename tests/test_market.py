"""Tests for the loss formulas and the first-approach analyses."""

import dataclasses
import datetime
import math

import numpy as np
import pytest

from specloss.errors import DivisionDomainError, InvalidArgumentError, InvalidDayError
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
from specloss.series import TimeSeries, _Frozen, stddev, trading_dates


def make_days(rows, start=datetime.date(2012, 1, 3), price=None):
    """Build MarketData from (i, r, vol, dep) tuples, one per weekday from ``start``."""
    i, r, vol, dep = np.array(rows, dtype=float).reshape(len(rows), 4).T
    return MarketData(
        dates=np.busday_offset(start, np.arange(len(rows)), roll="forward"),
        invest_i=i,
        rate_r=r,
        u_big_vol=vol,
        u_big_dep=dep,
        mean_price=None if price is None else np.full(len(rows), price),
    )


def priced(*prices):
    """A table of one plain day per price, given in rubles; NaN is a blank cell."""
    return make_days([(1.0, 1.0, 1.0, 1.0)] * len(prices), price=list(prices))


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
    assert u_vol.dates is days.dates


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


def test_u_series_that_overflows_names_the_variant_and_the_day():
    # I = 1e308 million rubles overflows the kopeck conversion; pytest turns
    # a numpy overflow warning into an error, so none may be raised.
    days = make_days([(1.0, 5.0, 1e6, 2e6), (1e308, 5.0, 1e6, 2e6), (1e308, 5.0, 1e6, 2e6)])
    for variant in UVariant:
        with pytest.raises(InvalidDayError, match=f"u \\({variant.value}\\) overflowed "
                                                  f"on {days.dates[1]}") as exc_info:
            u_series(days, variant)
        assert exc_info.value.date == datetime.date(2012, 1, 4)
        assert type(exc_info.value.date) is datetime.date
    # A stock count near zero carries u past the float range by division.
    tiny = make_days([(1.0, 5.0, 1e6, 2e6), (2e4, 5.0, 1e-320, 2e6)])
    with pytest.raises(InvalidDayError, match=f"u \\(by_volume\\) overflowed on {tiny.dates[1]}"):
        u_series(tiny, UVariant.BY_VOLUME)
    assert np.isfinite(u_series(tiny, UVariant.BY_DEPOSIT).values).all()


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
    result = constancy_check(u, priced(5000.0, 5640.0, math.nan, 5320.0))
    assert result.threshold == 5320.0
    assert result.stddev == sd
    assert result.mean == 50.0
    assert result.passes
    # Boundary: stddev exactly at the threshold fails the strict test.
    at_limit = constancy_check(u, priced(sd, math.nan))
    assert at_limit.threshold == sd
    assert not at_limit.passes
    assert constancy_check(u, priced(sd * 1.001)).passes


def test_constancy_check_constant_series_always_passes():
    u = TimeSeries(trading_dates(5), np.full(5, 7.0))
    assert constancy_check(u, priced(0.001)).passes


@pytest.mark.parametrize("days", [make_days([(1.0, 1.0, 1.0, 1.0)] * 3), priced(*[math.nan] * 3)],
                         ids=["cut", "blank"])
def test_constancy_check_without_a_mean_price_is_an_error(days):
    u = TimeSeries(trading_dates(3), np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidArgumentError, match="^no mean price available$"):
        constancy_check(u, days)


@pytest.mark.parametrize("price", [5320.0, 0.1 + 0.2, 3e-300, 7e300, 2.0 ** -257, 2.0 ** 257])
def test_constancy_threshold_keeps_the_bits_of_the_unscaled_formula(price):
    # One priced day: the mean price is the price exactly.
    u = TimeSeries(trading_dates(3), np.array([1.0, 2.0, 3.0]))
    assert constancy_check(u, priced(price, math.nan, math.nan)).threshold == price * 100.0 / 100.0


def test_constancy_threshold_and_coverage_of_prices_near_the_float_limits():
    u = TimeSeries(trading_dates(3), np.array([1.0, 2.0, 3.0]))
    # price * 100 overflows, the threshold does not.
    assert constancy_check(u, priced(*[1e308] * 3)).threshold == pytest.approx(1e308, rel=1e-15)
    with pytest.raises(InvalidArgumentError,
                       match="^the mean price is outside the float range$"):
        constancy_check(u, priced(*[1e-310] * 3))
    rows = [(20000.0, 5.5, 6e6, 5.4e7)] * 3
    coverage = coverage_ratios(make_days(rows, price=1e308))
    assert coverage.money_coverage == pytest.approx(2e10 / 5.4e7 / 1e308, rel=1e-15)
    unit_price = coverage_ratios(make_days(rows, price=1.0))
    assert coverage.stock_utilization == unit_price.stock_utilization
    with pytest.raises(InvalidArgumentError,
                       match="^the money coverage is outside the float range$"):
        coverage_ratios(make_days(rows, price=1e-310))


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


def test_break_analysis_counts_days_before_any_break_date():
    dates = trading_dates(6)  # Tue Jan 3 .. Tue Jan 10, 2012
    u = TimeSeries(dates, np.array([1.0, 1.0, 1.0, 4.0, 4.0, 4.0]))
    trading_day = break_analysis(u, dates[3])
    assert (trading_day.mean_before, trading_day.mean_after) == (1.0, 4.0)
    # Sun Jan 8 lies in the weekend gap between Jan 6 and Jan 9.
    sunday = datetime.date(2012, 1, 8)
    assert break_analysis(u, sunday) == break_analysis(u, dates[4])
    assert break_analysis(u, sunday).mean_before == 1.75
    with pytest.raises(InvalidArgumentError, match="leaves 0 observations before "
                                                   "and 6 after"):
        break_analysis(u, dates[0] - datetime.timedelta(days=1))
    with pytest.raises(InvalidArgumentError, match="leaves 6 observations before "
                                                   "and 0 after"):
        break_analysis(u, dates[-1] + datetime.timedelta(days=1))


def test_break_analysis_constant_series_ratio_one():
    dates = trading_dates(8)
    u = TimeSeries(dates, np.full(8, 3.0))
    assert break_analysis(u, dates[4]).ratio == 1.0


def test_break_analysis_zero_mean_before_names_the_break_date():
    dates = trading_dates(6)
    u = TimeSeries(dates, np.array([0.0, 0.0, 0.0, 2.0, 2.0, 2.0]))
    with pytest.raises(DivisionDomainError,
                       match=f"^mean u before break date {dates[3]} is zero; "
                             f"the ratio is undefined$"):
        break_analysis(u, dates[3])
    # A zero mean after the break is a ratio of zero.
    assert break_analysis(TimeSeries(dates, u.values[::-1]), dates[3]).ratio == 0.0


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
    with pytest.raises(InvalidArgumentError, match="^no mean price available$") as exc_info:
        coverage_ratios(days)
    assert type(exc_info.value) is InvalidArgumentError
    with pytest.raises(InvalidArgumentError):
        coverage_ratios(make_days([]))
    with pytest.raises(InvalidArgumentError, match="^coverage_ratios needs at least one day$"):
        coverage_ratios(make_days([], price=5.0))
    zero_dep = make_days([(1.0, 1.0, 0.0, 0.0)], price=5.0)
    with pytest.raises(DivisionDomainError, match=str(zero_dep.dates[0])):
        coverage_ratios(zero_dep)
    two = make_days([(1.0, 1.0, 1e5, 1e6)] * 2, price=5.0)
    one_missing = dataclasses.replace(two, mean_price=np.array([5.0, math.nan]))
    with pytest.raises(InvalidDayError, match="^no mean price available$") as exc_info:
        coverage_ratios(one_missing)
    assert exc_info.value.date == two.dates[1].item()


@pytest.mark.parametrize("first", [[1e-310], [1e-310, 1e308]])
def test_coverage_past_the_float_range_of_one_far_price_is_an_error(first):
    # The column's largest price stays in the band or is scaled to it, so
    # the 1e-310 day's ratio overflows (or divides by the 0 it scales to):
    # the exact mean is past the float range, and no numpy warning is seen.
    days = make_days([(20000.0, 5.5, 6e6, 5.4e7)] * 3, price=500.0)
    prices = np.array(first + [500.0] * (3 - len(first)))
    with pytest.raises(InvalidArgumentError,
                       match="^the money coverage is outside the float range$"):
        coverage_ratios(dataclasses.replace(days, mean_price=prices))


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
    assert constancy_check(u_a, days_a) == constancy_check(u_b, days_b)
    assert coverage_ratios(days_a) == coverage_ratios(days_b)
    split = break_analysis(u_a, u_a.dates[8])
    assert split == break_analysis(u_b, u_b.dates[8])


def test_raw_series_share_the_frozen_columns():
    days = make_days([(100.0, 5.0, 10.0, 20.0), (110.0, 6.0, 12.0, 24.0)])
    for column, series in zip(("invest_i", "rate_r", "u_big_vol", "u_big_dep"),
                              days.series().values()):
        assert np.shares_memory(series.values, getattr(days, column))
        assert not series.values.flags.writeable


def test_frozen_columns_are_adopted_and_plain_arrays_copied():
    dates = trading_dates(3)
    frozen = np.array([1.0, 2.0, 3.0])
    plain = np.array([4.0, 5.0, 6.0])
    days = MarketData(dates, invest_i=_Frozen(frozen), rate_r=plain,
                      u_big_vol=plain, u_big_dep=plain)
    assert np.shares_memory(days.invest_i, frozen)
    assert not np.shares_memory(days.rate_r, plain)
    assert not days.invest_i.flags.writeable and plain.flags.writeable
    # An adopted column gets every check a copied one does.
    for bad in (-1.0, math.nan):
        with pytest.raises(InvalidDayError, match=f"invest_i .* on {dates[1]}") as exc_info:
            MarketData(dates, invest_i=_Frozen(np.array([1.0, bad, 3.0])),
                       rate_r=plain, u_big_vol=plain, u_big_dep=plain)
        assert exc_info.value.date == dates[1].item()
    with pytest.raises(InvalidArgumentError, match="one value per date"):
        MarketData(dates, invest_i=_Frozen(np.ones(2)), rate_r=plain,
                   u_big_vol=plain, u_big_dep=plain)


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
    for price in (0.0, -1.0, math.inf, -math.inf):
        with pytest.raises(InvalidArgumentError, match="^mean_price must be positive"):
            one_day(mean_price=[price])
    # Optional price may be absent, for all days or for one.
    one_day()
    one_day(mean_price=[math.nan])
    # The error names the first offending day.
    dates = trading_dates(3)
    with pytest.raises(InvalidArgumentError, match=str(dates[1])) as exc_info:
        one_day(dates=dates, invest_i=[1.0, -1.0, -2.0], rate_r=[1.0] * 3,
                u_big_vol=[1.0] * 3, u_big_dep=[1.0] * 3)
    assert exc_info.value.date == dates[1].item()
    assert type(exc_info.value.date) is datetime.date
    with pytest.raises(InvalidArgumentError, match="one value per date"):
        one_day(rate_r=[1.0, 2.0])
    with pytest.raises(ValueError):
        one_day().invest_i[0] = 2.0


def test_market_data_rejects_bad_calendars_with_their_messages():
    d = trading_dates(3)
    columns = dict(invest_i=[1.0] * 3, rate_r=[1.0] * 3, u_big_vol=[1.0] * 3,
                   u_big_dep=[1.0] * 3)
    for dates, match in [
        ((d[0], d[2], d[1]), f"strictly increasing: {d[2]} followed by {d[1]}"),
        ([d[0], d[1], d[1]], f"strictly increasing: {d[1]} followed by {d[1]}"),
        ((d[0], datetime.datetime(2012, 1, 4), d[2]), "must be datetime.date"),
    ]:
        with pytest.raises(InvalidArgumentError, match=match):
            MarketData(dates, **columns)
    # A checked calendar is not walked again, here or in the series built on it.
    days = MarketData(list(d), **columns)
    assert days.dates.dtype == np.dtype("datetime64[D]") and not days.dates.flags.writeable
    assert all(s.dates is days.dates for s in days.series().values())
    assert u_series(days, UVariant.BY_VOLUME).dates is days.dates
