"""Tests for the TimeSeries container and its transforms."""

import datetime
import gc
import math
import tracemalloc

import numpy as np
import pytest

from specloss.errors import AlignmentError, InvalidArgumentError
from specloss.series import (
    TimeSeries,
    _Frozen,
    align,
    check_dates,
    diff,
    mean,
    stddev,
    trading_dates,
)


def make_series(values, start=datetime.date(2012, 1, 3), name="X"):
    return TimeSeries(trading_dates(len(values), start), np.array(values, dtype=float),
                      name=name)


def test_constructor_copies_and_freezes_values():
    src = np.array([1.0, 2.0, 3.0])
    s = make_series([1.0, 2.0, 3.0])
    src[0] = 99.0
    assert s.values[0] == 1.0
    assert not s.values.flags.writeable
    with pytest.raises(ValueError):
        s.values[0] = 5.0


def test_constructor_copies_a_callers_array_whatever_its_flags():
    arr = np.array([1.0, 2.0, 3.0])
    s = TimeSeries(trading_dates(3), arr)
    arr[0] = 99.0
    assert list(s.values) == [1.0, 2.0, 3.0]
    arr.flags.writeable = False
    frozen = TimeSeries(trading_dates(3), arr)
    arr.flags.writeable = True
    arr[1] = 42.0
    assert list(frozen.values) == [99.0, 2.0, 3.0]
    for series in (s, frozen):
        assert not np.shares_memory(series.values, arr)
        assert not series.values.flags.writeable


def test_library_series_share_the_arrays_they_are_built_from():
    s = make_series([1.0, 4.0, 9.0, 16.0], name="SQ")
    renamed = s.with_name("Y")
    assert np.shares_memory(renamed.values, s.values)
    assert not renamed.values.flags.writeable
    # diff keeps the one array it makes, with no copy of it, on a view of
    # the calendar.
    n = 100_000
    long = make_series(np.arange(n, dtype=float))
    gc.collect()
    tracemalloc.start()
    try:
        d = diff(long)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * n
    assert not d.values.flags.writeable
    with pytest.raises(ValueError):
        d.values[0] = 5.0


def test_constructor_accepts_lists_and_casts_to_float64():
    s = TimeSeries(trading_dates(3), [1, 2, 3])
    assert s.values.dtype == np.float64
    assert list(s.values) == [1.0, 2.0, 3.0]


def test_length_mismatch_rejected():
    with pytest.raises(InvalidArgumentError, match="differ in length"):
        TimeSeries(trading_dates(3), np.array([1.0, 2.0]))


def test_dates_must_strictly_increase():
    d = trading_dates(3)
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        TimeSeries((d[0], d[2], d[1]), np.zeros(3))
    with pytest.raises(InvalidArgumentError, match="strictly increasing"):
        TimeSeries((d[0], d[0], d[1]), np.zeros(3))


def test_datetime_instances_rejected():
    dates = (datetime.datetime(2012, 1, 3, 10, 0), datetime.datetime(2012, 1, 4, 10, 0))
    with pytest.raises(InvalidArgumentError, match="datetime.date"):
        TimeSeries(dates, np.zeros(2))


def test_non_finite_values_rejected_with_date():
    d = trading_dates(3)
    with pytest.raises(InvalidArgumentError, match=str(d[1])):
        TimeSeries(d, np.array([1.0, math.nan, 2.0]))
    with pytest.raises(InvalidArgumentError,
                       match=f"^non-finite value inf at {d[2]}; series values must be finite$"):
        TimeSeries(d, np.array([1.0, 2.0, math.inf]))


def test_two_dimensional_values_rejected():
    with pytest.raises(InvalidArgumentError, match="one-dimensional"):
        TimeSeries(trading_dates(2), np.zeros((2, 1)))


def test_with_name_keeps_data():
    s = make_series([1.0, 2.0], name="A")
    t = s.with_name("B")
    assert t.name == "B"
    assert t.dates is s.dates
    assert np.array_equal(t.values, s.values)


def test_diff_values_dates_and_name():
    s = make_series([1.0, 4.0, 9.0, 16.0], name="SQ")
    d = diff(s)
    assert list(d.values) == [3.0, 5.0, 7.0]
    assert np.array_equal(d.dates, s.dates[1:])
    assert d.name == "D(SQ)"


def test_diff_rejects_bad_order():
    # A first difference needs two values.
    with pytest.raises(InvalidArgumentError, match="at least 2 values, got 1"):
        diff(make_series([1.0]))


def test_diff_inverts_cumulative_sum():
    rng = np.random.default_rng(7)
    for case in range(10):
        values = np.cumsum(rng.standard_normal(50))
        s = make_series(values)
        d = diff(s)
        rebuilt = values[0] + np.cumsum(d.values)
        assert np.allclose(rebuilt, values[1:], rtol=0, atol=1e-12)


def test_mean_and_stddev_match_numpy():
    rng = np.random.default_rng(11)
    for case in range(10):
        values = rng.uniform(-5.0, 5.0, size=30)
        s = make_series(values)
        assert math.isclose(mean(s), float(np.mean(values)), rel_tol=1e-12)
        assert math.isclose(stddev(s), float(np.std(values, ddof=1)), rel_tol=1e-12)


def test_stddev_uses_sample_divisor():
    s = make_series([1.0, 2.0, 3.0, 4.0])
    assert math.isclose(stddev(s), math.sqrt(5.0 / 3.0), rel_tol=1e-14)


def test_mean_stddev_degenerate_inputs():
    with pytest.raises(InvalidArgumentError):
        mean(TimeSeries((), np.array([])))
    with pytest.raises(InvalidArgumentError):
        stddev(make_series([1.0]))


def test_align_restricts_to_common_dates():
    a = make_series([1.0, 2.0, 3.0, 4.0])
    # b starts one trading day later, so its last date is past a's range.
    later = trading_dates(1, a.dates[-1].item() + datetime.timedelta(days=1))
    b = TimeSeries(np.concatenate([a.dates[1:], later]),
                   np.array([20.0, 30.0, 40.0, 50.0]), name="B")
    out_a, out_b = align(a, b)
    assert np.array_equal(out_a.dates, a.dates[1:])
    assert np.array_equal(out_b.dates, a.dates[1:])
    assert list(out_a.values) == [2.0, 3.0, 4.0]
    assert list(out_b.values) == [20.0, 30.0, 40.0]


def test_align_identical_calendars_returns_same_objects():
    a = make_series([1.0, 2.0])
    b = make_series([3.0, 4.0], name="B")
    out = align(a, b)
    assert out[0] is a and out[1] is b


def test_align_disjoint_calendars_raises():
    a = make_series([1.0, 2.0], start=datetime.date(2012, 1, 3))
    b = make_series([1.0, 2.0], start=datetime.date(2013, 1, 3))
    with pytest.raises(AlignmentError):
        align(a, b)


def test_align_shared_empty_calendar_raises():
    empty = TimeSeries((), np.array([]), name="E")
    with pytest.raises(AlignmentError):
        align(empty, empty.with_name("F"))


def test_trading_dates_skip_weekends():
    dates = trading_dates(5)
    assert dates.dtype == np.dtype("datetime64[D]")
    assert dates.tolist() == [
        datetime.date(2012, 1, 3),
        datetime.date(2012, 1, 4),
        datetime.date(2012, 1, 5),
        datetime.date(2012, 1, 6),
        datetime.date(2012, 1, 9),
    ]
    assert all(d.weekday() < 5 for d in trading_dates(100).tolist())


def test_trading_dates_needs_positive_n():
    with pytest.raises(InvalidArgumentError):
        trading_dates(0)


def test_checked_calendar_is_checked_once_and_kept_by_transforms():
    s = make_series([1.0, 4.0, 9.0, 16.0, 25.0])
    assert s.dates.dtype == np.dtype("datetime64[D]") and s.dates.ndim == 1
    assert not s.dates.flags.writeable
    # A calendar the library wraps is its own, so it is kept unchecked.
    assert check_dates(_Frozen(s.dates)) is s.dates
    assert s.with_name("Y").dates is s.dates
    d = diff(s).dates
    assert np.shares_memory(d, s.dates) and np.array_equal(d, s.dates[1:])
    other = make_series([1.0, 2.0, 3.0], start=s.dates[2].item())
    a, b = align(s, other)
    assert b is other and np.array_equal(a.dates, other.dates)
    assert not a.dates.flags.writeable


def test_a_callers_calendar_is_copied_and_checked():
    days = trading_dates(3)
    s = TimeSeries(days, np.zeros(3))
    assert not np.shares_memory(s.dates, days)
    days[0] = days[2]
    assert s.dates.tolist()[0] == datetime.date(2012, 1, 3)
    assert TimeSeries(list(s.dates), np.zeros(3)) == s  # datetime64[D] scalars
    assert TimeSeries(s.dates.tolist(), np.zeros(3)) == s  # datetime.date values
    for dates, match in [
        (s.dates.astype("datetime64[s]"), "datetime.date, got datetime64\\[s\\]"),
        (np.array(["2012-01-03", "NaT", "2012-01-05"], dtype="datetime64[D]"),
         "strictly increasing: 2012-01-03 followed by NaT"),
        (np.array(["0000-12-30", "0001-01-01", "0001-01-02"], dtype="datetime64[D]"),
         "years 1 to 9999, got 0000-12-30 to 0001-01-02"),
        (np.array(["9999-12-30", "9999-12-31", "10000-01-01"], dtype="datetime64[D]"),
         "years 1 to 9999, got 9999-12-30 to 10000-01-01"),
        (s.dates.reshape(3, 1), "one-dimensional"),
    ]:
        with pytest.raises(InvalidArgumentError, match=match):
            TimeSeries(dates, np.zeros(3))
    with pytest.raises(InvalidArgumentError, match="got NaT to NaT"):
        TimeSeries(np.array(["NaT"], dtype="datetime64[D]"), [1.0])


def test_series_compare_by_dates_and_values_and_are_unhashable():
    d = trading_dates(3)
    a = TimeSeries(d, [1.0, 2.0, 3.0], name="A")
    assert a == TimeSeries(d, [1.0, 2.0, 3.0])  # the name does not count
    assert a != TimeSeries(d, [1.0, 2.0, 4.0])
    assert a != TimeSeries(trading_dates(3, datetime.date(2013, 1, 3)), [1.0, 2.0, 3.0])
    assert a != TimeSeries(d[:2], [1.0, 2.0])
    assert a != (d, [1.0, 2.0, 3.0])
    assert TimeSeries((), []) == TimeSeries((), [])
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_plain_dates_keep_every_check_and_message():
    d = trading_dates(3)
    reversed_checked = TimeSeries(d, np.zeros(3)).dates[::-1]
    for dates, match in [
        ([d[1], d[0], d[2]], f"strictly increasing: {d[1]} followed by {d[0]}"),
        ((d[0], d[1], d[1]), "strictly increasing"),
        (reversed_checked, "strictly increasing"),
        ((d[0], "2012-01-04", d[2]), "must be datetime.date, got '2012-01-04'"),
    ]:
        with pytest.raises(InvalidArgumentError, match=match):
            TimeSeries(dates, np.zeros(3))
