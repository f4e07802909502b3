"""Tests for CSV ingestion, writing, and config files."""

import datetime
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specloss.dataio import (
    RunConfig,
    load_market_csv,
    load_series_csv,
    parse_config_file,
    write_market_csv,
    write_series_csv,
)
from specloss.errors import (
    CsvParseError,
    CsvSchemaError,
    CsvValidationError,
    InvalidArgumentError,
)
from specloss.market import MarketData
from specloss.series import TimeSeries, trading_dates
from specloss.synth import SynthConfig, gen_market_days, gen_random_walk


HEADER = "date,i_mrub,r_pct,u_big_vol,u_big_dep"


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_market_round_trip_is_exact(tmp_path):
    days = gen_market_days(SynthConfig(seed=17, n_days=60))
    path = str(tmp_path / "market.csv")
    write_market_csv(days, path)
    assert load_market_csv(path) == days


def test_market_round_trip_without_price(tmp_path):
    days = MarketData(
        dates=trading_dates(5), invest_i=np.arange(1.0, 6.0), rate_r=np.full(5, 5.5),
        u_big_vol=np.full(5, 1e5), u_big_dep=np.full(5, 1e6),
    )
    path = str(tmp_path / "noprice.csv")
    write_market_csv(days, path)
    first_line = (tmp_path / "noprice.csv").read_text(encoding="utf-8").splitlines()[0]
    assert first_line == HEADER
    assert load_market_csv(path) == days


def test_market_round_trip_with_gaps_in_price(tmp_path):
    days = MarketData(
        dates=trading_dates(4), invest_i=np.ones(4), rate_r=np.ones(4),
        u_big_vol=np.ones(4), u_big_dep=np.full(4, 2.0),
        mean_price=np.array([math.nan, 100.0, math.nan, 100.0]),
    )
    path = str(tmp_path / "gaps.csv")
    write_market_csv(days, path)
    loaded = load_market_csv(path)
    prices = [None if math.isnan(p) else p for p in loaded.mean_price.tolist()]
    assert prices == [None, 100.0, None, 100.0]


def test_market_rows_sorted_on_load(tmp_path):
    days = gen_market_days(SynthConfig(seed=18, n_days=40))
    path = str(tmp_path / "shuffled.csv")
    write_market_csv(days, path)
    lines = (tmp_path / "shuffled.csv").read_text(encoding="utf-8").splitlines()
    rng = np.random.default_rng(0)
    body = lines[1:]
    rng.shuffle(body)
    write_text(tmp_path / "shuffled.csv", "\n".join([lines[0]] + body) + "\n")
    assert load_market_csv(path) == days


def test_market_schema_errors(tmp_path):
    missing = write_text(tmp_path / "m.csv",
                         "date,i_mrub,r_pct,u_big_vol\n2012-01-03,1,1,1\n")
    with pytest.raises(CsvSchemaError, match="'u_big_dep' at position 5"):
        load_market_csv(missing)
    swapped = write_text(tmp_path / "s.csv",
                         "date,r_pct,i_mrub,u_big_vol,u_big_dep\n")
    with pytest.raises(CsvSchemaError, match="'i_mrub'"):
        load_market_csv(swapped)
    # A 7-column header never matches: the optional price column is only
    # recognized when the header has exactly 6 columns.
    extra = write_text(
        tmp_path / "e.csv",
        HEADER + ",mean_price_rub,bonus\n",
    )
    with pytest.raises(CsvSchemaError, match="extra column 'mean_price_rub'"):
        load_market_csv(extra)
    wrong_sixth = write_text(tmp_path / "w.csv", HEADER + ",bonus\n")
    with pytest.raises(CsvSchemaError,
                       match="'mean_price_rub' at position 6, got 'bonus'"):
        load_market_csv(wrong_sixth)
    empty = write_text(tmp_path / "empty.csv", "")
    with pytest.raises(CsvSchemaError, match="empty"):
        load_market_csv(empty)


def test_market_parse_errors_carry_line_numbers(tmp_path):
    bad_number = write_text(
        tmp_path / "n.csv",
        HEADER + "\n2012-01-03,1,1,1,2\n2012-01-04,1,oops,1,2\n",
    )
    with pytest.raises(CsvParseError) as exc_info:
        load_market_csv(bad_number)
    assert exc_info.value.line == 3
    # 20120103 and 2012-W01-3 pass date.fromisoformat from Python 3.11 on.
    for text in ("Jan 3", "20120103", "2012-W01-3", "2012-1-3"):
        bad_date = write_text(tmp_path / "d.csv", HEADER + f"\n{text},1,1,1,2\n")
        with pytest.raises(CsvParseError, match=f"invalid ISO date '{text}'") as exc_info:
            load_market_csv(bad_date)
        assert exc_info.value.line == 2
    short_row = write_text(tmp_path / "r.csv", HEADER + "\n2012-01-03,1,1,1\n")
    with pytest.raises(CsvParseError, match="fields"):
        load_market_csv(short_row)
    # Only an empty price cell means "no price"; the text nan is no number.
    nan_price = write_text(
        tmp_path / "p.csv", HEADER + ",mean_price_rub\n2012-01-03,1,1,1,2,nan\n"
    )
    with pytest.raises(CsvParseError, match="'nan'") as exc_info:
        load_market_csv(nan_price)
    assert exc_info.value.line == 2


def test_market_validation_errors_carry_dates(tmp_path):
    dup = write_text(
        tmp_path / "dup.csv",
        HEADER + "\n2012-01-03,1,1,1,2\n2012-01-03,2,2,2,3\n",
    )
    with pytest.raises(CsvValidationError) as exc_info:
        load_market_csv(dup)
    assert exc_info.value.date == datetime.date(2012, 1, 3)
    bad_day = write_text(
        tmp_path / "bad.csv",
        HEADER + "\n2012-01-03,1,1,9,2\n",
    )
    with pytest.raises(CsvValidationError, match="subset") as exc_info:
        load_market_csv(bad_day)
    assert exc_info.value.date == datetime.date(2012, 1, 3)


def test_market_blank_lines_ignored(tmp_path):
    path = write_text(
        tmp_path / "blank.csv",
        HEADER + "\n\n2012-01-03,1,1,1,2\n\n",
    )
    assert len(load_market_csv(path)) == 1


def test_series_round_trip_is_exact(tmp_path):
    a = gen_random_walk(1, 30, label="SER_A").with_name("A")
    b = gen_random_walk(2, 30, label="SER_B").with_name("B")
    path = str(tmp_path / "series.csv")
    write_series_csv([a, b], path)
    loaded = load_series_csv(path)
    assert [s.name for s in loaded] == ["A", "B"]
    assert loaded[0].dates == a.dates
    assert np.array_equal(loaded[0].values, a.values)
    assert np.array_equal(loaded[1].values, b.values)


def test_series_write_rejects_bad_input(tmp_path):
    a = gen_random_walk(1, 10, label="W_A").with_name("A")
    b = gen_random_walk(1, 12, label="W_B").with_name("B")
    path = str(tmp_path / "x.csv")
    with pytest.raises(InvalidArgumentError, match="aligned"):
        write_series_csv([a, b], path)
    with pytest.raises(InvalidArgumentError, match="unique"):
        write_series_csv([a, a], path)
    with pytest.raises(InvalidArgumentError):
        write_series_csv([], path)


def test_series_load_errors(tmp_path):
    not_date = write_text(tmp_path / "a.csv", "day,x\n2012-01-03,1\n")
    with pytest.raises(CsvSchemaError, match="'date'"):
        load_series_csv(not_date)
    no_cols = write_text(tmp_path / "b.csv", "date\n2012-01-03\n")
    with pytest.raises(CsvSchemaError, match="no series columns"):
        load_series_csv(no_cols)
    dup_col = write_text(tmp_path / "c.csv", "date,x,x\n")
    with pytest.raises(CsvSchemaError, match="duplicate"):
        load_series_csv(dup_col)
    dup_date = write_text(
        tmp_path / "d.csv", "date,x\n2012-01-03,1\n2012-01-03,2\n"
    )
    with pytest.raises(CsvValidationError):
        load_series_csv(dup_date)


def test_series_load_sorts_rows(tmp_path):
    path = write_text(
        tmp_path / "sorted.csv",
        "date,x\n2012-01-05,3\n2012-01-03,1\n2012-01-04,2\n",
    )
    series = load_series_csv(path)[0]
    assert list(series.values) == [1.0, 2.0, 3.0]
    assert series.dates == tuple(
        datetime.date(2012, 1, d) for d in (3, 4, 5)
    )


def test_parse_config_file(tmp_path):
    path = write_text(
        tmp_path / "run.cfg",
        "# comment line\n"
        "synth-seed = 42\n"
        "\n"
        "format=csv   # trailing comment\n"
        "note = a=b\n",
    )
    config = parse_config_file(path)
    assert config == {"synth-seed": "42", "format": "csv", "note": "a=b"}


def test_parse_config_file_errors(tmp_path):
    no_eq = write_text(tmp_path / "a.cfg", "just a line\n")
    with pytest.raises(CsvParseError) as exc_info:
        parse_config_file(no_eq)
    assert exc_info.value.line == 1
    dup = write_text(tmp_path / "b.cfg", "k = 1\nk = 2\n")
    with pytest.raises(CsvParseError, match="duplicate"):
        parse_config_file(dup)
    empty_key = write_text(tmp_path / "c.cfg", " = 3\n")
    with pytest.raises(CsvParseError, match="empty key"):
        parse_config_file(empty_key)


def test_run_config_validation():
    RunConfig(input_path=None, synth_seed=1)
    with pytest.raises(InvalidArgumentError):
        RunConfig(input_path=None, synth_seed=1, output_format="xml")
    with pytest.raises(InvalidArgumentError):
        RunConfig(input_path=None, synth_seed=1, max_lag=-2)


def test_market_blank_required_cell_fails_validation_naming_its_date(tmp_path):
    path = write_text(
        tmp_path / "blank_cell.csv",
        HEADER + "\n2012-01-03,1,1,1,2\n2012-01-04,1,,1,2\n",
    )
    with pytest.raises(CsvValidationError, match="rate_r") as exc_info:
        load_market_csv(path)
    assert exc_info.value.date == datetime.date(2012, 1, 4)


def test_series_blank_cell_fails_naming_its_date(tmp_path):
    path = write_text(
        tmp_path / "blank_cell.csv",
        "date,x,y\n2012-01-03,1,2\n2012-01-04,3, \n",
    )
    with pytest.raises(CsvValidationError, match="'y'.*2012-01-04") as exc_info:
        load_series_csv(path)
    assert exc_info.value.date == datetime.date(2012, 1, 4)


def test_market_blank_price_loads_as_nan(tmp_path):
    path = write_text(
        tmp_path / "price.csv",
        HEADER + ",mean_price_rub\n2012-01-03,1,1,1,2,\n"
        "2012-01-04,1,1,1,2, \n2012-01-05,1,1,1,2,100\n",
    )
    prices = load_market_csv(path).mean_price
    assert np.isnan(prices[:2]).all() and prices[2] == 100.0


@pytest.mark.parametrize("text", ["nan", "NaN", "-nan", " nan "])
def test_nan_text_is_a_parse_error_in_both_shapes(tmp_path, text):
    market = write_text(
        tmp_path / "m.csv", HEADER + f"\n2012-01-03,1,1,1,2\n2012-01-04,1,{text},1,2\n"
    )
    with pytest.raises(CsvParseError, match="'r_pct'") as exc_info:
        load_market_csv(market)
    assert exc_info.value.line == 3
    series = write_text(tmp_path / "s.csv", f"date,x\n2012-01-03,1\n2012-01-04,{text}\n")
    with pytest.raises(CsvParseError, match="'x'") as exc_info:
        load_series_csv(series)
    assert exc_info.value.line == 3


def test_bad_header_is_reported_before_a_bad_first_row(tmp_path):
    market = write_text(
        tmp_path / "m.csv", "date,i_mrub,r_pct,u_big_vol,bogus\nJan 3,x\n"
    )
    with pytest.raises(CsvSchemaError, match="'u_big_dep' at position 5"):
        load_market_csv(market)
    series = write_text(tmp_path / "s.csv", "day,x\nJan 3,1,2\n")
    with pytest.raises(CsvSchemaError, match="'date'"):
        load_series_csv(series)


def test_duplicate_date_out_of_order_names_its_first_line(tmp_path):
    market = write_text(
        tmp_path / "m.csv",
        HEADER + "\n2012-01-05,1,1,1,2\n\n2012-01-03,1,1,1,2\n"
        "2012-01-04,1,1,1,2\n2012-01-03,1,1,1,2\n",
    )
    with pytest.raises(CsvValidationError, match="first seen on line 4") as exc_info:
        load_market_csv(market)
    assert exc_info.value.date == datetime.date(2012, 1, 3)
    series = write_text(
        tmp_path / "s.csv",
        "date,x\n2012-01-05,1\n2012-01-04,2\n2012-01-05,3\n2012-01-04,4\n",
    )
    with pytest.raises(CsvValidationError, match="first seen on line 3") as exc_info:
        load_series_csv(series)
    assert exc_info.value.date == datetime.date(2012, 1, 4)


# Bytes written by the two writers before they shared one table writer.
FROZEN_MARKET = (
    b"date,i_mrub,r_pct,u_big_vol,u_big_dep,mean_price_rub\r\n"
    b"2012-01-03,20000.5,5.5,6000000.0,54000000.0,512.8\r\n"
    b"2012-01-04,0.30000000000000004,0.3333333333333333,1.0,1e+22,\r\n"
    b"2012-01-05,1e-300,0.0,2.0,2.0,1e-05\r\n"
)
FROZEN_SERIES = (
    b"date,A,X1\r\n"
    b"2012-01-03,0.1,0.3333333333333333\r\n"
    b"2012-01-04,-2.5e-08,1e+16\r\n"
    b"2012-01-05,123456789.123,-0.0\r\n"
)


def test_writers_match_frozen_bytes(tmp_path):
    days = MarketData(
        dates=trading_dates(3), invest_i=np.array([20000.5, 0.1 + 0.2, 1e-300]),
        rate_r=np.array([5.5, 1 / 3, 0.0]), u_big_vol=np.array([6e6, 1.0, 2.0]),
        u_big_dep=np.array([5.4e7, 1e22, 2.0]),
        mean_price=np.array([512.8, math.nan, 1e-5]),
    )
    market = tmp_path / "market.csv"
    write_market_csv(days, str(market))
    assert market.read_bytes() == FROZEN_MARKET
    a = TimeSeries(trading_dates(3), [0.1, -2.5e-8, 123456789.123], name="A")
    b = TimeSeries(trading_dates(3), [1 / 3, 1e16, -0.0])
    series = tmp_path / "series.csv"
    write_series_csv([a, b], str(series))
    assert series.read_bytes() == FROZEN_SERIES


# -- Round trip: what a writer writes, its reader gives back bit for bit ------

_PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                              database=None)
_EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308)


@st.composite
def _calendars(draw, max_days=12):
    """Strictly increasing dates, years 1 to about 9000."""
    start = draw(st.dates(max_value=datetime.date(9000, 1, 1)))
    gaps = draw(st.lists(st.integers(1, 400), min_size=0, max_size=max_days - 1))
    dates = [start]
    for gap in gaps:
        dates.append(dates[-1] + datetime.timedelta(days=gap))
    return tuple(dates)


def _finite(min_value=None):
    """Any finite float at or above ``min_value``, edge values drawn often."""
    edges = [v for v in _EDGE_FLOATS + tuple(-v for v in _EDGE_FLOATS)
             if min_value is None or v >= min_value]
    return st.one_of(st.sampled_from(edges),
                     st.floats(min_value=min_value, allow_nan=False, allow_infinity=False))


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


@st.composite
def _market_days(draw):
    dates = draw(_calendars())
    n = len(dates)
    columns = [draw(st.lists(_finite(0.0), min_size=n, max_size=n)) for _ in range(4)]
    pairs = [sorted(p) for p in zip(columns[2], columns[3])]  # u_big_vol <= u_big_dep
    price = None
    if draw(st.booleans()):
        price = draw(st.lists(
            st.one_of(st.just(math.nan),
                      st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
            min_size=n, max_size=n))
    return MarketData(dates, columns[0], columns[1], [p[0] for p in pairs],
                      [p[1] for p in pairs], price)


@_PROPERTY_SETTINGS
@given(days=_market_days())
def test_market_round_trip_is_bit_exact(tmp_path_factory, days):
    path = str(tmp_path_factory.mktemp("market") / "m.csv")
    write_market_csv(days, path)
    loaded = load_market_csv(path)
    assert loaded.dates == days.dates
    for name in ("invest_i", "rate_r", "u_big_vol", "u_big_dep"):
        assert _bits(getattr(loaded, name)) == _bits(getattr(days, name)), name
    if days.mean_price is None:
        assert loaded.mean_price is None
    else:
        assert _bits(loaded.mean_price) == _bits(days.mean_price)


@_PROPERTY_SETTINGS
@given(dates=_calendars(), data=st.data(),
       names=st.lists(st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,11}", fullmatch=True),
                      min_size=1, max_size=4, unique=True))
def test_series_round_trip_is_bit_exact(tmp_path_factory, dates, data, names):
    n = len(dates)
    series = [TimeSeries(dates, data.draw(st.lists(_finite(), min_size=n, max_size=n)),
                         name=name) for name in names]
    path = str(tmp_path_factory.mktemp("series") / "s.csv")
    write_series_csv(series, path)
    loaded = load_series_csv(path)
    assert [s.name for s in loaded] == names
    for want, got in zip(series, loaded):
        assert got.dates == dates
        assert _bits(got.values) == _bits(want.values), want.name
