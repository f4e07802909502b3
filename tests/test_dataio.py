"""Tests for CSV ingestion, writing, and config files."""

import csv
import datetime
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import gen_random_walk, write_series_csv
from specloss import dataio
from specloss.dataio import (
    load_market_csv,
    load_series_csv,
    parse_config_file,
    write_market_csv,
)
from specloss.errors import (
    CsvParseError,
    CsvSchemaError,
    CsvValidationError,
    InvalidArgumentError,
    SpeclossError,
)
from specloss.market import MarketData
from specloss.series import TimeSeries, _Frozen, trading_dates
from specloss.synth import gen_market_days


HEADER = "date,i_mrub,r_pct,u_big_vol,u_big_dep"


def write_text(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_market_round_trip_is_exact(tmp_path):
    days = gen_market_days(seed=17, n_days=60)
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


def test_writing_no_days_is_an_error_and_writes_no_file(tmp_path):
    days = MarketData(dates=(), invest_i=(), rate_r=(), u_big_vol=(), u_big_dep=())
    path = tmp_path / "empty.csv"
    with pytest.raises(InvalidArgumentError, match="^no days to write$"):
        write_market_csv(days, str(path))
    assert not path.exists()


def test_market_rows_sorted_on_load(tmp_path):
    days = gen_market_days(seed=18, n_days=40)
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
    assert np.array_equal(loaded[0].dates, a.dates)
    assert np.array_equal(loaded[0].values, a.values)
    assert np.array_equal(loaded[1].values, b.values)


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
    assert series.dates.tolist() == [datetime.date(2012, 1, d) for d in (3, 4, 5)]


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
    for data, line in ((b"maxlag=\xe9\n", 1), (b"maxlag=2\n# caf\xe9\n", 2)):
        latin1 = tmp_path / "d.cfg"
        latin1.write_bytes(data)
        with pytest.raises(CsvParseError, match="config line holds the byte 0xe9, "
                                                "which is not UTF-8") as exc_info:
            parse_config_file(str(latin1))
        assert exc_info.value.line == line


def test_parse_config_file_drops_a_leading_byte_order_mark(tmp_path):
    path = tmp_path / "bom.cfg"
    path.write_bytes(b"\xef\xbb\xbfmaxlag=3\nnote=\xef\xbb\xbf\n")
    assert parse_config_file(str(path)) == {"maxlag": "3", "note": "\ufeff"}


def test_data_csv_may_start_with_a_byte_order_mark_and_keeps_the_fast_path(tmp_path):
    days = gen_market_days(seed=4, n_days=300)
    plain, marked = tmp_path / "plain.csv", tmp_path / "bom.csv"
    write_market_csv(days, str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    # The C parser reads the body: no row goes through the row reader.
    with mock.patch.object(dataio, "_parse_date", side_effect=AssertionError("streamed")):
        assert load_market_csv(str(marked)) == days == load_market_csv(str(plain))
    # The row reader takes a marked file too, and so does the series loader.
    assert _streaming(load_market_csv, str(marked)) == days
    series = [TimeSeries(days.dates, days.rate_r, name="R")]
    write_series_csv(series, str(plain))
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert [s.name for s in load_series_csv(str(marked))] == ["R"]
    assert load_series_csv(str(marked)) == series


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
    assert np.array_equal(loaded.dates, days.dates)
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
        assert got.dates.tolist() == list(dates)
        assert _bits(got.values) == _bits(want.values), want.name


# -- The C-parsed fast path reads exactly what the streaming reader reads ------

def _streaming(load, path):
    """``load(path)`` with the fast path declining, so every row streams."""
    with mock.patch.object(dataio, "_read_body_fast", return_value=None):
        return load(path)


def _outcome(path, load=load_market_csv):
    """What loading a market (or, with ``load_series_csv``, a series) file
    gives: (error type, message, line, date), or (None, dates, column bits)."""
    try:
        loaded = load(path)
    except SpeclossError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "date", None)
    if isinstance(loaded, list):
        return None, loaded[0].dates.tolist(), [(s.name, _bits(s.values)) for s in loaded]
    columns = [loaded.invest_i, loaded.rate_r, loaded.u_big_vol, loaded.u_big_dep]
    if loaded.mean_price is not None:
        columns.append(loaded.mean_price)
    return None, loaded.dates.tolist(), [_bits(c) for c in columns]


_SPACE = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\x0c", "\xa0", "\u2003", "\u3000"])
_NUMBER = st.one_of(
    st.from_regex(r"[+-]?([0-9]{1,20}(\.[0-9]{0,20})?|\.[0-9]{1,20})([eE][+-]?[0-9]{1,3})?",
                  fullmatch=True),
    st.sampled_from(["inf", "-Infinity", "+iNf", "1e999", "-1e-999", "5e-324",
                     "2.4703282292062328e-324", "1e308", "-1.7976931348623157e308"]),
    _finite().map(repr),
    _finite().map("{:+.17e}".format),
    _finite().map("{:.17G}".format),
)


@_PROPERTY_SETTINGS
@given(dates=_calendars(), width=st.integers(1, 5), data=st.data(),
       newline=st.sampled_from(["\n", "\r\n"]))
def test_fast_path_parses_like_the_streaming_reader(tmp_path_factory, dates, width, data,
                                                    newline):
    header = "date," + ",".join(f"x{j}" for j in range(width))
    rows = data.draw(st.permutations([",".join([day.isoformat()] + [
        data.draw(_SPACE) + data.draw(_NUMBER) + data.draw(_SPACE) for _ in range(width)
    ]) for day in dates]))
    path = tmp_path_factory.mktemp("fast") / "f.csv"
    path.write_text(newline.join([header] + rows) + newline, encoding="utf-8")
    path = str(path)
    assert dataio._read_body_fast(path, width + 1) is not None
    fast = dataio._read_table(path, dataio._series_header_problem)
    slow = _streaming(lambda p: dataio._read_table(p, dataio._series_header_problem), path)
    assert fast[0] == slow[0]
    assert fast[1].values.tolist() == slow[1].values.tolist() == list(dates)
    assert _bits(fast[2]) == _bits(slow[2])


PRICE_HEADER = HEADER + ",mean_price_rub"
# 8,000 rows, 152 KB: longer than the csv module's default field size limit.
_LONG_BODY = "".join(f"{day.isoformat()},1,1,1,2\n" for day in trading_dates(8000).tolist())
_LIMIT = csv.field_size_limit()


@pytest.mark.parametrize("text, expected", [
    pytest.param(HEADER + "\n", None, id="header-only"),
    pytest.param(HEADER + "\n\n \r\n\t\n", None, id="blank-body"),
    pytest.param(HEADER + "\n#2012-01-03,1,1,1,2\n2012-01-04,1,1,1,2\n",
                 CsvParseError, id="hash-line"),
    pytest.param(HEADER + "\n2012-01-03,1,1,1,2\n\n2012-01-04,1,1,1,2\n",
                 None, id="blank-line"),
    pytest.param(HEADER + "\n2012-01-03,1,1,1,2\n   \n2012-01-04,1,1,1,2\n",
                 None, id="whitespace-line"),
    pytest.param(HEADER + '\n2012-01-03,"1",1,1,2\n', None, id="quoted-cell"),
    pytest.param(HEADER + "\n2012-01-03,1_0,1,1,2\n", None, id="underscore"),
    pytest.param(HEADER + "\n2012-01-03,\u0661\u0662,1,1,2\n",
                 None, id="unicode-digits"),
    pytest.param(HEADER + "\n2012-01-03,nan,1,1,2\n", CsvParseError, id="nan"),
    pytest.param(HEADER + "\n2012-01-03,inf,1,1,2\n", CsvValidationError, id="inf"),
    pytest.param(PRICE_HEADER + "\n2012-01-03,1,1,1,2,\n2012-01-04,1,1,1,2,5\n",
                 None, id="blank-price"),
    pytest.param(HEADER + "\nNaT,1,1,1,2\n", CsvParseError, id="NaT"),
    pytest.param(HEADER + "\n0000-01-01,1,1,1,2\n", CsvParseError, id="year-0"),
    pytest.param(HEADER + "\n10000-01-01,1,1,1,2\n", CsvParseError, id="year-10000"),
    pytest.param(HEADER + "\n 2012-01-03,1,1,1,2\n", None, id="padded-date"),
    pytest.param(HEADER + "\n2012-01,1,1,1,2\n", CsvParseError, id="year-month"),
    pytest.param(HEADER + "\n2012-01-03T00,1,1,1,2\n", CsvParseError, id="date-time"),
    pytest.param(HEADER + "\n2012-01-03Z,1,1,1,2\n", CsvParseError, id="date-zone"),
    pytest.param(HEADER + "\n2012-02-30,1,1,1,2\n", CsvParseError, id="day-out-of-range"),
    pytest.param(HEADER + "\n2012-13-01,1,1,1,2\n", CsvParseError, id="month-out-of-range"),
    pytest.param(HEADER + "\n\uff12012-01-03,1,1,1,2\n", CsvParseError, id="wide-digit"),
    pytest.param(HEADER + "\n2012/01/03,1,1,1,2\n", CsvParseError, id="slashes"),
    pytest.param(HEADER + "\n+012-01-03,1,1,1,2\n", CsvParseError, id="signed-year"),
    pytest.param(HEADER + "\n 012-01-03,1,1,1,2\n", CsvParseError, id="padded-year"),
    pytest.param(HEADER + "\n2012-01-03\x00,1,1,1,2\n", CsvParseError, id="nul"),
    pytest.param(HEADER + "\n2012-01-03,\x1c1\x1c,1,1,2\n",
                 CsvParseError, id="unit-separator"),
    pytest.param(HEADER + "\n2012-01-03,1,1,1,2,\n", CsvParseError, id="extra-field"),
    pytest.param(HEADER + "\n2012-01-03,1,1,1\n", CsvParseError, id="short-row"),
    pytest.param(HEADER + "\n2012-01-04,1,1,1,2\n2012-01-03,2,2,2,3\n",
                 None, id="out-of-order"),
    pytest.param(HEADER + "\n2012-01-03,1,1,1,2\n2012-01-03,2,2,2,3\n",
                 CsvValidationError, id="duplicate-date"),
    pytest.param(HEADER + "\n2012-01-05,1,1,1,2\n2012-01-04,1,1,1,2\n2012-01-05,2,2,2,3\n",
                 CsvValidationError, id="duplicate-date-out-of-order"),
    pytest.param(PRICE_HEADER + "\n2012-01-03,1,1,1,2,5\n2012-01-04,1,1,1,2,",
                 None, id="blank-price-last-cell"),
    pytest.param(PRICE_HEADER + "\n2012-01-03,1,1,1,2,5\r\n2012-01-04,,1,1,2,5\r\n",
                 CsvValidationError, id="blank-required-cell"),
    pytest.param(HEADER + "\r2012-01-03,1,1,1,2\r2012-01-04,1,1,1,2\r",
                 None, id="cr-newlines"),
    pytest.param(HEADER + "\n" + _LONG_BODY, None, id="past-field-limit"),
    pytest.param(HEADER + "\n2012-01-03,1" + "0" * (_LIMIT - 10) + ",1,1,2\n",
                 CsvValidationError, id="long-field"),
    pytest.param(HEADER + "\n2012-01-03,1" + "0" * _LIMIT + ",1,1,2\n",
                 CsvParseError, id="field-over-limit"),
    pytest.param(HEADER + "\n" + _LONG_BODY + "9999-01-01,1" + "0" * _LIMIT + ",1,1,2\n",
                 CsvParseError, id="field-over-limit-late"),
])
def test_fast_path_gives_todays_result_or_error(tmp_path, text, expected):
    """Each input loads, or fails with its message, as rows streamed alone did."""
    path = str(tmp_path / "m.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(path)
    assert caught == []  # a header-only file makes loadtxt warn
    assert got == _streaming(_outcome, path)
    assert got[0] is expected


# Good and bad bodies alike: the fast path's result, when it gives one, is
# the row reader's, and any error is the row reader's own.
# numpy's date parser takes the last four too, and "today" is a moving day.
_BAD_DATES = ("20120107", "2012-02-30", "2013-02-29", "2012-13-01", "2012-00-10",
              "2012-01-00", "0000-01-01", "NaT", "today", "-2012-01-03", "2012-01-03T00")
_BAD_CELLS = ("", " ", "1_0", "0x10", "1e400", '"1.5"', "\u0661\u0662", "nan",
              "1\x00", "\x001", "\x1c1", "1\x1d", "\x1e1\x1e", "1\x1f")
_BAD_LINES = ("", " ", "\t", "#2012-01-03,1,1,1,2")
# Each flaw once: a bad date, a bad cell, an extra line or a byte after a
# date, each of them; then a padded cell, a short or long row and a
# duplicate date.
_FLAWS = ([("date", text) for text in _BAD_DATES] + [("cell", text) for text in _BAD_CELLS]
          + [("line", text) for text in _BAD_LINES]
          + [("date-end", "\x00"), ("date-end", "\x1f")]
          + [("space", None), ("short-row", None), ("long-row", None), ("duplicate", None)])


@st.composite
def _mixed_file(draw, shape, flaw):
    """The text of a market or series file with ``flaw``, if any, and at
    most one more."""
    dates = draw(st.permutations(draw(_calendars())))
    number = st.floats(0.0, 1e6).map(repr)
    if shape == "market":
        price = draw(st.sampled_from([None, "5.5", ""]))  # "" is a blank price
        header = HEADER if price is None else PRICE_HEADER
        rows = []
        for day in dates:
            vol = draw(st.integers(0, 10**6))
            row = [day.isoformat(), draw(number), draw(number), str(vol),
                   str(vol + draw(st.integers(1, 10**6)))]
            rows.append(row if price is None else row + [draw(st.sampled_from([price, "1e2"]))])
    else:
        width = draw(st.integers(1, 3))
        header = "date," + ",".join(f"x{j}" for j in range(width))
        rows = [[day.isoformat()] + [repr(draw(_finite())) for _ in range(width)]
                for day in dates]
    lines = []
    flaws = [flaw] if flaw else []
    for kind, text in flaws + draw(st.lists(st.sampled_from(_FLAWS), max_size=1)):
        k = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(1, len(rows[k]) - 1)) if len(rows[k]) > 1 else 0
        if kind == "date":
            rows[k][0] = text
        elif kind == "date-end":
            rows[k][0] += text
        elif kind == "cell":
            rows[k][j] = text
        elif kind == "space":
            rows[k][j] = draw(_SPACE) + rows[k][j] + draw(_SPACE)
        elif kind == "short-row":
            rows[k] = rows[k][:-1]
        elif kind == "long-row":
            rows[k] = rows[k] + ["1"]
        elif kind == "duplicate":
            rows.insert(k, [draw(st.sampled_from(rows))[0]] + rows[k][1:])
        else:
            lines.append((k, text))
    body = [",".join(row) for row in rows]
    for k, line in lines:
        body.insert(k, line)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    bom = draw(st.sampled_from(["", "\ufeff"]))
    return bom + newline.join([header] + body) + draw(st.sampled_from([newline, ""]))


# Eight files for each flaw, 288 for each shape: every flaw is drawn in
# files otherwise sound, which a single draw over all flaws does not promise.
@settings(max_examples=8, deadline=None, derandomize=True, database=None)
@pytest.mark.parametrize("flaw", [None, *_FLAWS], ids=lambda flaw: "sound" if flaw is None
                         else flaw[0] if flaw[1] is None else f"{flaw[0]}-{ascii(flaw[1])[1:-1]}")
@pytest.mark.parametrize("shape", ["market", "series"])
@given(data=st.data())
def test_fast_path_and_row_reader_agree_on_good_and_bad_files(tmp_path_factory, shape, flaw,
                                                              data):
    path = tmp_path_factory.mktemp("mixed") / "m.csv"
    path.write_bytes(data.draw(_mixed_file(shape, flaw)).encode("utf-8"))
    load = load_market_csv if shape == "market" else load_series_csv
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = _outcome(str(path), load)
    assert caught == []
    assert got == _streaming(lambda p: _outcome(p, load), str(path))


def test_fast_path_sorts_rows_itself(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text(HEADER + "\n2012-01-05,3,1,1,2\n2012-01-03,1,1,1,2\n2012-01-04,2,1,1,2\n",
                    encoding="utf-8")
    dates, table = dataio._read_body_fast(str(path), 5)
    assert type(dates) is _Frozen and not dates.values.flags.writeable
    assert dates.values.tolist() == [datetime.date(2012, 1, d) for d in (3, 4, 5)]
    assert table[:, 0].tolist() == [1.0, 2.0, 3.0]


def test_calendar_from_digits_is_numpys_or_declines_where_numpy_raises(tmp_path):
    """numpy's parse of the fast path's 11 date bytes is the row reader's
    date, or raises where the row reader does, but in year 0000, which the
    row reader rejects and the fast path declines."""
    path = tmp_path / "m.csv"
    valid, parsed, year_zero = [], [], 0
    for year in ("0000", "0001", "0004", "1600", "1900", "2000", "2012", "2013", "2100",
                 "9999"):
        for month in range(20):
            for day in range(40):
                text = f"{year}-{month:02d}-{day:02d}"
                try:
                    want = dataio._parse_date(text)
                except ValueError:
                    want = None
                try:
                    got = np.array([text.encode("ascii")], "S11").astype("datetime64[D]")[0]
                except ValueError:
                    assert want is None, text
                    continue
                if want is None:
                    assert year == "0000", text
                    path.write_text(f"{HEADER}\n{text},1,1,1,2\n", encoding="utf-8")
                    assert dataio._read_body_fast(str(path), 5) is None, text
                    year_zero += 1
                    continue
                assert got == np.datetime64(want, "D"), text
                valid.append(text.encode("ascii"))
                parsed.append(want)
    assert year_zero == 366
    assert len(valid) == 9 * 365 + 4  # leap days in 0004, 1600, 2000 and 2012
    assert np.array_equal(np.array(valid, "S11").astype("datetime64[D]"),
                          np.array(parsed, "datetime64[D]"))


@pytest.mark.parametrize("text", [
    HEADER + "\n",
    HEADER + "\n\n\r\n \n",
    HEADER + "\n2012-01-03,1,,1,2\n",
    PRICE_HEADER + "\n2012-01-03,1,1,1,2,\n2012-01-04,1,1,1,2,5\n",
    PRICE_HEADER + "\r\n2012-01-03,1,1,1,2,5\r\n2012-01-04,1,1,1,2,\r\n",
    PRICE_HEADER + "\n2012-01-03,1,1,1,2,5\n2012-01-04,1,1,1,2,",
], ids=["header-only", "blank-body", "blank-cell", "blank-price", "blank-price-crlf",
        "blank-last-cell"])
def test_fast_path_declines_blank_bodies_and_cells_before_parsing(tmp_path, text):
    path = tmp_path / "m.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(np, "loadtxt", side_effect=AssertionError("parsed")):
        assert dataio._read_body_fast(str(path), len(text.split("\n")[0].split(","))) is None


_ROWS = "2012-01-03,1,1,1,2\n2012-01-04,1,1,1,2\n"  # lines of 18 bytes


@pytest.mark.parametrize("text, limit, declines", [
    pytest.param(HEADER + "\n" + _ROWS, _LIMIT, False, id="rows"),
    pytest.param(HEADER + "\n" + _ROWS, 18, False, id="rows-at-limit"),
    pytest.param(HEADER + "\n" + _ROWS, 17, True, id="rows-past-limit"),
    pytest.param(HEADER + "\r\n" + _ROWS.replace("\n", "\r\n")[:-2], 18, False, id="crlf"),
    pytest.param(HEADER + "\r\n" + _ROWS.replace("\n", "\r\n")[:-2], 17, True,
                 id="crlf-past-limit"),
    pytest.param(HEADER + "\r" + _ROWS.replace("\n", "\r"), _LIMIT, False, id="cr"),
    pytest.param(HEADER + "\n2012-01-03,1" + "0" * 20 + ",1,1,2\n" + _ROWS, 38, False,
                 id="long-line-at-limit"),
    pytest.param(HEADER + "\n2012-01-03,1" + "0" * 20 + ",1,1,2\n" + _ROWS, 37, True,
                 id="long-line-past-limit"),
    pytest.param(HEADER + "\n" + _ROWS + "2012-01-05,1,1,1,2" + "0" * 20, 37, True,
                 id="long-last-line"),
    pytest.param(HEADER + "\n" + _ROWS + "2012-01-05,1,,1,2\n", _LIMIT, True, id="empty-cell"),
    pytest.param(HEADER + "\n" + _ROWS + "2012-01-05,1,1,1,\n", _LIMIT, True,
                 id="empty-cell-at-line-end"),
    pytest.param(HEADER + "\n" + _ROWS + "2012-01-05,1,1,1,", _LIMIT, True, id="ends-with-comma"),
    pytest.param(HEADER + "\n" + _ROWS + "2012-01-05,1,1,1,2\x00\n", _LIMIT, True, id="nul"),
    pytest.param(HEADER + "\n \n\t\r\n", _LIMIT, True, id="blank-body"),
    pytest.param(HEADER + "\n", _LIMIT, True, id="header-only"),
    pytest.param(HEADER, _LIMIT, True, id="no-line-break"),
])
def test_body_scan_decides_alike_at_every_block_size(tmp_path, text, limit, declines):
    """The block edges may fall anywhere, even inside the header."""
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("ascii"))
    old_limit = csv.field_size_limit(limit)
    try:
        for block in (1, 2, 3, 5, 8, 13, dataio._SCAN_BYTES):
            with mock.patch.object(dataio, "_SCAN_BYTES", block), open(path, "rb") as raw:
                assert dataio._loadtxt_may_differ(raw) is declines, block
    finally:
        csv.field_size_limit(old_limit)


# -- Bytes that are not UTF-8 ---------------------------------------------------

_GOOD_ROWS = "".join(f"{day.isoformat()},1,1,1,2\n" for day in trading_dates(3000).tolist())


@pytest.mark.parametrize("text, line, where", [
    pytest.param(HEADER + "\n2012-01-03,1,1,1,2\n2012-01-04,1\xe9,1,1,2\n",
                 3, "column 'i_mrub'", id="value-cell"),
    pytest.param(HEADER + "\n2012-01-03\xe9,1,1,1,2\n", 2, "column 'date'", id="date-cell"),
    pytest.param(HEADER + "\xe9\n2012-01-03,1,1,1,2\n", 1, "the header", id="header"),
    # Past the text layer's read-ahead, which once raised on an earlier line.
    pytest.param(HEADER + "\n" + _GOOD_ROWS + "9999-01-01,1,1,1,2\xe9\n",
                 3002, "column 'u_big_dep'", id="late-row"),
])
def test_non_utf8_byte_is_a_parse_error_naming_its_line(tmp_path, text, line, where):
    path = tmp_path / "m.csv"
    path.write_bytes(text.encode("latin-1"))
    assert dataio._read_body_fast(str(path), 5) is None
    for load in (load_market_csv, load_series_csv):
        with pytest.raises(CsvParseError, match=f"{where} holds the byte 0xe9, "
                                                "which is not UTF-8") as exc_info:
            load(str(path))
        assert exc_info.value.line == line
