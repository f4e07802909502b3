"""CSV ingestion and emission, plus run configuration.

Two file shapes exist.  Market files hold one validated MarketData, a
trading day per row, under the fixed header
``date,i_mrub,r_pct,u_big_vol,u_big_dep`` with an optional trailing
``mean_price_rub``.  Series files are generic: a ``date`` column plus one
named column per series, written in shortest round-trip decimal form so
load(write(x)) is bit-exact.  Both shapes go through one reader and one
writer.  An empty value cell reads as NaN and a NaN writes as an empty
cell; the text ``nan`` is never a value.  Whether a NaN may stand is the
data type's decision: MarketData allows it only as a missing price,
TimeSeries nowhere, and either names the date of a cell it rejects.  All
numbers use "." as the decimal separator regardless of locale;
normalization of locale-specific source data belongs outside, at this
boundary's callers.
"""

from __future__ import annotations

import array
import csv
import datetime
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    CsvParseError,
    CsvSchemaError,
    CsvValidationError,
    InvalidArgumentError,
    InvalidDayError,
)
from .market import MarketData
from .series import TimeSeries

__all__ = [
    "RunConfig",
    "load_market_csv",
    "write_market_csv",
    "load_series_csv",
    "write_series_csv",
    "parse_config_file",
]

MARKET_COLUMNS = ("date", "i_mrub", "r_pct", "u_big_vol", "u_big_dep")
MARKET_PRICE_COLUMN = "mean_price_rub"


@dataclass(frozen=True)
class RunConfig:
    """Settings of one pipeline run (CLI flags or config-file keys)."""

    input_path: str | None = None
    synth_seed: int | None = None
    i_scale: float = 1.0
    r_scale: float = 1.0
    break_date: datetime.date = datetime.date(2012, 5, 10)
    max_lag: int = 5
    output_format: str = "text"

    def __post_init__(self) -> None:
        if self.i_scale <= 0 or self.r_scale <= 0:
            raise InvalidArgumentError(
                f"unit scalings must be positive, got i_scale={self.i_scale}, "
                f"r_scale={self.r_scale}"
            )
        if self.max_lag < 0:
            raise InvalidArgumentError(f"max_lag must be >= 0, got {self.max_lag}")
        if self.output_format not in ("text", "csv"):
            raise InvalidArgumentError(
                f"output_format must be 'text' or 'csv', got {self.output_format!r}"
            )


def _parse_cell(text: str, column: str, line_no: int) -> float:
    """A value cell: a number, or NaN when empty; the text ``nan`` is neither."""
    try:
        value = float(text)
        if value == value:
            return value
    except ValueError:
        if not text.strip():
            return math.nan
    raise CsvParseError(
        f"column {column!r} has non-numeric value {text.strip()!r}", line=line_no
    )


def _parse_date(text: str) -> datetime.date:
    """A date written as YYYY-MM-DD, in files, flags and config keys alike.

    Only text equal to the date's own ``isoformat()`` is a date.  From
    Python 3.11 on ``date.fromisoformat`` also takes the basic and week
    forms (``20120103``, ``2012-W01-3``, ...); of all the forms it takes,
    only YYYY-MM-DD has ten characters with "-" at index 7.  Checking that
    shape costs far less per CSV row than formatting the date again.
    """
    try:
        day = datetime.date.fromisoformat(text)
    except ValueError:
        day = None
    if day is None or len(text) != 10 or text[7] != "-":
        raise ValueError(f"not an ISO date: {text!r}")
    return day


def _read_table(
    path: str, header_problem: Callable[[list[str]], str | None]
) -> tuple[list[str], tuple[datetime.date, ...], np.ndarray]:
    """Header, increasing dates and a float64 (rows, columns) table of a file.

    ``header_problem`` sees the stripped header before any row is read and
    returns what is wrong with it, if anything.  The first column holds
    ISO dates; every other cell parses alike, an empty one as NaN.  Each
    row's numbers go straight into one flat float64 buffer as the row is
    read, so no cell text outlives its row.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise CsvSchemaError(f"{path}: file is empty, header row required") from None
        problem = header_problem(header)
        if problem is not None:
            raise CsvSchemaError(f"{path}: {problem}")
        names = header[1:]
        dates: list[datetime.date] = []
        lines = array.array("q")
        values = array.array("d")
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=line_no
                )
            try:
                dates.append(_parse_date(row[0].strip()))
            except ValueError:
                raise CsvParseError(f"column 'date' has invalid ISO date "
                                    f"{row[0].strip()!r}", line=line_no) from None
            lines.append(line_no)
            values.extend([_parse_cell(cell, name, line_no)
                           for name, cell in zip(names, row[1:])])
    # A stable sort keeps repeated dates in file order, so the first of
    # two equal neighbours is the date's first occurrence.
    order = sorted(range(len(dates)), key=dates.__getitem__)
    for first, again in zip(order, order[1:]):
        if dates[first] == dates[again]:
            raise CsvValidationError(
                f"duplicate date (first seen on line {lines[first]})",
                date=dates[again],
            )
    table = np.frombuffer(values, dtype=np.float64).reshape(len(dates), len(names))
    return header, tuple(dates[i] for i in order), table[order]


def _write_table(
    path: str, header: list[str], dates: Sequence[datetime.date],
    columns: Sequence[np.ndarray],
) -> None:
    """Write a date column plus value columns; NaN becomes an empty cell."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        # tolist() yields Python floats, whose repr is the shortest
        # round-trip form (a numpy scalar would repr as np.float64(...)).
        for day_date, *values in zip(dates, *(c.tolist() for c in columns)):
            writer.writerow(
                [day_date.isoformat()] + ["" if v != v else repr(v) for v in values]
            )


def _market_header_problem(header: list[str]) -> str | None:
    expected = list(MARKET_COLUMNS)
    if len(header) == len(MARKET_COLUMNS) + 1:
        expected.append(MARKET_PRICE_COLUMN)
    for i, name in enumerate(expected):
        if i >= len(header) or header[i] != name:
            got = header[i] if i < len(header) else "nothing"
            return f"expected column {name!r} at position {i + 1}, got {got!r}"
    if len(header) > len(expected):
        return f"unexpected extra column {header[len(expected)]!r}"
    return None


def load_market_csv(path: str) -> MarketData:
    """Read and validate a market data file; rows come back date-sorted."""
    _, dates, table = _read_table(path, _market_header_problem)
    try:
        # The file's value columns are MarketData's fields, in order.
        return MarketData(dates, *table.T)
    except InvalidDayError as exc:
        raise CsvValidationError(str(exc), date=exc.date) from None


def write_market_csv(days: MarketData, path: str) -> None:
    """Write market data in the market schema (price column if any)."""
    if not days:
        raise InvalidArgumentError("no days to write")
    columns = [days.invest_i, days.rate_r, days.u_big_vol, days.u_big_dep]
    header = list(MARKET_COLUMNS)
    if days.mean_price is not None:
        columns.append(days.mean_price)
        header.append(MARKET_PRICE_COLUMN)
    _write_table(path, header, days.dates, columns)


def write_series_csv(series: list[TimeSeries], path: str) -> None:
    """Write aligned named series as date plus one column each."""
    if not series:
        raise InvalidArgumentError("no series to write")
    dates = series[0].dates
    for s in series[1:]:
        if s.dates != dates:
            raise InvalidArgumentError(
                f"series {s.name!r} is not aligned with {series[0].name!r}"
            )
    names = [s.name or f"X{i}" for i, s in enumerate(series)]
    if len(set(names)) != len(names):
        raise InvalidArgumentError(f"series names must be unique, got {names}")
    _write_table(path, ["date"] + names, dates, [s.values for s in series])


def _series_header_problem(header: list[str]) -> str | None:
    if not header or header[0] != "date":
        return "first column must be 'date'"
    if len(header) < 2:
        return "no series columns after 'date'"
    if len(set(header[1:])) != len(header) - 1:
        return "duplicate series column names"
    return None


def load_series_csv(path: str) -> list[TimeSeries]:
    """Read a series file back; any date-headed numeric CSV qualifies."""
    header, dates, table = _read_table(path, _series_header_problem)
    out = []
    for name, column in zip(header[1:], table.T):
        try:
            out.append(TimeSeries(dates, column, name=name))
        except InvalidDayError as exc:
            raise CsvValidationError(f"column {name!r}: {exc}", date=exc.date) from None
    return out


def parse_config_file(path: str) -> dict[str, str]:
    """Read key=value lines; '#' starts a comment, blank lines ignored.

    Keys use the CLI's long-flag spelling (e.g. ``maxlag``,
    ``break-date``); values stay strings for the CLI layer to interpret.
    """
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as handle:
        for line_no, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CsvParseError(
                    f"config line is not key=value: {raw.strip()!r}", line=line_no
                )
            key, value = line.split("=", 1)
            key = key.strip()
            value = value.strip()
            if not key:
                raise CsvParseError("config line has empty key", line=line_no)
            if key in out:
                raise CsvParseError(f"duplicate config key {key!r}", line=line_no)
            out[key] = value
    return out
