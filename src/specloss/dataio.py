"""CSV ingestion and emission, plus run configuration.

Two file shapes exist.  Market files hold one validated MarketData, a
trading day per row, under the fixed header
``date,i_mrub,r_pct,u_big_vol,u_big_dep`` with an optional trailing
``mean_price_rub``.  Series files are generic: a ``date`` column plus one
named column per series, written in shortest round-trip decimal form so
load(write(x)) is bit-exact.  All numbers use "." as the decimal separator
regardless of locale; normalization of locale-specific source data belongs
outside, at this boundary's callers.
"""

from __future__ import annotations

import csv
import datetime
import math
from dataclasses import dataclass

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


def _parse_float(text: str, column: str, line_no: int) -> float:
    try:
        value = float(text)
        if math.isnan(value):  # NaN marks an empty price cell, never a value
            raise ValueError(text)
        return value
    except ValueError:
        raise CsvParseError(
            f"column {column!r} has non-numeric value {text!r}", line=line_no
        ) from None


def _parse_date(text: str, line_no: int) -> datetime.date:
    try:
        return datetime.date.fromisoformat(text)
    except ValueError:
        raise CsvParseError(
            f"column 'date' has invalid ISO date {text!r}", line=line_no
        ) from None


def load_market_csv(path: str) -> MarketData:
    """Read and validate a market data file; rows come back date-sorted."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvSchemaError(f"{path}: file is empty, header row required") from None
        header = [h.strip() for h in header]
        expected = list(MARKET_COLUMNS)
        if len(header) == len(MARKET_COLUMNS) + 1:
            expected.append(MARKET_PRICE_COLUMN)
        for i, name in enumerate(expected):
            if i >= len(header) or header[i] != name:
                raise CsvSchemaError(
                    f"{path}: expected column {name!r} at position {i + 1}, "
                    f"got {header[i] if i < len(header) else 'nothing'!r}"
                )
        if len(header) > len(expected):
            raise CsvSchemaError(
                f"{path}: unexpected extra column {header[len(expected)]!r}"
            )
        has_price = len(header) == len(MARKET_COLUMNS) + 1

        dates: list[datetime.date] = []
        rows: list[list[float]] = []
        seen: dict[datetime.date, int] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=line_no
                )
            day_date = _parse_date(row[0].strip(), line_no)
            if day_date in seen:
                raise CsvValidationError(
                    f"duplicate date (first seen on line {seen[day_date]})",
                    date=day_date,
                )
            seen[day_date] = line_no
            numbers = [
                _parse_float(row[i].strip(), header[i], line_no)
                for i in range(1, len(MARKET_COLUMNS))
            ]
            if has_price:
                cell = row[len(MARKET_COLUMNS)].strip()
                numbers.append(
                    _parse_float(cell, MARKET_PRICE_COLUMN, line_no) if cell else math.nan
                )
            dates.append(day_date)
            rows.append(numbers)
    order = sorted(range(len(dates)), key=dates.__getitem__)
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - 1)[order]
    try:
        # The file's value columns are MarketData's fields, in order.
        return MarketData(tuple(dates[i] for i in order), *table.T)
    except InvalidDayError as exc:
        raise CsvValidationError(str(exc), date=exc.date) from None


def write_market_csv(days: MarketData, path: str) -> None:
    """Write market data in the market schema (price column if any)."""
    if not days:
        raise InvalidArgumentError("no days to write")
    has_price = days.mean_price is not None
    header = list(MARKET_COLUMNS) + ([MARKET_PRICE_COLUMN] if has_price else [])
    columns = [days.invest_i, days.rate_r, days.u_big_vol, days.u_big_dep, days.mean_price]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        # tolist() yields Python floats, whose repr is the shortest
        # round-trip form (a numpy scalar would repr as np.float64(...)).
        for day_date, *values in zip(days.dates, *(c.tolist() for c in columns if c is not None)):
            writer.writerow(
                [day_date.isoformat()]
                + ["" if math.isnan(v) else repr(v) for v in values]
            )


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
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date"] + names)
        for i, day_date in enumerate(dates):
            writer.writerow(
                [day_date.isoformat()] + [repr(float(s.values[i])) for s in series]
            )


def load_series_csv(path: str) -> list[TimeSeries]:
    """Read a series file back; any date-headed numeric CSV qualifies."""
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvSchemaError(f"{path}: file is empty, header row required") from None
        header = [h.strip() for h in header]
        if not header or header[0] != "date":
            raise CsvSchemaError(f"{path}: first column must be 'date'")
        if len(header) < 2:
            raise CsvSchemaError(f"{path}: no series columns after 'date'")
        names = header[1:]
        if len(set(names)) != len(names):
            raise CsvSchemaError(f"{path}: duplicate series column names")
        dates: list[datetime.date] = []
        columns: list[list[float]] = [[] for _ in names]
        seen: dict[datetime.date, int] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} fields, got {len(row)}", line=line_no
                )
            day_date = _parse_date(row[0].strip(), line_no)
            if day_date in seen:
                raise CsvValidationError(
                    f"duplicate date (first seen on line {seen[day_date]})",
                    date=day_date,
                )
            seen[day_date] = line_no
            dates.append(day_date)
            for i, name in enumerate(names):
                columns[i].append(_parse_float(row[i + 1].strip(), name, line_no))
    order = sorted(range(len(dates)), key=lambda i: dates[i])
    sorted_dates = tuple(dates[i] for i in order)
    return [
        TimeSeries(
            dates=sorted_dates,
            values=np.array([column[i] for i in order]),
            name=name,
        )
        for name, column in zip(names, columns)
    ]


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
