"""Date-indexed numeric series and the basic transforms built on it.

A :class:`TimeSeries` is an immutable pairing of strictly increasing
calendar dates with float64 values.  All statistical modules consume and
produce these; calendar handling stops here (dates are plain
``datetime.date`` objects, no times, no timezone logic).
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AlignmentError, InvalidArgumentError, InvalidDayError

__all__ = ["TimeSeries", "diff", "mean", "stddev", "align", "trading_dates"]


def check_dates(dates: Sequence[datetime.date]) -> None:
    """Require plain ``datetime.date`` values in strictly increasing order."""
    for d in dates:
        if not isinstance(d, datetime.date) or isinstance(d, datetime.datetime):
            raise InvalidArgumentError(f"dates must be datetime.date, got {d!r}")
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise InvalidArgumentError(
                f"dates must be strictly increasing: {prev} followed by {cur}"
            )


@dataclass(frozen=True)
class TimeSeries:
    """Immutable date-indexed series of real values.

    Parameters
    ----------
    dates : sequence of datetime.date
        Strictly increasing, no duplicates.
    values : sequence of float
        One finite value per date.  NaN/inf are rejected: a gap must be
        handled before construction, never carried inside a series.
    """

    dates: tuple[datetime.date, ...]
    values: np.ndarray
    name: str = field(default="", compare=False)

    def __post_init__(self):
        dates = tuple(self.dates)
        values = np.asarray(self.values, dtype=np.float64).copy()
        if values.ndim != 1:
            raise InvalidArgumentError("values must be one-dimensional")
        if len(dates) != values.shape[0]:
            raise InvalidArgumentError(
                f"dates ({len(dates)}) and values ({values.shape[0]}) differ in length"
            )
        check_dates(dates)
        if values.size and not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise InvalidDayError(
                f"non-finite value at {dates[bad]}; series may not contain missing values",
                date=dates[bad],
            )
        values.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dates)

    def with_name(self, name: str) -> "TimeSeries":
        return TimeSeries(self.dates, self.values, name)


def diff(s: TimeSeries) -> TimeSeries:
    """First difference, result[t] = s[t] - s[t-1], on the last ``len(s) - 1`` dates."""
    if len(s) < 2:
        raise InvalidArgumentError(
            f"first difference needs at least 2 values, got {len(s)}"
        )
    name = f"D({s.name})" if s.name else ""
    return TimeSeries(s.dates[1:], s.values[1:] - s.values[:-1], name)


def mean(s: TimeSeries) -> float:
    """Arithmetic mean of the values."""
    if len(s) == 0:
        raise InvalidArgumentError("mean of an empty series is undefined")
    return float(np.mean(s.values))


def stddev(s: TimeSeries) -> float:
    """Sample standard deviation (divisor n - 1)."""
    if len(s) == 0:
        raise InvalidArgumentError("standard deviation of an empty series is undefined")
    if len(s) == 1:
        raise InvalidArgumentError(
            "sample standard deviation needs at least 2 observations"
        )
    m = np.mean(s.values)
    return float(math.sqrt(float(np.sum((s.values - m) ** 2)) / (len(s) - 1)))


def align(*series: TimeSeries) -> list[TimeSeries]:
    """Restrict all series to their common dates, order preserved.

    Returns series sharing an identical date vector; a series already on
    those dates comes back as it is.  Raises :class:`AlignmentError` when
    the calendars have no dates in common.
    """
    if not series:
        raise InvalidArgumentError("align requires at least one series")
    first = series[0].dates
    if first and all(s.dates == first for s in series[1:]):
        return list(series)
    common = set(first)
    for s in series[1:]:
        common &= set(s.dates)
    if not common:
        raise AlignmentError("series have no dates in common")
    out = []
    for s in series:
        keep = [i for i, d in enumerate(s.dates) if d in common]
        if len(keep) == len(s):
            out.append(s)
        else:
            out.append(
                TimeSeries(
                    tuple(s.dates[i] for i in keep),
                    s.values[keep],
                    s.name,
                )
            )
    return out


def trading_dates(
    n: int, start: datetime.date = datetime.date(2012, 1, 3)
) -> tuple[datetime.date, ...]:
    """First ``n`` weekdays (Mon-Fri) from ``start`` onward.

    A stand-in trading calendar for generated data; real calendars arrive
    with the data files and are never hardcoded in the statistics.
    """
    if n < 1:
        raise InvalidArgumentError(f"need at least one date, got n={n}")
    out = []
    d = start
    while len(out) < n:
        if d.weekday() < 5:
            out.append(d)
        d += datetime.timedelta(days=1)
    return tuple(out)
