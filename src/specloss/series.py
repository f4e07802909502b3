"""Date-indexed numeric series and the basic transforms built on it.

A :class:`TimeSeries` is an immutable pairing of strictly increasing
calendar dates with float64 values.  All statistical modules consume and
produce these; calendar handling stops here (dates are plain
``datetime.date`` objects, no times, no timezone logic).

A calendar is checked once.  :func:`check_dates` returns the dates as a
private tuple type that records the check, and every series, difference,
alignment and market table built from it passes it on without walking
the dates again.

Values are copied only where they come from a caller.
``TimeSeries(dates, values)`` copies them; an array the library made
itself, or already holds frozen, comes wrapped in the private
:class:`_Frozen` and is kept as it is, after the same length,
finiteness and date checks.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AlignmentError, InvalidArgumentError, InvalidDayError

__all__ = ["TimeSeries", "diff", "mean", "stddev", "align", "trading_dates"]


class _CheckedDates(tuple):
    """Dates already known to be plain ``datetime.date``, strictly increasing.

    A slice with a positive step keeps both properties, so it stays
    checked; any other operation gives a plain tuple.
    """

    __slots__ = ()

    def __getitem__(self, key):
        item = tuple.__getitem__(self, key)
        if isinstance(key, slice) and (key.step is None or key.step > 0):
            return _CheckedDates(item)
        return item


class _Frozen:
    """A float64 array the library owns, frozen here, that a series keeps uncopied.

    Only the library wraps arrays: ones it has just made (a difference, a
    fit's residuals) or holds frozen already (a market column, another
    series' values).  No caller keeps a writable handle on them.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        values.flags.writeable = False
        self.values = values


def check_dates(dates: Sequence[datetime.date]) -> _CheckedDates:
    """Require plain ``datetime.date`` values in strictly increasing order.

    Returns the dates as a checked calendar, at once when they are one.
    """
    if type(dates) is _CheckedDates:
        return dates
    for d in dates:
        if not isinstance(d, datetime.date) or isinstance(d, datetime.datetime):
            raise InvalidArgumentError(f"dates must be datetime.date, got {d!r}")
    for prev, cur in zip(dates, dates[1:]):
        if cur <= prev:
            raise InvalidArgumentError(
                f"dates must be strictly increasing: {prev} followed by {cur}"
            )
    return _CheckedDates(dates)


@dataclass(frozen=True)
class TimeSeries:
    """Immutable date-indexed series of real values.

    Parameters
    ----------
    dates : sequence of datetime.date
        Strictly increasing, no duplicates.
    values : sequence of float
        One finite value per date, copied.  NaN/inf are rejected: a gap
        must be handled before construction, never carried inside a series.
    """

    dates: tuple[datetime.date, ...]
    values: np.ndarray
    name: str = field(default="", compare=False)

    def __post_init__(self):
        dates = self.dates if isinstance(self.dates, tuple) else tuple(self.dates)
        if type(self.values) is _Frozen:
            values = self.values.values
        else:
            values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidArgumentError("values must be one-dimensional")
        if len(dates) != values.shape[0]:
            raise InvalidArgumentError(
                f"dates ({len(dates)}) and values ({values.shape[0]}) differ in length"
            )
        dates = check_dates(dates)
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
        return TimeSeries(self.dates, _Frozen(self.values), name)


def diff(s: TimeSeries) -> TimeSeries:
    """First difference, result[t] = s[t] - s[t-1], on the last ``len(s) - 1`` dates."""
    if len(s) < 2:
        raise InvalidArgumentError(
            f"first difference needs at least 2 values, got {len(s)}"
        )
    name = f"D({s.name})" if s.name else ""
    return TimeSeries(s.dates[1:], _Frozen(s.values[1:] - s.values[:-1]), name)


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
    if first and all(s.dates is first or s.dates == first for s in series[1:]):
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
            # An increasing subsequence of a checked calendar is checked.
            dates = _CheckedDates(s.dates[i] for i in keep)
            out.append(TimeSeries(dates, _Frozen(s.values[keep]), s.name))
    return out


def trading_dates(
    n: int, start: datetime.date = datetime.date(2012, 1, 3)
) -> _CheckedDates:
    """First ``n`` weekdays (Mon-Fri) from ``start`` onward, as a checked calendar.

    A stand-in trading calendar for generated data; real calendars arrive
    with the data files and are never hardcoded in the statistics.
    """
    if n < 1:
        raise InvalidArgumentError(f"need at least one date, got n={n}")
    days = np.busday_offset(start, np.arange(n), roll="forward")
    if days[-1] > np.datetime64(datetime.date.max):
        raise InvalidArgumentError(f"{n} weekdays from {start} pass {datetime.date.max}")
    return _CheckedDates(days.tolist())
