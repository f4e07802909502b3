"""Date-indexed numeric series and the basic transforms built on it.

A :class:`TimeSeries` is an immutable pairing of strictly increasing
calendar dates with float64 values.  All statistical modules consume and
produce these; calendar handling stops here.  A calendar is one
read-only ``datetime64[D]`` array: days from year 1 to 9999, no times,
no timezone logic.  A single date comes out of it as ``.item()``, a
plain ``datetime.date``.

Arrays are copied and checked only where they come from a caller.
``TimeSeries(dates, values)`` type-checks the dates (``datetime.date``
values or a ``datetime64[D]`` array), copies both and checks the dates
once for strict increase.  An array the library made itself, or already
holds frozen, comes wrapped in the private :class:`_Frozen` and is kept
as it is: values after the same length and finiteness checks, a
calendar with no check at all, since the library wraps only calendars it
has checked.  So a difference, an alignment or a market table passes
its calendar on as a view, without walking the dates again.
"""

from __future__ import annotations

import datetime
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import AlignmentError, InvalidArgumentError, InvalidDayError

__all__ = ["TimeSeries", "diff", "mean", "stddev", "align", "trading_dates"]

_DAY = np.dtype("datetime64[D]")
_FIRST_DAY = np.datetime64(datetime.date.min, "D")
_LAST_DAY = np.datetime64(datetime.date.max, "D")


class _Frozen:
    """An array the library owns, frozen here, that a series keeps uncopied.

    Only the library wraps arrays: ones it has just made (a difference, a
    fit's residuals, a parsed calendar) or holds frozen already (a market
    column, another series' values or dates).  No caller keeps a writable
    handle on them, and a wrapped calendar is one the library has checked.
    """

    __slots__ = ("values",)

    def __init__(self, values: np.ndarray) -> None:
        values.flags.writeable = False
        self.values = values


def check_dates(dates: Sequence[datetime.date] | np.ndarray | _Frozen) -> np.ndarray:
    """A calendar as a read-only ``datetime64[D]`` array, strictly increasing.

    A caller's dates are a ``datetime64[D]`` array or a sequence of
    ``datetime.date`` values or ``datetime64[D]`` scalars (a
    ``datetime.datetime`` is not a date); they are copied and checked.  A
    calendar the library wraps in :class:`_Frozen` comes back unchecked.
    """
    if type(dates) is _Frozen:
        return dates.values
    if isinstance(dates, np.ndarray) and dates.dtype.kind == "M":
        if dates.dtype != _DAY:
            raise InvalidArgumentError(
                f"dates must be datetime.date, got {dates.dtype} values"
            )
        days = np.array(dates)
    else:
        dates = list(dates)
        for d in dates:
            if not ((isinstance(d, datetime.date) and not isinstance(d, datetime.datetime))
                    or (isinstance(d, np.datetime64) and d.dtype == _DAY)):
                raise InvalidArgumentError(f"dates must be datetime.date, got {d!r}")
        days = np.array(dates, dtype=_DAY)
    if days.ndim != 1:
        raise InvalidArgumentError("dates must be one-dimensional")
    steps = np.diff(days) > 0  # false next to a NaT as well
    if not steps.all():
        i = int(np.flatnonzero(~steps)[0])
        raise InvalidArgumentError(
            f"dates must be strictly increasing: {days[i]} followed by {days[i + 1]}"
        )
    if days.size and not (_FIRST_DAY <= days[0] and days[-1] <= _LAST_DAY):
        raise InvalidArgumentError(
            f"dates must lie in years 1 to 9999, got {days[0]} to {days[-1]}"
        )
    days.flags.writeable = False
    return days


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Immutable date-indexed series of real values.

    Parameters
    ----------
    dates : sequence of datetime.date, or a datetime64[D] array
        Strictly increasing, no duplicates; kept as a read-only
        ``datetime64[D]`` array.
    values : sequence of float
        One finite value per date, copied.  NaN/inf are rejected: a gap
        must be handled before construction, never carried inside a series.

    Two series are equal when their dates and values are; the name does
    not count.  Series hold arrays, so they are not hashable.
    """

    dates: np.ndarray
    values: np.ndarray
    name: str = ""

    def __post_init__(self):
        if type(self.values) is _Frozen:
            values = self.values.values
        else:
            values = np.array(self.values, dtype=np.float64)
        if values.ndim != 1:
            raise InvalidArgumentError("values must be one-dimensional")
        dates = check_dates(self.dates)
        if len(dates) != values.shape[0]:
            raise InvalidArgumentError(
                f"dates ({len(dates)}) and values ({values.shape[0]}) differ in length"
            )
        if values.size and not np.all(np.isfinite(values)):
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            # NaN is what an empty CSV cell reads as.
            what = "missing value" if np.isnan(values[bad]) else f"non-finite value {values[bad]}"
            raise InvalidDayError(
                f"{what} at {dates[bad]}; series values must be finite",
                date=dates[bad].item(),
            )
        values.flags.writeable = False
        object.__setattr__(self, "dates", dates)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return (np.array_equal(self.dates, other.dates)
                and np.array_equal(self.values, other.values))

    __hash__ = None  # equality compares arrays, which are not hashable

    def with_name(self, name: str) -> "TimeSeries":
        return TimeSeries(_Frozen(self.dates), _Frozen(self.values), name)


def diff(s: TimeSeries) -> TimeSeries:
    """First difference, result[t] = s[t] - s[t-1], on the last ``len(s) - 1`` dates."""
    if len(s) < 2:
        raise InvalidArgumentError(
            f"first difference needs at least 2 values, got {len(s)}"
        )
    name = f"D({s.name})" if s.name else ""
    return TimeSeries(_Frozen(s.dates[1:]), _Frozen(s.values[1:] - s.values[:-1]), name)


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
    if first.size and all(s.dates is first or np.array_equal(s.dates, first)
                          for s in series[1:]):
        return list(series)
    common = first
    for s in series[1:]:
        common = np.intersect1d(common, s.dates, assume_unique=True)
    if not common.size:
        raise AlignmentError("series have no dates in common")
    out = []
    for s in series:
        if len(s) == common.size:  # every date of s is common
            out.append(s)
        else:
            # An increasing subsequence of a checked calendar is checked.
            keep = np.isin(s.dates, common, assume_unique=True)
            out.append(TimeSeries(_Frozen(s.dates[keep]), _Frozen(s.values[keep]), s.name))
    return out


def trading_dates(n: int, start: datetime.date = datetime.date(2012, 1, 3)) -> np.ndarray:
    """First ``n`` weekdays (Mon-Fri) from ``start`` onward, a ``datetime64[D]`` array.

    A stand-in trading calendar for generated data; real calendars arrive
    with the data files and are never hardcoded in the statistics.
    """
    if n < 1:
        raise InvalidArgumentError(f"need at least one date, got n={n}")
    days = np.busday_offset(start, np.arange(n), roll="forward")
    if days[-1] > _LAST_DAY:
        raise InvalidArgumentError(f"{n} weekdays from {start} pass {datetime.date.max}")
    return days
