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

__all__ = ["TimeSeries", "diff", "lag", "mean", "stddev", "align", "trading_dates"]


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
    unit_label : str
        Free-text unit for reports (e.g. ``"kopecks"``, ``"m. rubles"``).
    """

    dates: tuple[datetime.date, ...]
    values: np.ndarray
    unit_label: str = ""
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
        return TimeSeries(self.dates, self.values, self.unit_label, name)


def diff(s: TimeSeries, order: int = 1) -> TimeSeries:
    """Difference with gap ``order``: result[t] = s[t] - s[t-order].

    The result is aligned to the last ``len(s) - order`` dates.
    """
    if order < 1:
        raise InvalidArgumentError(f"order must be >= 1, got {order}")
    if order >= len(s):
        raise InvalidArgumentError(
            f"order {order} must be smaller than series length {len(s)}"
        )
    values = s.values[order:] - s.values[:-order]
    name = f"D({s.name})" if s.name else ""
    return TimeSeries(s.dates[order:], values, s.unit_label, name)


def lag(s: TimeSeries, k: int) -> TimeSeries:
    """Shift values forward by ``k`` steps: result[t] = s[t-k].

    Aligned to the last ``len(s) - k`` dates; ``k = 0`` returns an equal
    series.
    """
    if k < 0:
        raise InvalidArgumentError(f"lag must be >= 0, got {k}")
    if k >= len(s):
        raise InvalidArgumentError(f"lag {k} must be smaller than series length {len(s)}")
    if k == 0:
        return s
    name = f"{s.name}(-{k})" if s.name else ""
    return TimeSeries(s.dates[k:], s.values[:-k], s.unit_label, name)


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
                    s.unit_label,
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
