"""The economic core: daily speculative-loss figures and their analyses.

A day's loss limit is L = I·R/365 (rate as a fraction), and the mean loss
per deal involving one stock is u = L/U, where U is either the stocks
involved in deals (by_volume) or the stocks deposited in the clearing
system (by_deposit).  Unit conventions are fixed here and nowhere else:
I arrives in million rubles, R in percent per annum (the central bank's
published form), and u is reported in kopecks per stock.  The formula
layer itself (:func:`daily_loss_limit`, :func:`mean_loss_per_stock`) is
unit-agnostic and takes scalars or arrays; the conversions live in
:func:`u_series` only.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import DivisionDomainError, InvalidArgumentError, InvalidDayError
from .series import TimeSeries, check_dates, mean, stddev

__all__ = [
    "MarketData",
    "UVariant",
    "ConstancyResult",
    "BreakResult",
    "CoverageResult",
    "daily_loss_limit",
    "mean_loss_per_stock",
    "u_series",
    "constancy_check",
    "break_analysis",
    "coverage_ratios",
]

# Unit regime: I in million rubles, R in percent per annum, u in kopecks.
MRUB_TO_RUB = 1e6
RUB_TO_KOPECKS = 100.0
MRUB_TO_KOPECKS = MRUB_TO_RUB * RUB_TO_KOPECKS
PCT_TO_FRACTION = 1.0 / 100.0
DAYS_PER_YEAR = 365.0

FloatOrArray = float | np.ndarray

# Raw regression variables: column and series name.
_RAW_SERIES = (
    ("invest_i", "I"),
    ("rate_r", "R"),
    ("u_big_vol", "U_BIG_VOL"),
    ("u_big_dep", "U_BIG_DEP"),
)


def _first(mask: np.ndarray) -> int | None:
    """Index of the first true entry of ``mask``, or None."""
    hits = np.flatnonzero(mask)
    return int(hits[0]) if hits.size else None


class UVariant(enum.Enum):
    """Which stock count serves as U in u = I·R/(365·U)."""

    BY_VOLUME = "by_volume"
    BY_DEPOSIT = "by_deposit"


@dataclass(frozen=True, eq=False)
class MarketData:
    """Daily exchange data, one read-only float64 column per variable.

    ``dates`` are strictly increasing trading days.  ``invest_i`` is the
    money deposited within the exchange system in million rubles;
    ``rate_r`` the one-day interbank rate in percent per annum;
    ``u_big_vol`` and ``u_big_dep`` count stocks (pieces) involved in
    deals and deposited in the clearing system; ``mean_price`` is the
    optional mean stock price in rubles used by the coverage ratios, NaN
    on a day without one, or ``None`` when no day has a price column.
    """

    dates: tuple[datetime.date, ...]
    invest_i: np.ndarray
    rate_r: np.ndarray
    u_big_vol: np.ndarray
    u_big_dep: np.ndarray
    mean_price: np.ndarray | None = None

    def __post_init__(self) -> None:
        dates = tuple(self.dates)
        check_dates(dates)
        object.__setattr__(self, "dates", dates)
        for f in fields(self)[1:]:
            if f.name == "mean_price" and self.mean_price is None:
                continue
            column = np.array(getattr(self, f.name), dtype=np.float64)
            if column.shape != (len(dates),):
                raise InvalidArgumentError(
                    f"{f.name} must hold one value per date ({len(dates)}), "
                    f"got shape {column.shape}"
                )
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)
        for label, _ in _RAW_SERIES:
            column = getattr(self, label)
            self._reject(
                ~(np.isfinite(column) & (column >= 0)),
                lambda i: f"{label} must be finite and >= 0 on {dates[i]}, "
                          f"got {column[i]}",
            )
        self._reject(
            self.u_big_vol > self.u_big_dep,
            lambda i: f"u_big_vol ({self.u_big_vol[i]}) exceeds u_big_dep "
                      f"({self.u_big_dep[i]}) on {dates[i]}; traded stocks must "
                      f"be a subset of deposited stocks",
        )
        price = self.mean_price
        if price is not None:
            self._reject(
                np.isinf(price) | (price <= 0),
                lambda i: f"mean_price must be positive when given on "
                          f"{dates[i]}, got {price[i]}",
            )

    def _reject(self, bad: np.ndarray, message: Callable[[int], str]) -> None:
        """Raise for the first day flagged in ``bad``, if any."""
        i = _first(bad)
        if i is not None:
            raise InvalidDayError(message(i), date=self.dates[i])

    def __len__(self) -> int:
        return len(self.dates)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MarketData):
            return NotImplemented
        pairs = [(getattr(self, f.name), getattr(other, f.name))
                 for f in fields(self)[1:]]
        return self.dates == other.dates and all(
            a is b or np.array_equal(a, b, equal_nan=True) for a, b in pairs
        )

    def series(self) -> dict[str, TimeSeries]:
        """The four raw regression variables as named series."""
        return {name: TimeSeries(self.dates, getattr(self, column), name=name)
                for column, name in _RAW_SERIES}


@dataclass(frozen=True)
class ConstancyResult:
    mean: float
    stddev: float
    threshold: float
    passes: bool


@dataclass(frozen=True)
class BreakResult:
    mean_before: float
    mean_after: float
    ratio: float


@dataclass(frozen=True)
class CoverageResult:
    stock_utilization: float
    money_coverage: float


def daily_loss_limit(invest_i: FloatOrArray, rate_r_fraction: FloatOrArray) -> FloatOrArray:
    """L = I·R/365 with the rate as a fraction; L shares I's money unit."""
    if np.any(invest_i < 0) or np.any(rate_r_fraction < 0):
        raise InvalidArgumentError(
            f"inputs must be >= 0, got I={invest_i}, R={rate_r_fraction}"
        )
    return invest_i * rate_r_fraction / DAYS_PER_YEAR


def mean_loss_per_stock(
    invest_i: FloatOrArray, rate_r_fraction: FloatOrArray, u_big: FloatOrArray
) -> FloatOrArray:
    """u = I·R/(365·U), exactly daily_loss_limit(I, R)/U, for scalars or arrays."""
    if np.any(u_big < 0):
        raise InvalidArgumentError(f"u_big must be >= 0, got {u_big}")
    if np.any(u_big == 0):
        raise DivisionDomainError("u_big is zero; mean loss per stock is undefined")
    return daily_loss_limit(invest_i, rate_r_fraction) / u_big


def u_series(days: MarketData, variant: UVariant) -> TimeSeries:
    """Daily u in kopecks per stock for the chosen U variant.

    The unit chain: I in million rubles times the million-rubles-to-
    kopecks factor 1e8, R percent to fraction, all over 365·U.
    """
    if not days:
        raise InvalidArgumentError("u_series needs at least one day")
    u_big = days.u_big_vol if variant is UVariant.BY_VOLUME else days.u_big_dep
    zero = _first(u_big == 0)
    if zero is not None:
        raise DivisionDomainError(f"zero U ({variant.value}) on {days.dates[zero]}")
    values = mean_loss_per_stock(
        days.invest_i * MRUB_TO_KOPECKS, days.rate_r * PCT_TO_FRACTION, u_big
    )
    name = "U_SMALL_VOL" if variant is UVariant.BY_VOLUME else "U_SMALL_DEP"
    return TimeSeries(days.dates, values, name=name)


def constancy_check(u: TimeSeries, mean_price: float) -> ConstancyResult:
    """Is the u series constant in the loose sense of the first approach?

    Passes when the sample standard deviation stays strictly below one
    hundredth of the mean stock price, both in kopecks (``mean_price``
    arrives in rubles).
    """
    if mean_price <= 0:
        raise InvalidArgumentError(f"mean_price must be positive, got {mean_price}")
    sd = stddev(u)
    threshold = mean_price * RUB_TO_KOPECKS / 100.0
    return ConstancyResult(
        mean=mean(u), stddev=sd, threshold=threshold, passes=sd < threshold
    )


def break_analysis(u: TimeSeries, break_date: datetime.date) -> BreakResult:
    """Compare mean u before and from ``break_date`` on.

    The break date itself belongs to the "after" segment; both segments
    need at least two observations.
    """
    n_before = sum(1 for d in u.dates if d < break_date)
    n_after = len(u) - n_before
    if n_before < 2 or n_after < 2:
        raise InvalidArgumentError(
            f"break date {break_date} leaves {n_before} observations before "
            f"and {n_after} after; need at least 2 on each side"
        )
    mean_before = float(np.mean(u.values[:n_before]))
    mean_after = float(np.mean(u.values[n_before:]))
    return BreakResult(
        mean_before=mean_before,
        mean_after=mean_after,
        ratio=mean_after / mean_before,
    )


def coverage_ratios(days: MarketData) -> CoverageResult:
    """Average stock utilization and money coverage across days.

    stock_utilization averages u_big_vol/u_big_dep; money_coverage
    averages deposited money over the market value of deposited stocks
    (rubles per ruble).  Every day must carry a mean price.
    """
    if not days:
        raise InvalidArgumentError("coverage_ratios needs at least one day")
    zero = _first(days.u_big_dep == 0)
    if zero is not None:
        raise DivisionDomainError(f"zero u_big_dep on {days.dates[zero]}")
    price = days.mean_price
    missing = 0 if price is None else _first(np.isnan(price))
    if missing is not None:
        raise InvalidArgumentError(f"mean_price missing on {days.dates[missing]}")
    return CoverageResult(
        stock_utilization=float(np.mean(days.u_big_vol / days.u_big_dep)),
        money_coverage=float(
            np.mean(days.invest_i * MRUB_TO_RUB / (days.u_big_dep * price))
        ),
    )
