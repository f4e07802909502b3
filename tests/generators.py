"""Fixtures and references for the tests: seeded random walks, AR(1)s, a
cointegrated system, a writer for series CSV files, the scalar normal
stream and the ADF auxiliary regression.

The generators draw from the package's own normal draws and run its
AR(1) recurrence, so each call gives the same bits on every platform;
``tests/data/generators_sha256.txt`` pins them.  ``NormalStream`` is the
one-pair-at-a-time form of those draws, and ``adf_regression`` the full
fit, by ``fit_arrays`` on the stacked (n, k) design, whose t-statistic
the ADF test must reproduce from its unstacked columns; each is the
reference that the package's faster path is checked against, bit for
bit.
"""

import csv
import math
from typing import NamedTuple

import numpy as np

from specloss.errors import InvalidArgumentError
from specloss.ols import OlsFit, fit_arrays
from specloss.series import TimeSeries, trading_dates
from specloss.synth import _MASK64, _SPLITMIX_GAMMA, _ar1, _fnv1a64, _normals
from specloss.unit_root import _adf_columns


class NormalStream:
    """Deterministic stream of standard-normal draws.

    The state is seeded by FNV-1a hashing ``"label:seed"`` and advanced
    by splitmix64; each 64-bit output yields a uniform in (0, 1) from its
    top 53 bits offset by half a unit in the last place, and Box-Muller
    turns uniform pairs into normal pairs (the second is cached).  Every
    step is integer arithmetic or basic libm calls, with no dependence on
    platform RNG implementations.
    """

    def __init__(self, seed: int, label: str):
        self._state = _fnv1a64(f"{label}:{seed}".encode("utf-8"))
        self._cached: float | None = None

    def _next_uniform(self) -> float:
        self._state = (self._state + _SPLITMIX_GAMMA) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        return ((z >> 11) + 0.5) * 2.0**-53

    def normal(self) -> float:
        if self._cached is not None:
            value = self._cached
            self._cached = None
            return value
        u1 = self._next_uniform()
        u2 = self._next_uniform()
        radius = math.sqrt(-2.0 * math.log(u1))
        angle = 2.0 * math.pi * u2
        self._cached = radius * math.sin(angle)
        return radius * math.cos(angle)


def adf_regression(y: TimeSeries, lag: int) -> OlsFit:
    """ADF auxiliary regression at a given lag, longest usable sample.

    Effective observations are ``len(y) - 1 - lag``; the ADF statistic is
    the t-statistic of the second coefficient row (on the lagged level).
    The columns are stacked into the (n, k) design that the fit is given.
    """
    if lag < 0:
        raise InvalidArgumentError(f"lag must be >= 0, got {lag}")
    dep, cols, names, _ = _adf_columns(y, lag)
    return fit_arrays(dep, np.column_stack(cols), dep_name=f"D({y.name or 'Y'})",
                      reg_names=names)


def gen_random_walk(seed, n, drift=0.0, scale=1.0, *, label="RW"):
    """y_t = y_{t-1} + drift + scale*eps_t starting from zero, n values."""
    values = []
    level = 0.0
    for shock in (scale * _normals(seed, label, n)).tolist():
        level = level + drift + shock
        values.append(level)
    return TimeSeries(trading_dates(n), values, name=label)


def gen_ar1(seed, n, phi, scale=1.0, *, label="AR1"):
    """Mean-zero AR(1) with the first value from the stationary law."""
    values = _ar1(seed, label, n, phi, scale)
    return TimeSeries(trading_dates(n), values, name=label)


class Regression(NamedTuple):
    """A dependent series and its regressors: ``fit(*regression)`` fits one."""

    dependent: TimeSeries
    regressors: tuple[TimeSeries, ...]


def gen_cointegrated(seed, n=255):
    """A 4-variable system cointegrated by construction.

    Two random walks and one AR(1) combine linearly into the dependent
    variable plus stationary AR(1) noise, so the relation's residuals are
    stationary whatever the walks do.
    """
    w1 = gen_random_walk(seed, n, scale=1.0, label="COINT_W1").with_name("X1")
    w2 = gen_random_walk(seed, n, scale=1.0, label="COINT_W2").with_name("X2")
    x3 = gen_ar1(seed, n, phi=0.4, scale=1.0, label="COINT_X3").with_name("X3")
    noise = gen_ar1(seed, n, phi=0.3, scale=0.5, label="COINT_NOISE")
    values = 1.0 + 0.5 * w1.values - 0.3 * w2.values + 2.0 * x3.values + noise.values
    dep = TimeSeries(w1.dates, values, name="Y")
    return Regression(dep, (w1, w2, x3))


def write_series_csv(series, path):
    """Write aligned series as a date column plus one column each.

    An unnamed series is headed ``X<i>`` by its position.  Each value is
    written as its float ``repr``, the shortest text that reads back to
    the same bits.
    """
    names = [s.name or f"X{i}" for i, s in enumerate(series)]
    rows = zip(series[0].dates.astype(str).tolist(), *[s.values.tolist() for s in series])
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["date", *names])
        writer.writerows(rows)
