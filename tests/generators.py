"""Series fixtures for the tests: seeded random walks, AR(1)s, a
cointegrated system, and a writer for series CSV files.

The generators draw from the package's own ``NormalStream`` and run its
AR(1) recurrence, so each call gives the same bits on every platform;
``tests/data/generators_sha256.txt`` pins them.
"""

import csv

from specloss.ols import RegressionSpec
from specloss.series import TimeSeries, trading_dates
from specloss.synth import NormalStream, _ar1


def gen_random_walk(seed, n, drift=0.0, scale=1.0, *, label="RW"):
    """y_t = y_{t-1} + drift + scale*eps_t starting from zero, n values."""
    values = []
    level = 0.0
    for shock in (scale * NormalStream(seed, label).normals(n)).tolist():
        level = level + drift + shock
        values.append(level)
    return TimeSeries(trading_dates(n), values, name=label)


def gen_ar1(seed, n, phi, scale=1.0, *, label="AR1"):
    """Mean-zero AR(1) with the first value from the stationary law."""
    values = _ar1(NormalStream(seed, label), n, phi, scale)
    return TimeSeries(trading_dates(n), values, name=label)


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
    return RegressionSpec(dependent=dep, regressors=(w1, w2, x3))


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
