"""Seeded synthetic market data with known time-series structure.

The real exchange dataset is not public, so pipeline tests run on
generated data whose stationarity properties are known: deposited money I
follows a random walk (integrated of order one), the rate R and the stock
counts vary stationarily around fixed levels, and the mean-loss series u
therefore cointegrates with (U, R, I) by construction.

Randomness comes from a fixed, documented generator rather than a
platform RNG so golden outputs stay stable: a 64-bit FNV-1a hash of
"label:seed" seeds a splitmix64 state per variable, uniforms take the top
53 bits, and normals come from the Box-Muller transform.  Labeled
substreams make generated variables independent of each other and of the
order they are drawn in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .market import MarketData
from .ols import RegressionSpec
from .series import TimeSeries, trading_dates

__all__ = [
    "NormalStream",
    "SynthConfig",
    "gen_random_walk",
    "gen_ar1",
    "gen_market_days",
    "gen_cointegrated",
]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15

# The market process of gen_market_days.  I: reflected random walk,
# million rubles.  R: AR(1) around a level, percent per annum.  U_vol:
# AR(1) around a level, pieces.  U_dep = U_vol + a slow positive walk,
# pieces.  Mean stock price: AR(1) around a level, rubles.  Each scale
# below is an innovation standard deviation.
_I0, _I_SCALE = 20000.0, 25.0
_R0, _R_PHI, _R_SCALE = 5.5, 0.3, 0.12
_UVOL0, _UVOL_PHI, _UVOL_SCALE = 6.0e6, 0.25, 1.2e5
_DEP0, _DEP_SCALE = 5.4e7, 1.5e5
_PRICE0, _PRICE_PHI, _PRICE_SCALE = 512.8, 0.3, 2.5


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


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

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)])


@dataclass(frozen=True)
class SynthConfig:
    """Settings of one generated dataset; the process itself is fixed.

    ``noise_scale`` multiplies the innovation scales of the stationary
    processes (R, stock counts, price); at 0 they degenerate to constants
    and u becomes an exact linear function of I.  ``break_factor``
    multiplies I from ``break_index`` on (1.0 means no break).
    """

    seed: int = 0
    n_days: int = 255
    noise_scale: float = 1.0
    break_factor: float = 1.0
    break_index: int | None = None

    def __post_init__(self) -> None:
        if self.n_days < 30:
            raise InvalidArgumentError(f"n_days must be >= 30, got {self.n_days}")
        if self.break_factor <= 0:
            raise InvalidArgumentError(
                f"break_factor must be > 0, got {self.break_factor}"
            )
        if self.noise_scale < 0:
            raise InvalidArgumentError(
                f"noise_scale must be >= 0, got {self.noise_scale}"
            )
        if self.break_index is not None and not 0 < self.break_index < self.n_days:
            raise InvalidArgumentError(
                f"break_index must be inside 1..{self.n_days - 1}, "
                f"got {self.break_index}"
            )


def _reflected_walk(stream: NormalStream, n: int, y0: float, scale: float) -> np.ndarray:
    """Driftless random walk from y0 kept positive by reflection at zero."""
    out = np.empty(n)
    level = y0
    for t in range(n):
        level = abs(level + scale * stream.normal())
        out[t] = level
    return out


def _ar1(stream: NormalStream, n: int, phi: float, scale: float) -> np.ndarray:
    """Mean-zero AR(1), first value from the stationary law; zeros at scale 0."""
    out = np.zeros(n)
    if scale == 0.0:
        return out
    x = scale / math.sqrt(1.0 - phi * phi) * stream.normal()
    for t in range(n):
        out[t] = x
        x = phi * x + scale * stream.normal()
    return out


def _ar1_around(
    stream: NormalStream, n: int, level: float, phi: float, scale: float
) -> np.ndarray:
    """Level plus stationary AR(1) deviations, reflected to stay positive."""
    return np.abs(level + _ar1(stream, n, phi, scale))


def gen_random_walk(
    seed: int,
    n: int,
    drift: float = 0.0,
    scale: float = 1.0,
    *,
    label: str = "RW",
) -> TimeSeries:
    """y_t = y_{t-1} + drift + scale*eps_t starting from zero, n values."""
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    if scale < 0:
        raise InvalidArgumentError(f"scale must be >= 0, got {scale}")
    stream = NormalStream(seed, label)
    values = np.empty(n)
    level = 0.0
    for t in range(n):
        level = level + drift + scale * stream.normal()
        values[t] = level
    return TimeSeries(trading_dates(n), values, name=label)


def gen_ar1(
    seed: int,
    n: int,
    phi: float,
    scale: float = 1.0,
    *,
    label: str = "AR1",
) -> TimeSeries:
    """Mean-zero AR(1) with the first value from the stationary law."""
    if n < 2:
        raise InvalidArgumentError(f"n must be >= 2, got {n}")
    if not abs(phi) < 1:
        raise InvalidArgumentError(f"|phi| must be < 1, got {phi}")
    if scale < 0:
        raise InvalidArgumentError(f"scale must be >= 0, got {scale}")
    values = _ar1(NormalStream(seed, label), n, phi, scale)
    return TimeSeries(trading_dates(n), values, name=label)


def gen_market_days(config: SynthConfig) -> MarketData:
    """Generate market data for ``n_days`` trading dates from the fixed process."""
    n = config.n_days
    ns = config.noise_scale
    invest = _reflected_walk(NormalStream(config.seed, "invest"), n, _I0, _I_SCALE)
    break_index = config.break_index
    if break_index is None:
        break_index = n // 2
    if config.break_factor != 1.0:
        invest[break_index:] *= config.break_factor
    rate = _ar1_around(NormalStream(config.seed, "rate"), n, _R0, _R_PHI, ns * _R_SCALE)
    u_vol = _ar1_around(
        NormalStream(config.seed, "u_vol"), n, _UVOL0, _UVOL_PHI, ns * _UVOL_SCALE
    )
    dep_extra = _reflected_walk(NormalStream(config.seed, "u_dep"), n, _DEP0, ns * _DEP_SCALE)
    price = _ar1_around(
        NormalStream(config.seed, "price"), n, _PRICE0, _PRICE_PHI, ns * _PRICE_SCALE
    )
    return MarketData(
        dates=trading_dates(n),
        invest_i=invest,
        rate_r=rate,
        u_big_vol=u_vol,
        u_big_dep=u_vol + dep_extra,
        mean_price=price,
    )


def gen_cointegrated(seed: int, n: int = 255) -> RegressionSpec:
    """A 4-variable system cointegrated by construction.

    Two random walks and one AR(1) combine linearly into the dependent
    variable plus stationary AR(1) noise, so the relation's residuals are
    stationary whatever the walks do.
    """
    if n < 30:
        raise InvalidArgumentError(f"n must be >= 30, got {n}")
    w1 = gen_random_walk(seed, n, scale=1.0, label="COINT_W1").with_name("X1")
    w2 = gen_random_walk(seed, n, scale=1.0, label="COINT_W2").with_name("X2")
    x3 = gen_ar1(seed, n, phi=0.4, scale=1.0, label="COINT_X3").with_name("X3")
    noise = gen_ar1(seed, n, phi=0.3, scale=0.5, label="COINT_NOISE")
    values = 1.0 + 0.5 * w1.values - 0.3 * w2.values + 2.0 * x3.values + noise.values
    dep = TimeSeries(w1.dates, values, name="Y")
    return RegressionSpec(dependent=dep, regressors=(w1, w2, x3))
