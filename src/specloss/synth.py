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

A splitmix64 state only ever adds a constant, so a whole block of
uniforms is computed at once in numpy ``uint64``, whose arithmetic wraps
exactly as the 64-bit mask does.  The normals stay libm Box-Muller, one
pair at a time in Python floats: numpy's vectorised log, sqrt, cos and
sin are not guaranteed to give libm's bits.  The processes' recurrences
also run over Python floats, draw by draw, in the order they always did
(a ``cumsum`` would round in another order).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .market import MarketData
from .series import _Frozen, trading_dates

__all__ = ["SynthConfig", "gen_market_days"]

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
# uint64 operands everywhere, so that numpy 1.x value-based casting and
# numpy 2 promotion both keep every step in wrapping uint64.
_U64_GAMMA = np.uint64(_SPLITMIX_GAMMA)
_U64_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_U64_MIX2 = np.uint64(0x94D049BB133111EB)

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

    def _uniforms(self, n: int) -> list[float]:
        """The next ``n`` uniforms, as ``n`` calls of ``_next_uniform`` give them."""
        z = np.uint64(self._state) + np.arange(1, n + 1, dtype=np.uint64) * _U64_GAMMA
        self._state = (self._state + n * _SPLITMIX_GAMMA) & _MASK64
        z ^= z >> np.uint64(30)
        z *= _U64_MIX1
        z ^= z >> np.uint64(27)
        z *= _U64_MIX2
        z ^= z >> np.uint64(31)
        # Below 2**53 the top bits convert exactly; the rest is one float
        # add and an exact scaling, as in _next_uniform.
        return (((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53).tolist()

    def normals(self, n: int) -> np.ndarray:
        """The next ``n`` draws, leaving the stream as ``n`` calls of ``normal`` do."""
        out = []
        if n > 0 and self._cached is not None:
            out.append(self._cached)
            self._cached = None
        uniforms = self._uniforms(2 * ((n - len(out) + 1) // 2))
        log, sqrt, cos, sin = math.log, math.sqrt, math.cos, math.sin
        two_pi = 2.0 * math.pi
        for u1, u2 in zip(uniforms[::2], uniforms[1::2]):
            radius = sqrt(-2.0 * log(u1))
            angle = two_pi * u2
            out.append(radius * cos(angle))
            out.append(radius * sin(angle))
        if len(out) > n:
            self._cached = out.pop()
        return np.array(out)


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
    out = []
    level = y0
    for shock in (scale * stream.normals(n)).tolist():
        level = abs(level + shock)
        out.append(level)
    return np.array(out)


def _ar1(stream: NormalStream, n: int, phi: float, scale: float) -> np.ndarray:
    """Mean-zero AR(1), first value from the stationary law; zeros at scale 0."""
    if scale == 0.0:
        return np.zeros(n)
    # n + 1 draws: the first starts the process, the last is never used.
    draws = stream.normals(n + 1)
    x = scale / math.sqrt(1.0 - phi * phi) * float(draws[0])
    shocks = (scale * draws[1:]).tolist()
    out = []
    for shock in shocks:
        out.append(x)
        x = phi * x + shock
    return np.array(out)


def _ar1_around(
    stream: NormalStream, n: int, level: float, phi: float, scale: float
) -> np.ndarray:
    """Level plus stationary AR(1) deviations, reflected to stay positive."""
    return np.abs(level + _ar1(stream, n, phi, scale))


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
        dates=_Frozen(trading_dates(n)),
        invest_i=invest,
        rate_r=rate,
        u_big_vol=u_vol,
        u_big_dep=u_vol + dep_extra,
        mean_price=price,
    )
