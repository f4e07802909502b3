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

Each variable asks its fresh stream once for all its draws.  A
splitmix64 state only ever adds a constant, so the whole block of
uniforms is computed at once in numpy ``uint64``, whose arithmetic wraps
exactly as the 64-bit mask does.  Box-Muller then mixes libm and numpy
without moving a bit from the one-pair-at-a-time Python form, which the
tests keep as the reference for these draws.  Only the
transcendental steps call libm: ``math.log``, ``math.cos`` and
``math.sin`` are mapped over the uniforms into ``np.fromiter``.  The
rest is numpy on whole arrays: the ``-2.0`` and ``2π`` products, the
radius times the cosine or sine, and the square root.  IEEE 754 rounds a
product and a square root correctly, so numpy and Python floats agree on
them bit for bit.  ``np.log`` is not used: it differs from libm's log on
some of the stream's uniforms, and numpy promises no particular bits for
it (or for ``np.cos`` and ``np.sin``).  The processes' recurrences run
over Python floats, draw by draw, in the order they always did (a
``cumsum`` would round in another order), reading the shocks through a
``memoryview`` and appending to an ``array('d')`` that numpy then adopts.
"""

from __future__ import annotations

import math
from array import array

import numpy as np

from .errors import InvalidArgumentError
from .market import MarketData, _first
from .series import _Frozen, trading_dates

__all__ = ["gen_market_days"]

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
# The weekdays of trading_dates from 2012-01-03 through 9999-12-31.
_MAX_DAYS = 2_083_969


def _fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _normals(seed: int, label: str, n: int) -> np.ndarray:
    """The first ``n`` standard-normal draws of the ``"label:seed"`` stream.

    The state is seeded by FNV-1a hashing ``"label:seed"`` and advanced
    by splitmix64; each 64-bit output yields a uniform in (0, 1) from its
    top 53 bits offset by half a unit in the last place, and Box-Muller
    turns each uniform pair into a cosine draw and then a sine draw.  An
    odd ``n`` drops the last sine draw.  Every step is integer arithmetic,
    an exactly rounded float operation or a libm call, with no dependence
    on platform RNG implementations.
    """
    pairs = (n + 1) // 2
    z = np.arange(1, 2 * pairs + 1, dtype=np.uint64)
    z *= _U64_GAMMA
    z += np.uint64(_fnv1a64(f"{label}:{seed}".encode("utf-8")))
    z ^= z >> np.uint64(30)
    z *= _U64_MIX1
    z ^= z >> np.uint64(27)
    z *= _U64_MIX2
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    # Below 2**53 the top bits convert exactly; the rest is one float add
    # and an exact scaling.
    uniforms = z.astype(np.float64)
    del z  # not held while Box-Muller allocates its arrays
    uniforms += 0.5
    uniforms *= 2.0**-53
    # libm's log, cos and sin, one Python float at a time; numpy's
    # products and square root round as Python's do.
    radius = np.fromiter(map(math.log, memoryview(uniforms)[::2]), np.float64, pairs)
    radius *= -2.0
    np.sqrt(radius, out=radius)
    angle = uniforms[1::2]
    angle *= 2.0 * math.pi
    angles = memoryview(angle)
    out = np.empty(2 * pairs)
    out[::2] = np.fromiter(map(math.cos, angles), np.float64, pairs)
    out[1::2] = np.fromiter(map(math.sin, angles), np.float64, pairs)
    out[::2] *= radius
    out[1::2] *= radius
    return out[:n]


def _reflected_walk(seed: int, label: str, n: int, y0: float, scale: float) -> np.ndarray:
    """Driftless random walk from y0 kept positive by reflection at zero."""
    shocks = _normals(seed, label, n)
    shocks *= scale
    out = array("d")
    append = out.append
    level = y0
    for shock in memoryview(shocks):
        level = abs(level + shock)
        append(level)
    return np.frombuffer(out)


def _ar1(seed: int, label: str, n: int, phi: float, scale: float) -> np.ndarray:
    """Mean-zero AR(1), first value from the stationary law; zeros at scale 0."""
    if scale == 0.0:
        return np.zeros(n)
    # n + 1 draws: the first starts the process, the last is never used.
    draws = _normals(seed, label, n + 1)
    x = scale / math.sqrt(1.0 - phi * phi) * float(draws[0])
    shocks = draws[1:]
    shocks *= scale
    out = array("d")
    append = out.append
    for shock in memoryview(shocks):
        append(x)
        x = phi * x + shock
    return np.frombuffer(out)


def _ar1_around(
    seed: int, label: str, n: int, level: float, phi: float, scale: float
) -> np.ndarray:
    """Level plus stationary AR(1) deviations, reflected to stay positive."""
    values = _ar1(seed, label, n, phi, scale)
    values += level
    return np.abs(values, out=values)


def gen_market_days(*, seed: int = 0, n_days: int = 255, noise_scale: float = 1.0,
                    break_factor: float = 1.0, break_index: int | None = None) -> MarketData:
    """Generate market data for ``n_days`` trading dates from the fixed process.

    Only these settings vary; the process itself is fixed.
    ``noise_scale`` multiplies the innovation scales of the stationary
    processes (R, stock counts, price); at 0 they degenerate to constants
    and u becomes an exact linear function of I.  ``break_factor``
    multiplies I from ``break_index`` on (1.0 means no break; None puts
    it mid-sample).  Every setting is checked before anything is drawn.
    A break factor or noise scale so large that a value leaves the float
    range is an error naming that setting and the first such day.
    """
    if n_days < 30:
        raise InvalidArgumentError(f"n_days must be >= 30, got {n_days}")
    if n_days > _MAX_DAYS:
        raise InvalidArgumentError(
            f"n_days must be <= {_MAX_DAYS}, the weekdays from 2012-01-03 "
            f"through 9999-12-31, got {n_days}"
        )
    if not math.isfinite(break_factor):
        raise InvalidArgumentError(
            f"break_factor must be finite, got {break_factor}"
        )
    if break_factor <= 0:
        raise InvalidArgumentError(
            f"break_factor must be > 0, got {break_factor}"
        )
    if not math.isfinite(noise_scale):
        raise InvalidArgumentError(
            f"noise_scale must be finite, got {noise_scale}"
        )
    if noise_scale < 0:
        raise InvalidArgumentError(
            f"noise_scale must be >= 0, got {noise_scale}"
        )
    if break_index is not None and not 0 < break_index < n_days:
        raise InvalidArgumentError(
            f"break_index must be inside 1..{n_days - 1}, "
            f"got {break_index}"
        )
    n, ns = n_days, noise_scale
    dates = trading_dates(n)
    if break_index is None:
        break_index = n // 2
    with np.errstate(over="ignore", invalid="ignore"):
        invest = _reflected_walk(seed, "invest", n, _I0, _I_SCALE)
        if break_factor != 1.0:
            invest[break_index:] *= break_factor
        rate = _ar1_around(seed, "rate", n, _R0, _R_PHI, ns * _R_SCALE)
        u_vol = _ar1_around(seed, "u_vol", n, _UVOL0, _UVOL_PHI, ns * _UVOL_SCALE)
        u_dep = _reflected_walk(seed, "u_dep", n, _DEP0, ns * _DEP_SCALE)
        u_dep += u_vol  # the walk plus U_vol: the bits of U_vol plus the walk
        price = _ar1_around(seed, "price", n, _PRICE0, _PRICE_PHI, ns * _PRICE_SCALE)
    columns = {"invest_i": invest, "rate_r": rate, "u_big_vol": u_vol,
               "u_big_dep": u_dep, "mean_price": price}
    for name, column in columns.items():
        bad = _first(~np.isfinite(column))
        if bad is not None:
            flag, value = (("break_factor", break_factor) if name == "invest_i"
                           else ("noise_scale", noise_scale))
            raise InvalidArgumentError(
                f"{flag} {value} carries {name} past the float "
                f"range on {dates[bad]}"
            )
    return MarketData(dates=_Frozen(dates),
                      **{name: _Frozen(column) for name, column in columns.items()})
