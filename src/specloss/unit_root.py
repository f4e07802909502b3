"""Augmented Dickey-Fuller unit-root testing.

The test regression is Δy_t = c + γ·y_{t−1} + Σ φ_i·Δy_{t−i} + ε_t with
the t-statistic on γ compared against MacKinnon finite-sample critical
values.  Lag length is picked automatically by the Schwarz criterion over
0..max_lag, with every candidate scored on the common sample implied by
max_lag so the criteria are comparable.  On that sample each candidate's
design is a column prefix of the max_lag design, so one factorization of
the max_lag design yields every candidate's SSR and no candidate is
fitted.  Only the index of the least criterion is read, so it is taken
from the Cholesky factor of that design's Gram matrix wherever a bound
on both routes' errors certifies it equal to the Householder QR's; a
near-tie or a design the QR would scale or reject runs the exact QR
search instead.  Only the winning lag is refitted, on its own longest
sample, and only for the t-statistic on γ: each ADF test runs one
Householder QR, two on a fallback.  The least-squares core of
:mod:`specloss.ols` does all three, and its range rule scales a series
outside its band first.  The regression always carries a constant and no
trend, the only case the shipped tables cover.

Critical values use the MacKinnon (2010) response surface evaluated at
the regression's included observations, T_eff = N − 1 − lag.  P-values
use the MacKinnon (1994/1996) asymptotic surface.  Both coefficient
tables ship as data files with provenance headers.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import (
    InsufficientDataError,
    InvalidArgumentError,
    UnsupportedConfigError,
)
from .ols import (
    _ONES,
    _U,
    _factor,
    _gram_ssrs,
    _scaled,
    _scaled_back,
    _solve,
    _t_ratio,
    log_likelihood_from_ssr,
    schwarz_from_loglik,
)
from .series import TimeSeries, _Frozen, diff

__all__ = [
    "Verdict",
    "AdfResult",
    "LadderResult",
    "select_lag",
    "adf_test",
    "mackinnon_critical_values",
    "mackinnon_pvalue",
    "stationarity_ladder",
    "verdict_from_t",
    "classify_ladder",
]

LEVELS = (1, 5, 10)

_PVAL_CLAMP_LO = 1e-6
_PVAL_CLAMP_HI = 0.9999
# The factor by which every other lag's Schwarz criterion must exceed the
# least by more than both routes' error bounds for the Gram route's choice.
_SIC_SAFETY = 100.0


class Verdict(enum.Enum):
    """Outcome of comparing a test statistic against its critical values."""

    REJECT_AT_1 = "reject_at_1"
    REJECT_AT_5 = "reject_at_5"
    REJECT_AT_10 = "reject_at_10"
    NO_REJECT = "no_reject"

    @property
    def rejects_at_5(self) -> bool:
        return self in (Verdict.REJECT_AT_1, Verdict.REJECT_AT_5)

    @property
    def level(self) -> int | None:
        """Tightest significance level rejected at, or None."""
        return {
            Verdict.REJECT_AT_1: 1,
            Verdict.REJECT_AT_5: 5,
            Verdict.REJECT_AT_10: 10,
        }.get(self)


@dataclass(frozen=True)
class AdfResult:
    """ADF test outcome: the chosen lag, its t-statistic on y(-1) and their verdict."""

    series_name: str
    t_statistic: float
    p_value: float
    chosen_lag: int
    max_lag: int
    effective_obs: int
    critical_values: Mapping[int, float]
    verdict: Verdict

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "critical_values", MappingProxyType(dict(self.critical_values))
        )


@dataclass(frozen=True)
class LadderResult:
    """Level test, optional first-difference test, and the verdict text."""

    level_result: AdfResult
    diff_result: AdfResult | None
    classification: str


@lru_cache(maxsize=None)
def _data_table(filename: str) -> dict[int, tuple[float, ...]]:
    """A shipped coefficient table: numeric rows keyed by their first field."""
    text = resources.files("specloss").joinpath("data", filename).read_text()
    rows = (line.split() for line in text.splitlines())
    return {int(parts[0]): tuple(float(p) for p in parts[1:])
            for parts in rows if parts and not parts[0].startswith("#")}


def mackinnon_critical_values(level: int, t_eff: int) -> float:
    """Finite-sample Dickey-Fuller critical value at ``t_eff`` observations.

    Evaluates the MacKinnon (2010) response surface
    cv = b_inf + b1/T + b2/T^2 + b3/T^3 of the one-variable,
    constant-only table.
    """
    if level not in LEVELS:
        raise InvalidArgumentError(f"level must be one of {LEVELS}, got {level}")
    if t_eff <= 0:
        raise InvalidArgumentError(f"t_eff must be positive, got {t_eff}")
    b_inf, b1, b2, b3 = _data_table("mackinnon_crit.txt")[level]
    t = float(t_eff)
    return b_inf + b1 / t + b2 / t**2 + b3 / t**3


def _norm_cdf(z: float) -> float:
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


def mackinnon_pvalue(t_stat: float, *, n_variables: int = 1) -> float:
    """One-sided asymptotic p-value for a Dickey-Fuller tau statistic.

    Uses the MacKinnon p-value response surface: a quadratic in the
    statistic below tau_star (small-p branch), a cubic above it.  Outside
    the surface's fitted range the value is clamped to [1e-6, 0.9999].
    ``n_variables`` counts the variables of a residual-based test, one for
    a plain unit-root test; the constant-only table covers 1..6.

    p is non-decreasing in t within each branch.  Across tau_star it
    rises for n = 1, 3, 4 and 5, but the published surfaces for n = 2
    and n = 6 do not meet there: p drops by 8.09e-4 just above
    t = -2.62 (n = 2) and by 6.49e-4 just above t = -3.93 (n = 6).
    The table is kept as published.
    """
    table = _data_table("mackinnon_pval.txt")
    if n_variables not in table:
        raise UnsupportedConfigError(
            f"n_variables must be in 1..{max(table)}, got {n_variables}"
        )
    tau_min, tau_star, tau_max, c0, c1, c2, d0, d1, d2, d3 = table[n_variables]
    if math.isnan(t_stat):
        return math.nan
    if t_stat < tau_min:
        return _PVAL_CLAMP_LO
    if t_stat > tau_max:
        return _PVAL_CLAMP_HI
    if t_stat <= tau_star:
        z = c0 + c1 * t_stat + c2 * t_stat**2
    else:
        t = t_stat
        # The fitted cubic turns over just below tau_max for some rows;
        # freeze it at its local maximum so p stays monotone on this branch.
        disc = d2 * d2 - 3.0 * d3 * d1
        if d3 < 0.0 and disc > 0.0:
            t_peak = (-d2 - math.sqrt(disc)) / (3.0 * d3)
            t = min(t, t_peak)
        z = d0 + d1 * t + d2 * t**2 + d3 * t**3
    return min(max(_norm_cdf(z), _PVAL_CLAMP_LO), _PVAL_CLAMP_HI)


def _adf_columns(y: TimeSeries, lag: int) -> tuple[np.ndarray, list[np.ndarray], list[str], int]:
    """ADF regression at ``lag`` on its longest sample: (dep, columns, names, e).

    Columns are [C, y(-1), Δy(-1), ..., Δy(-lag)], so the design of a
    smaller lag on this sample is a column prefix of this one.  C is a
    read-only view that holds no n-vector.  They are those of y·2^-e, y as
    :func:`~specloss.ols._scaled` gives it, whose differences are finite.
    """
    n, label = len(y), y.name or "Y"
    if n - 1 - lag <= lag + 2:
        raise InsufficientDataError(f"series {label} of length {n} is too short "
                                    f"for an ADF regression with lag {lag}")
    yv, e = _scaled(y.values)
    dy = yv[1:] - yv[:-1]
    names = ["C", f"{label}(-1)"] + [f"D({label}(-{i}))" for i in range(1, lag + 1)]
    cols = [_ONES[: n - 1 - lag], yv[lag : n - 1]]
    cols += [dy[lag - i : n - 1 - i] for i in range(1, lag + 1)]
    return dy[lag:], cols, names, e


def _schwarz_lag(ssrs: list[float], nobs: int, e: int) -> tuple[int, list[float]]:
    """The lag of the least Schwarz criterion, the first on a tie, and every lag's criterion.

    ``ssrs`` are of the series scaled by 2^-e; they are scored scaled back
    where every one can be, so the choice keeps the bits of the series as
    given.
    """
    if e and None not in (back := [_scaled_back(ssr, 2 * e) for ssr in ssrs]):
        ssrs = back
    scores = [schwarz_from_loglik(log_likelihood_from_ssr(ssr, nobs), nobs, 2 + lag)
              for lag, ssr in enumerate(ssrs)]
    return scores.index(min(scores)), scores


def _qr_lag(dep: np.ndarray, cols: list[np.ndarray], names: list[str], e: int) -> int:
    """The exact search: one Householder QR of the max_lag design gives every SSR.

    The lag-l design is the first 2+l columns of the max_lag design, so
    its SSR is ||(Q'y)[2+l:]||^2 and no candidate is fitted.
    """
    z = _factor(dep, cols, names)[1][2:]  # Q'y past C and y(-1)
    sq = z * z
    ssrs = [float(np.add.reduce(sq[lag:])) for lag in range(len(cols) - 1)]
    return _schwarz_lag(ssrs, len(dep), e)[0]


def _gram_lag(dep: np.ndarray, cols: list[np.ndarray], e: int) -> int | None:
    """The exact search's lag, where the Gram matrix's criteria certify it; else None.

    :func:`~specloss.ols._gram_ssrs` bounds the relative error of each
    lag's SSR, on this route and on the QR's, by delta_l.  A criterion is
    log(SSR/T) plus terms alike on both routes, so each route's lies
    within d_l = delta_l / (1 - delta_l) + s_l of the exact one, s_l
    bounding the rounding of the formula itself (a few ulps of its
    magnitude, the scale-back by 4^e included).  The QR search then picks
    this lag if every other lag's criterion exceeds the least by more
    than 2 (d_best + d_l): the strict inequality keeps its first-minimum
    rule.  ``_SIC_SAFETY`` multiplies that margin.  Where no bound is
    formed, the QR search would raise, scale or settle a near-tie, so it
    runs instead.
    """
    gram = _gram_ssrs(dep, cols, 2)
    if gram is None:
        return None
    ssrs, deltas = gram
    lag, scores = _schwarz_lag(ssrs, len(dep), e)
    slack = 8.0 + 2.0 * abs(e) * math.log(2.0)
    errs = [d / (1.0 - d) + 32 * _U * (abs(sc) + slack) for d, sc in zip(deltas, scores)]
    margin = [2.0 * _SIC_SAFETY * (errs[lag] + err) for err in errs]
    if all(sc - scores[lag] > m for j, (sc, m) in enumerate(zip(scores, margin)) if j != lag):
        return lag
    return None


def select_lag(y: TimeSeries, max_lag: int) -> int:
    """Pick the lag in 0..max_lag minimizing the Schwarz criterion.

    Every candidate is scored on the sample of the max_lag regression so
    their criteria are comparable.  There the lag-l design is the first
    2+l columns of the max_lag design, so one factorization of that
    design gives every candidate's SSR and no candidate is fitted.  The
    Gram matrix's Cholesky factor gives them first; where its criteria
    certify their minimum as the Householder QR's, that lag is returned.
    Else the exact QR search runs: it alone settles a near-tie and raises
    every error.  Ties go to the smaller lag.
    """
    if max_lag < 0:
        raise InvalidArgumentError(f"max_lag must be >= 0, got {max_lag}")
    dep, cols, names, e = _adf_columns(y, max_lag)
    lag = _gram_lag(dep, cols, e)
    return _qr_lag(dep, cols, names, e) if lag is None else lag


def verdict_from_t(t_stat: float, critical_values: Mapping[int, float]) -> Verdict:
    """Classify a one-sided (left-tail) statistic against 1/5/10% values."""
    if t_stat < critical_values[1]:
        return Verdict.REJECT_AT_1
    if t_stat < critical_values[5]:
        return Verdict.REJECT_AT_5
    if t_stat < critical_values[10]:
        return Verdict.REJECT_AT_10
    return Verdict.NO_REJECT


def adf_test(y: TimeSeries, max_lag: int = 5) -> AdfResult:
    """Run the ADF test: lag choice by SIC, t-statistic, critical values, verdict.

    The lag is :func:`select_lag`'s, and its regression is then factored
    on its own longest sample.  The t-statistic takes the float operations
    of :func:`~specloss.ols.fit_arrays` on the same solve, so it has the
    bits of the t-statistic on y(-1) in the full fit of the chosen lag's
    regression.
    """
    lag = select_lag(y, max_lag)
    dep, cols, names, _ = _adf_columns(y, lag)
    beta, se = _solve(dep, cols, names)[:2]  # both scaled alike: t keeps its bits
    t_eff = len(dep)
    t_stat = _t_ratio(float(beta[1]), se[1])
    cvs = {
        level: mackinnon_critical_values(level, t_eff) for level in LEVELS
    }
    return AdfResult(
        series_name=y.name,
        t_statistic=t_stat,
        p_value=mackinnon_pvalue(t_stat),
        chosen_lag=lag,
        max_lag=max_lag,
        effective_obs=t_eff,
        critical_values=cvs,
        verdict=verdict_from_t(t_stat, cvs),
    )


def classify_ladder(level_verdict: Verdict, diff_verdict: Verdict | None) -> str:
    """Summary-table wording for a level test plus optional difference test."""
    lvl = level_verdict.level
    if lvl is not None:
        return f"Variable is stationary at the {lvl}% level of significance"
    if diff_verdict is not None and diff_verdict.level is not None:
        return (
            f"Variable is stationary in first differences at the "
            f"{diff_verdict.level}% level of significance"
        )
    return "Variable is not stationary in levels or first differences"


def stationarity_ladder(y: TimeSeries, max_lag: int = 5) -> LadderResult:
    """Test the level; if it fails to reject at 5%, test first differences.

    These are of y as :func:`~specloss.ols._scaled` gives it: the test is scale-free.
    """
    level_result = adf_test(y, max_lag)
    diff_result = None
    if not level_result.verdict.rejects_at_5:
        yv, e = _scaled(y.values)
        scaled = TimeSeries(_Frozen(y.dates), _Frozen(yv), y.name) if e else y
        diff_result = adf_test(diff(scaled), max_lag)
    return LadderResult(
        level_result=level_result,
        diff_result=diff_result,
        classification=classify_ladder(
            level_result.verdict, diff_result.verdict if diff_result else None
        ),
    )
