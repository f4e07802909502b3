"""Augmented Dickey-Fuller unit-root testing.

The test regression is Δy_t = c + γ·y_{t−1} + Σ φ_i·Δy_{t−i} + ε_t with
the t-statistic on γ compared against MacKinnon finite-sample critical
values.  Lag length is picked automatically by the Schwarz criterion over
0..max_lag, with every candidate fitted on the common sample implied by
max_lag so the criteria are comparable; the winning lag is then refitted
on its own longest sample.  The regression always carries a constant
and no trend, the only case the shipped tables cover.

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
from .ols import OlsFit, fit_arrays
from .series import TimeSeries, diff

__all__ = [
    "Verdict",
    "AdfSpec",
    "AdfResult",
    "LadderResult",
    "adf_regression",
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
class AdfSpec:
    """Configuration of an ADF run.

    ``fixed_lag=None`` selects the lag automatically by the Schwarz
    criterion; an integer pins it.
    """

    max_lag: int = 5
    fixed_lag: int | None = None

    def __post_init__(self) -> None:
        if self.max_lag < 0:
            raise InvalidArgumentError(f"max_lag must be >= 0, got {self.max_lag}")
        if self.fixed_lag is not None and not 0 <= self.fixed_lag <= self.max_lag:
            raise InvalidArgumentError(
                f"fixed_lag must be in 0..max_lag={self.max_lag}, got {self.fixed_lag}"
            )


@dataclass(frozen=True)
class AdfResult:
    """ADF test outcome with its auxiliary regression."""

    series_name: str
    t_statistic: float
    p_value: float
    chosen_lag: int
    auto_lag: bool
    max_lag: int
    effective_obs: int
    critical_values: Mapping[int, float]
    verdict: Verdict
    regression: OlsFit

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


@lru_cache(maxsize=1)
def _crit_table() -> dict[int, tuple[float, ...]]:
    rows: dict[int, tuple[float, ...]] = {}
    text = resources.files("specloss").joinpath("data/mackinnon_crit.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        rows[int(parts[0])] = tuple(float(p) for p in parts[1:])
    return rows


@dataclass(frozen=True)
class _PvalRow:
    tau_min: float
    tau_star: float
    tau_max: float
    small: tuple[float, float, float]
    large: tuple[float, float, float, float]


@lru_cache(maxsize=1)
def _pval_table() -> dict[int, _PvalRow]:
    rows: dict[int, _PvalRow] = {}
    text = resources.files("specloss").joinpath("data/mackinnon_pval.txt").read_text()
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = [float(p) for p in line.split()]
        rows[int(parts[0])] = _PvalRow(
            tau_min=parts[1],
            tau_star=parts[2],
            tau_max=parts[3],
            small=(parts[4], parts[5], parts[6]),
            large=(parts[7], parts[8], parts[9], parts[10]),
        )
    return rows


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
    b_inf, b1, b2, b3 = _crit_table()[level]
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
    """
    table = _pval_table()
    if n_variables not in table:
        raise UnsupportedConfigError(
            f"n_variables must be in 1..{max(table)}, got {n_variables}"
        )
    row = table[n_variables]
    if math.isnan(t_stat):
        return math.nan
    if t_stat < row.tau_min:
        return _PVAL_CLAMP_LO
    if t_stat > row.tau_max:
        return _PVAL_CLAMP_HI
    if t_stat <= row.tau_star:
        c0, c1, c2 = row.small
        z = c0 + c1 * t_stat + c2 * t_stat**2
    else:
        d0, d1, d2, d3 = row.large
        t = t_stat
        # The fitted cubic turns over just below tau_max for some rows;
        # freeze it at its local maximum so p stays monotone in t.
        disc = d2 * d2 - 3.0 * d3 * d1
        if d3 < 0.0 and disc > 0.0:
            t_peak = (-d2 - math.sqrt(disc)) / (3.0 * d3)
            t = min(t, t_peak)
        z = d0 + d1 * t + d2 * t**2 + d3 * t**3
    return min(max(_norm_cdf(z), _PVAL_CLAMP_LO), _PVAL_CLAMP_HI)


def _adf_fit(yv: np.ndarray, name: str, lag: int, start: int) -> OlsFit:
    """Fit the ADF regression using observations t = start..N-1.

    ``start`` must be at least lag+1 so every lagged difference exists.
    """
    n = yv.shape[0]
    dy = yv[1:] - yv[:-1]
    dep = dy[start - 1 :]
    label = name or "Y"
    names = ["C", f"{label}(-1)"]
    cols = [np.ones(n - start), yv[start - 1 : n - 1]]
    for i in range(1, lag + 1):
        names.append(f"D({label}(-{i}))")
        cols.append(dy[start - 1 - i : n - 1 - i])
    x = np.column_stack(cols)
    return fit_arrays(dep, x, dep_name=f"D({label})", reg_names=names)


def adf_regression(y: TimeSeries, lag: int) -> OlsFit:
    """ADF auxiliary regression at a given lag, longest usable sample.

    Effective observations are ``len(y) - 1 - lag``; the ADF statistic is
    the t-statistic of the second coefficient row (on the lagged level).
    """
    if lag < 0:
        raise InvalidArgumentError(f"lag must be >= 0, got {lag}")
    n = len(y)
    if n - 1 - lag <= lag + 2:
        raise InsufficientDataError(
            f"series of length {n} is too short for an ADF regression with lag {lag}"
        )
    return _adf_fit(y.values, y.name, lag, start=lag + 1)


def select_lag(y: TimeSeries, max_lag: int) -> int:
    """Pick the lag in 0..max_lag minimizing the Schwarz criterion.

    All candidates are fitted on the sample implied by max_lag so their
    criteria are comparable; ties go to the smaller lag.
    """
    if max_lag < 0:
        raise InvalidArgumentError(f"max_lag must be >= 0, got {max_lag}")
    n = len(y)
    if n - 1 - max_lag <= max_lag + 2:
        raise InsufficientDataError(
            f"series of length {n} is too short for lag selection with max_lag {max_lag}"
        )
    best_lag = 0
    best_sc = math.inf
    for lag in range(max_lag + 1):
        sc = _adf_fit(y.values, y.name, lag, start=max_lag + 1).schwarz
        if sc < best_sc:
            best_sc = sc
            best_lag = lag
    return best_lag


def verdict_from_t(t_stat: float, critical_values: Mapping[int, float]) -> Verdict:
    """Classify a one-sided (left-tail) statistic against 1/5/10% values."""
    if t_stat < critical_values[1]:
        return Verdict.REJECT_AT_1
    if t_stat < critical_values[5]:
        return Verdict.REJECT_AT_5
    if t_stat < critical_values[10]:
        return Verdict.REJECT_AT_10
    return Verdict.NO_REJECT


def adf_test(y: TimeSeries, spec: AdfSpec = AdfSpec()) -> AdfResult:
    """Run the ADF test: lag choice, regression, critical values, verdict."""
    if spec.fixed_lag is not None:
        lag = spec.fixed_lag
    else:
        lag = select_lag(y, spec.max_lag)
    reg = adf_regression(y, lag)
    t_stat = reg.coef_rows[1].t_stat
    t_eff = reg.nobs
    cvs = {
        level: mackinnon_critical_values(level, t_eff) for level in LEVELS
    }
    return AdfResult(
        series_name=y.name,
        t_statistic=t_stat,
        p_value=mackinnon_pvalue(t_stat),
        chosen_lag=lag,
        auto_lag=spec.fixed_lag is None,
        max_lag=spec.max_lag,
        effective_obs=t_eff,
        critical_values=cvs,
        verdict=verdict_from_t(t_stat, cvs),
        regression=reg,
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


def stationarity_ladder(y: TimeSeries, spec: AdfSpec = AdfSpec()) -> LadderResult:
    """Test the level; if it fails to reject at 5%, test first differences."""
    level_result = adf_test(y, spec)
    diff_result = None
    if not level_result.verdict.rejects_at_5:
        diff_result = adf_test(diff(y), spec)
    return LadderResult(
        level_result=level_result,
        diff_result=diff_result,
        classification=classify_ladder(
            level_result.verdict, diff_result.verdict if diff_result else None
        ),
    )
