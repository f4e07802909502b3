"""Engle-Granger two-step residual-based cointegration testing.

Stage one fits the candidate long-run relation by OLS; stage two runs an
ADF test (constant, automatic lag) on the stage-one residuals.  Because
those residuals are estimated, the plain Dickey-Fuller critical values do
not apply; the verdict compares the residual statistic against the
Davidson-MacKinnon asymptotic constants for the residual-based test with
constant term, tabulated by the number of variables in the cointegrating
regression.  The MacKinnon p-value carried on the residual AdfResult is
informational only, since it comes from the one-variable unit-root
surface rather than the residual-test distribution.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from .errors import InvalidArgumentError, UnsupportedConfigError
from .ols import OlsFit, fit
from .series import TimeSeries
from .unit_root import (
    LEVELS,
    AdfResult,
    _data_table,
    adf_test,
    verdict_from_t,
)

__all__ = [
    "CointVerdict",
    "CointResult",
    "dm_critical_values",
    "engle_granger",
]


class CointVerdict(enum.Enum):
    """Outcome of the residual-based cointegration test."""

    COINTEGRATED_AT_1 = "cointegrated_at_1"
    COINTEGRATED_AT_5 = "cointegrated_at_5"
    COINTEGRATED_AT_10 = "cointegrated_at_10"
    NOT_COINTEGRATED = "not_cointegrated"

    @property
    def level(self) -> int | None:
        """Tightest significance level at which cointegration holds."""
        return {
            CointVerdict.COINTEGRATED_AT_1: 1,
            CointVerdict.COINTEGRATED_AT_5: 5,
            CointVerdict.COINTEGRATED_AT_10: 10,
        }.get(self)


@dataclass(frozen=True)
class CointResult:
    """Both Engle-Granger stages plus the Davidson-MacKinnon verdict."""

    stage1: OlsFit
    residual_test: AdfResult
    critical_values_dm: Mapping[int, float]
    verdict: CointVerdict

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "critical_values_dm", MappingProxyType(dict(self.critical_values_dm))
        )


def dm_critical_values(n_variables: int, level: int) -> float:
    """Asymptotic Engle-Granger critical value (constant-term case)."""
    table = _data_table("engle_granger_crit.txt")
    if n_variables not in table:
        raise UnsupportedConfigError(
            f"cointegrating regression must have {min(table)}..{max(table)} "
            f"variables including the dependent, got {n_variables}"
        )
    if level not in LEVELS:
        raise InvalidArgumentError(f"level must be one of {LEVELS}, got {level}")
    return table[n_variables][LEVELS.index(level)]


_VERDICT_BY_LEVEL = {
    1: CointVerdict.COINTEGRATED_AT_1,
    5: CointVerdict.COINTEGRATED_AT_5,
    10: CointVerdict.COINTEGRATED_AT_10,
    None: CointVerdict.NOT_COINTEGRATED,
}


def engle_granger(
    dependent: TimeSeries,
    regressors: Sequence[TimeSeries],
    *,
    max_lag: int = 5,
    resid_name: str = "RESID",
) -> CointResult:
    """Run both Engle-Granger stages: fit ``dependent`` on ``regressors``, test the residuals.

    The number of variables (dependent plus regressors, constant
    excluded) must be between 2 and 6, the range the embedded
    Davidson-MacKinnon table covers; that is checked before stage one is
    fitted.  ``max_lag`` bounds the residual ADF lag search.
    """
    n_variables = 1 + len(regressors)
    dm_cvs = {level: dm_critical_values(n_variables, level) for level in LEVELS}
    stage1 = fit(dependent, regressors)
    assert stage1.residual_series is not None
    residual_test = adf_test(stage1.residual_series.with_name(resid_name), max_lag)
    level = verdict_from_t(residual_test.t_statistic, dm_cvs).level
    return CointResult(
        stage1=stage1,
        residual_test=residual_test,
        critical_values_dm=dm_cvs,
        verdict=_VERDICT_BY_LEVEL[level],
    )
