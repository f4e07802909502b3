"""Rendering of analysis results as fixed-layout text or machine CSV.

The text layout follows standard econometrics-package output: ADF blocks
with a Null Hypothesis header and critical-value rows, regression tables
with the Variable/Coefficient/Std. Error/t-Statistic/Prob. columns and
the diagnostic pairs from R-squared through Durbin-Watson.  Numbers use
the same convention those packages print: eight significant characters
(decimals = 7 minus integer digits) switching to scientific notation
below 1e-4, probabilities with four decimals.  Rendering is a pure
function of the report object; nothing is recomputed here.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from dataclasses import dataclass
from typing import Mapping

from .cointegration import CointResult
from .market import BreakResult, ConstancyResult, CoverageResult
from .ols import OlsFit
from .unit_root import LEVELS, AdfResult, LadderResult

__all__ = [
    "AnalysisReport",
    "fmt_stat",
    "fmt_prob",
    "render_adf_block",
    "render_regression",
    "render_analysis_text",
    "render_analysis_csv",
]

# The six variables of the analysis, in report order.
VARIABLE_ORDER = ("U_SMALL_VOL", "U_SMALL_DEP", "I", "R", "U_BIG_VOL", "U_BIG_DEP")


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one full pipeline run produced, ready to render.

    A first-approach result is None when its check was skipped.
    """

    n_days: int
    max_lag: int
    break_date: datetime.date
    ladders: Mapping[str, LadderResult]
    coint_by_volume: CointResult
    coint_by_deposit: CointResult
    constancy_vol: ConstancyResult | None
    constancy_dep: ConstancyResult | None
    break_vol: BreakResult | None
    break_dep: BreakResult | None
    break_skipped: str | None  # why break_vol and break_dep are None
    coverage: CoverageResult | None
    mean_price: float | None


def fmt_stat(x: float) -> str:
    """Eight-significant-character fixed format, scientific below 1e-4."""
    if math.isnan(x):
        return "NA"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0.000000"
    ax = abs(x)
    if ax < 1e-4 or ax >= 1e7:
        return f"{x:.2E}"
    digits = int(math.floor(math.log10(ax))) + 1 if ax >= 1.0 else 1
    decimals = max(0, 7 - digits)
    out = f"{x:.{decimals}f}"
    # Rounding can add an integer digit (9.9999999 -> 10.000000); use one
    # fewer decimal then, keeping the total width stable.
    if decimals > 0 and len(out.lstrip("-").split(".")[0]) > digits:
        out = f"{x:.{decimals - 1}f}"
    return out


def fmt_prob(p: float) -> str:
    return "NA" if math.isnan(p) else f"{p:.4f}"


def render_adf_block(
    result: AdfResult,
    *,
    dm_critical: Mapping[int, float] | None = None,
) -> list[str]:
    """One ADF test block.  With ``dm_critical``, the critical-value rows
    show the Davidson-MacKinnon residual-test constants instead."""
    lines = [
        f"Null Hypothesis: {result.series_name} has a unit root",
        "Exogenous: Constant",
        f"Lag Length: {result.chosen_lag} "
        f"(Automatic - based on SIC, maxlag={result.max_lag})",
        "",
        f"{'':38}{'t-Statistic':>13}{'Prob.*':>11}",
        f"{'Augmented Dickey-Fuller test statistic':38}"
        f"{fmt_stat(result.t_statistic):>13}{fmt_prob(result.p_value):>11}",
    ]
    cvs = dm_critical if dm_critical is not None else result.critical_values
    fmt = (lambda v: f"{v:.2f}") if dm_critical is not None else fmt_stat
    for i, level in enumerate(LEVELS):
        label = "Test critical values:" if i == 0 else ""
        lines.append(f"{label:24}{f'{level}% level':14}{fmt(cvs[level]):>13}")
    lines.append("")
    lines.append("*MacKinnon (1996) one-sided p-values.")
    if dm_critical is not None:
        lines.append(
            "Critical values: Davidson-MacKinnon (1993) asymptotic constants "
            "for residual-based cointegration tests with constant term."
        )
    return lines


def render_regression(fit: OlsFit) -> list[str]:
    """The regression table in the standard field order."""
    nobs = fit.nobs
    lines = [
        f"Dependent Variable: {fit.dep_name}",
        "Method: Least Squares",
        f"Sample: 1 {nobs}",
        f"Included observations: {nobs}",
        "",
        f"{'Variable':20}{'Coefficient':>12}{'Std. Error':>13}"
        f"{'t-Statistic':>14}{'Prob.':>9}",
    ]
    for row in fit.coef_rows:
        lines.append(
            f"{row.name:20}{fmt_stat(row.coef):>12}{fmt_stat(row.std_err):>13}"
            f"{fmt_stat(row.t_stat):>14}{fmt_prob(row.p_value):>9}"
        )
    lines.append("")
    pairs = [
        ("R-squared", fit.r_squared, "Mean dependent var", fit.mean_dep),
        ("Adjusted R-squared", fit.adj_r_squared, "S.D. dependent var", fit.sd_dep),
        ("S.E. of regression", fit.se_regression, "Akaike info criterion", fit.aic),
        ("Sum squared resid", fit.ssr, "Schwarz criterion", fit.schwarz),
        ("Log likelihood", fit.log_likelihood, "Hannan-Quinn criter.", fit.hannan_quinn),
        ("F-statistic", fit.f_statistic, "Durbin-Watson stat", fit.durbin_watson),
    ]
    for left_label, left, right_label, right in pairs:
        lines.append(
            f"{left_label:22}{fmt_stat(left):>12}   "
            f"{right_label:22}{fmt_stat(right):>12}"
        )
    f_prob = "NA" if math.isnan(fit.f_prob) else f"{fit.f_prob:.6f}"
    lines.append(f"{'Prob(F-statistic)':22}{f_prob:>12}")
    return lines


def _sign_conclusion(fit: OlsFit, u_name: str) -> list[str]:
    """Relate each coefficient's sign to the formula's prediction."""
    signs = {row.name: row.coef for row in fit.coef_rows if row.name != "C"}
    u_coef = signs.get(u_name)
    r_coef = signs.get("R")
    i_coef = signs.get("I")
    if u_coef is None or r_coef is None or i_coef is None:
        return []
    if r_coef > 0 and i_coef > 0 and u_coef < 0:
        return [
            "Coefficient signs match the formula: R and I have positive "
            "coefficients (direct relationship with the dependent variable u), "
            f"{u_name} has a negative coefficient (inverse relationship with "
            "the dependent variable u).",
        ]
    parts = [
        f"{name} {'positive' if coef > 0 else 'negative' if coef < 0 else 'zero'}"
        for name, coef in ((u_name, u_coef), ("R", r_coef), ("I", i_coef))
    ]
    return ["Coefficient signs do not all match the formula: " + ", ".join(parts) + "."]


def _coint_sentence(label: str, result: CointResult) -> str:
    level = result.verdict.level
    if level is None:
        return (
            f"Residuals of the {label} regression do not reject a unit root "
            f"at the 10% level; no cointegration is found."
        )
    return (
        f"Residuals of the {label} regression are stationary at the {level}% "
        f"level of significance; the variables are cointegrated."
    )


def _rule(title: str) -> list[str]:
    bar = "=" * 72
    return [bar, title, bar]


def render_analysis_text(report: AnalysisReport) -> str:
    """The full fixed-layout report, one string, trailing newline."""
    out: list[str] = []
    out += _rule("Unit-root tests")
    for name in VARIABLE_ORDER:
        ladder = report.ladders[name]
        out.append("")
        out.append(f"ADF test results (level): {name}")
        out.append("")
        out += render_adf_block(ladder.level_result)
        if ladder.diff_result is not None:
            out.append("")
            out.append(f"ADF test results (first differences): {name}")
            out.append("")
            out += render_adf_block(ladder.diff_result)
    out.append("")
    out += _rule("Unit-root summary")
    out.append("")
    width = max(len(name) for name in VARIABLE_ORDER) + 2
    for name in VARIABLE_ORDER:
        out.append(f"{name:{width}}{report.ladders[name].classification}")
    for label, coint, u_name, resid in (
        ("Cointegrating regression 1 (U by volume)",
         report.coint_by_volume, "U_BIG_VOL", "RESID1"),
        ("Cointegrating regression 2 (U by deposit)",
         report.coint_by_deposit, "U_BIG_DEP", "RESID2"),
    ):
        out.append("")
        out += _rule(label)
        out.append("")
        out += render_regression(coint.stage1)
        out.append("")
        out.append(f"ADF test results for residuals: {resid}")
        out.append("")
        out += render_adf_block(coint.residual_test, dm_critical=coint.critical_values_dm)
    out.append("")
    out += _rule("First-approach analysis")
    out.append("")
    for label, constancy in (
        ("by volume", report.constancy_vol),
        ("by deposit", report.constancy_dep),
    ):
        if constancy is None:
            out.append(f"Constancy ({label}): skipped, no mean price available.")
        else:
            out.append(
                f"Constancy ({label}): mean {fmt_stat(constancy.mean)} kopecks, "
                f"stddev {fmt_stat(constancy.stddev)}, "
                f"threshold {fmt_stat(constancy.threshold)}, "
                f"passes: {'yes' if constancy.passes else 'no'}"
            )
    for label, brk in (
        ("by volume", report.break_vol),
        ("by deposit", report.break_dep),
    ):
        head = f"Break at {report.break_date.isoformat()} ({label})"
        if brk is None:
            out.append(f"{head} skipped: {report.break_skipped}")
            continue
        out.append(
            f"{head}: mean before {fmt_stat(brk.mean_before)}, "
            f"after {fmt_stat(brk.mean_after)}, ratio {fmt_stat(brk.ratio)}"
        )
    if report.coverage is None:
        out.append("Coverage: skipped, no mean price available.")
    else:
        out.append(
            f"Coverage: stock utilization {fmt_stat(report.coverage.stock_utilization)}, "
            f"money coverage {fmt_stat(report.coverage.money_coverage)}"
        )
    out.append("")
    out += _rule("Conclusions")
    out.append("")
    out.append(_coint_sentence("by-volume", report.coint_by_volume))
    out += _sign_conclusion(report.coint_by_volume.stage1, "U_BIG_VOL")
    out.append(_coint_sentence("by-deposit", report.coint_by_deposit))
    out += _sign_conclusion(report.coint_by_deposit.stage1, "U_BIG_DEP")
    return "\n".join(out) + "\n"


def _csv_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        # Plain float repr is the shortest round-trip form; numpy scalars
        # would otherwise repr as np.float64(...).
        return repr(float(value))
    return str(value)


def _adf_rows(table: str, result: AdfResult) -> list[tuple[str, str, str]]:
    rows = [
        (table, "series", result.series_name),
        (table, "t_statistic", _csv_value(result.t_statistic)),
        (table, "p_value", _csv_value(result.p_value)),
        (table, "lag", str(result.chosen_lag)),
        (table, "effective_obs", str(result.effective_obs)),
        (table, "verdict", result.verdict.value),
    ]
    for level in LEVELS:
        rows.append((table, f"cv_{level}", _csv_value(result.critical_values[level])))
    return rows


def _ols_rows(table: str, fit: OlsFit) -> list[tuple[str, str, str]]:
    rows = [(table, "dependent", fit.dep_name), (table, "nobs", str(fit.nobs))]
    for row in fit.coef_rows:
        rows += [
            (table, f"coef.{row.name}", _csv_value(row.coef)),
            (table, f"stderr.{row.name}", _csv_value(row.std_err)),
            (table, f"tstat.{row.name}", _csv_value(row.t_stat)),
            (table, f"prob.{row.name}", _csv_value(row.p_value)),
        ]
    rows += [
        (table, "r_squared", _csv_value(fit.r_squared)),
        (table, "adj_r_squared", _csv_value(fit.adj_r_squared)),
        (table, "se_regression", _csv_value(fit.se_regression)),
        (table, "ssr", _csv_value(fit.ssr)),
        (table, "log_likelihood", _csv_value(fit.log_likelihood)),
        (table, "aic", _csv_value(fit.aic)),
        (table, "schwarz", _csv_value(fit.schwarz)),
        (table, "hannan_quinn", _csv_value(fit.hannan_quinn)),
        (table, "f_statistic", _csv_value(fit.f_statistic)),
        (table, "f_prob", _csv_value(fit.f_prob)),
        (table, "durbin_watson", _csv_value(fit.durbin_watson)),
        (table, "mean_dep", _csv_value(fit.mean_dep)),
        (table, "sd_dep", _csv_value(fit.sd_dep)),
    ]
    return rows


def render_analysis_csv(report: AnalysisReport) -> str:
    """Flat (table, field, value) triples for scripted assertions."""
    rows: list[tuple[str, str, str]] = [
        ("run", "n_days", str(report.n_days)),
        ("run", "max_lag", str(report.max_lag)),
        ("run", "break_date", report.break_date.isoformat()),
    ]
    for name in VARIABLE_ORDER:
        ladder = report.ladders[name]
        rows += _adf_rows(f"adf.{name}.level", ladder.level_result)
        if ladder.diff_result is not None:
            rows += _adf_rows(f"adf.{name}.diff", ladder.diff_result)
        rows.append((f"ladder.{name}", "classification", ladder.classification))
    for key, coint in (
        ("by_volume", report.coint_by_volume),
        ("by_deposit", report.coint_by_deposit),
    ):
        rows += _ols_rows(f"ols.{key}", coint.stage1)
        rows += _adf_rows(f"resid.{key}", coint.residual_test)
        for level in LEVELS:
            rows.append(
                (f"coint.{key}", f"dm_cv_{level}",
                 _csv_value(coint.critical_values_dm[level]))
            )
        rows.append((f"coint.{key}", "verdict", coint.verdict.value))
    for key, constancy in (
        ("by_volume", report.constancy_vol),
        ("by_deposit", report.constancy_dep),
    ):
        if constancy is not None:
            rows += [
                (f"constancy.{key}", "mean", _csv_value(constancy.mean)),
                (f"constancy.{key}", "stddev", _csv_value(constancy.stddev)),
                (f"constancy.{key}", "threshold", _csv_value(constancy.threshold)),
                (f"constancy.{key}", "passes", _csv_value(constancy.passes)),
            ]
    for key, brk in (
        ("by_volume", report.break_vol),
        ("by_deposit", report.break_dep),
    ):
        if brk is not None:
            rows += [
                (f"break.{key}", "mean_before", _csv_value(brk.mean_before)),
                (f"break.{key}", "mean_after", _csv_value(brk.mean_after)),
                (f"break.{key}", "ratio", _csv_value(brk.ratio)),
            ]
    if report.coverage is not None:
        rows += [
            ("coverage", "stock_utilization",
             _csv_value(report.coverage.stock_utilization)),
            ("coverage", "money_coverage", _csv_value(report.coverage.money_coverage)),
        ]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["table", "field", "value"])
    writer.writerows(rows)
    return buffer.getvalue()
