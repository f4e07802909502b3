"""Rendering of analysis results as fixed-layout text or machine CSV.

The text layout follows standard econometrics-package output: ADF blocks
with a Null Hypothesis header and critical-value rows, regression tables
with the Variable/Coefficient/Std. Error/t-Statistic/Prob. columns and
the diagnostic pairs from R-squared through Durbin-Watson.  Numbers use
the same convention those packages print: eight significant characters
(decimals = 7 minus integer digits) switching to scientific notation
below 1e-4, probabilities with four decimals.  Rendering is a pure
function of the report object; nothing is recomputed here.

A skipped first-approach check holds a ``Skipped(reason)`` in place of its
result: the text prints the reason, and the CSV has no rows for it, where
any other result has one row per dataclass field.
"""

from __future__ import annotations

import csv
import datetime
import io
import math
from dataclasses import dataclass, fields
from typing import Mapping

from .cointegration import CointResult
from .market import BreakResult, ConstancyResult, CoverageResult, UVariant
from .ols import OlsFit
from .unit_root import LEVELS, AdfResult, LadderResult

__all__ = [
    "AnalysisReport",
    "Skipped",
    "VariantResult",
    "fmt_stat",
    "fmt_prob",
    "render_adf_block",
    "render_regression",
    "render_analysis_text",
    "render_analysis_csv",
]

@dataclass(frozen=True)
class Skipped:
    """Stands for a first-approach result whose check the data cannot support."""

    reason: str


@dataclass(frozen=True)
class VariantResult:
    """The analysis of u for one U variant."""

    variant: UVariant
    coint: CointResult
    constancy: ConstancyResult | Skipped
    break_means: BreakResult | Skipped


@dataclass(frozen=True)
class AnalysisReport:
    """Everything one full pipeline run produced, ready to render.

    ``ladders`` and ``variants`` are in report order.
    """

    n_days: int
    max_lag: int
    break_date: datetime.date
    ladders: Mapping[str, LadderResult]
    variants: tuple[VariantResult, ...]
    coverage: CoverageResult | Skipped


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
    # fewer decimal then, keeping the total width stable.  Without a
    # decimal to give up (9999999.6 -> 10000000) the value has reached
    # 1e7 and takes the scientific form.
    if len(out.lstrip("-").split(".")[0]) > digits:
        out = f"{x:.{decimals - 1}f}" if decimals > 0 else f"{x:.2E}"
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


def _sign_conclusion(fit: OlsFit) -> list[str]:
    """Relate each coefficient's sign to the formula's prediction.

    The stage-one regressors are the U series, R and I, in that order.
    """
    signs = {row.name: row.coef for row in fit.coef_rows if row.name != "C"}
    u_name = next(iter(signs))
    u_coef = signs[u_name]
    r_coef = signs.get("R")
    i_coef = signs.get("I")
    if r_coef is None or i_coef is None:
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


def _label(variant: UVariant, sep: str) -> str:
    """The variant's value with ``sep`` in place of its underscore."""
    return variant.value.replace("_", sep)


def _rule(title: str) -> list[str]:
    bar = "=" * 72
    return [bar, title, bar]


def render_analysis_text(report: AnalysisReport) -> str:
    """The full fixed-layout report, one string, trailing newline."""
    out: list[str] = []
    out += _rule("Unit-root tests")
    for name, ladder in report.ladders.items():
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
    width = max(len(name) for name in report.ladders) + 2
    for name, ladder in report.ladders.items():
        out.append(f"{name:{width}}{ladder.classification}")
    for number, result in enumerate(report.variants, 1):
        coint = result.coint
        out.append("")
        out += _rule(f"Cointegrating regression {number} (U {_label(result.variant, ' ')})")
        out.append("")
        out += render_regression(coint.stage1)
        out.append("")
        out.append(f"ADF test results for residuals: {coint.residual_test.series_name}")
        out.append("")
        out += render_adf_block(coint.residual_test, dm_critical=coint.critical_values_dm)
    out.append("")
    out += _rule("First-approach analysis")
    out.append("")
    for result in report.variants:
        head, constancy = f"Constancy ({_label(result.variant, ' ')})", result.constancy
        if isinstance(constancy, Skipped):
            out.append(f"{head}: skipped, {constancy.reason}.")
            continue
        out.append(
            f"{head}: mean {fmt_stat(constancy.mean)} kopecks, "
            f"stddev {fmt_stat(constancy.stddev)}, "
            f"threshold {fmt_stat(constancy.threshold)}, "
            f"passes: {'yes' if constancy.passes else 'no'}"
        )
    for result in report.variants:
        head = f"Break at {report.break_date.isoformat()} ({_label(result.variant, ' ')})"
        brk = result.break_means
        if isinstance(brk, Skipped):
            out.append(f"{head} skipped: {brk.reason}")
            continue
        out.append(
            f"{head}: mean before {fmt_stat(brk.mean_before)}, "
            f"after {fmt_stat(brk.mean_after)}, ratio {fmt_stat(brk.ratio)}"
        )
    if isinstance(report.coverage, Skipped):
        out.append(f"Coverage: skipped, {report.coverage.reason}.")
    else:
        out.append(
            f"Coverage: stock utilization {fmt_stat(report.coverage.stock_utilization)}, "
            f"money coverage {fmt_stat(report.coverage.money_coverage)}"
        )
    out.append("")
    out += _rule("Conclusions")
    out.append("")
    for result in report.variants:
        out.append(_coint_sentence(_label(result.variant, "-"), result.coint))
        out += _sign_conclusion(result.coint.stage1)
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
    for name, ladder in report.ladders.items():
        rows += _adf_rows(f"adf.{name}.level", ladder.level_result)
        if ladder.diff_result is not None:
            rows += _adf_rows(f"adf.{name}.diff", ladder.diff_result)
        rows.append((f"ladder.{name}", "classification", ladder.classification))
    for result in report.variants:
        key, coint = result.variant.value, result.coint
        rows += _ols_rows(f"ols.{key}", coint.stage1)
        rows += _adf_rows(f"resid.{key}", coint.residual_test)
        for level in LEVELS:
            rows.append(
                (f"coint.{key}", f"dm_cv_{level}",
                 _csv_value(coint.critical_values_dm[level]))
            )
        rows.append((f"coint.{key}", "verdict", coint.verdict.value))
    checks = [(f"constancy.{r.variant.value}", r.constancy) for r in report.variants]
    checks += [(f"break.{r.variant.value}", r.break_means) for r in report.variants]
    checks.append(("coverage", report.coverage))
    for table, result in checks:
        if not isinstance(result, Skipped):
            rows += [(table, f.name, _csv_value(getattr(result, f.name)))
                     for f in fields(result)]
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["table", "field", "value"])
    writer.writerows(rows)
    return buffer.getvalue()
