"""Tests for number formatting and report rendering."""

import csv
import io
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from generators import gen_random_walk
from specloss.dataio import RunConfig
from specloss.ols import fit_arrays
from specloss.pipeline import build_analysis
from specloss.report import (
    VARIABLE_ORDER,
    fmt_prob,
    fmt_stat,
    render_adf_block,
    render_analysis_csv,
    render_analysis_text,
    render_regression,
)
from specloss.unit_root import adf_test


@pytest.fixture(scope="module")
def analysis():
    return build_analysis(RunConfig(synth_seed=0))


def test_fmt_stat_eight_significant_characters():
    cases = [
        (77.35073, "77.35073"),
        (0.363279, "0.363279"),
        (-42.31813, "-42.31813"),
        (1650.3277, "1650.328"),
        (20259.96, "20259.96"),
        (0.000377, "0.000377"),
        (1.0, "1.000000"),
        (-0.5, "-0.500000"),
        (9999999.0, "9999999"),
    ]
    for value, want in cases:
        assert fmt_stat(value) == want


def test_fmt_stat_scientific_range():
    assert fmt_stat(3.57e-5) == "3.57E-05"
    assert fmt_stat(-2.61e-14) == "-2.61E-14"
    assert fmt_stat(10000000.0) == "1.00E+07"
    assert fmt_stat(9.999999e-5) == "1.00E-04"


def test_fmt_stat_rounding_overflow_keeps_width():
    assert fmt_stat(9.9999999) == "10.00000"
    assert fmt_stat(-9.9999999) == "-10.00000"
    assert fmt_stat(999.99999) == "1000.000"
    # Rounded up to 1e7, a value prints as 1e7 does.
    assert fmt_stat(9999999.4) == "9999999"
    assert fmt_stat(9999999.6) == "1.00E+07"
    assert fmt_stat(-9999999.5) == "-1.00E+07"


_PROPERTY_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True,
                              database=None)


@_PROPERTY_SETTINGS
@given(x=st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=1e-5, max_value=2e7),
    st.sampled_from([9999999.5, 9999999.49, 999999.96, 9.99999995, 9.99999996e-5,
                     1e-4, 5e-324, 1.7976931348623157e308]),
), negate=st.booleans())
def test_fmt_stat_width_and_value(x, negate):
    """8 characters plus sign; 7 digits for an integer in [1e6, 1e7)."""
    x = -x if negate else x
    out = fmt_stat(x)
    body = out.removeprefix("-")
    assert out.startswith("-") == (x < 0)
    error = abs(Decimal(out) - Decimal(x))
    if "E" in body:
        mantissa, exponent = body.split("E")
        assert len(mantissa) == 4 and mantissa[1] == "."
        assert exponent[0] in "+-"
        assert len(exponent) == (4 if abs(int(exponent)) >= 100 else 3)
        assert error <= Decimal("0.005").scaleb(int(exponent))
    elif "." in body:
        assert len(body) == 8
        assert error <= Decimal(5).scaleb(-len(body.split(".")[1]) - 1)
    else:
        assert len(body) == 7 and 1_000_000 <= int(body) < 10_000_000
        assert error <= Decimal("0.5")


def test_fmt_stat_special_values():
    assert fmt_stat(0.0) == "0.000000"
    assert fmt_stat(math.nan) == "NA"
    assert fmt_stat(math.inf) == "inf"
    assert fmt_stat(-math.inf) == "-inf"


def test_fmt_prob():
    assert fmt_prob(0.03123) == "0.0312"
    assert fmt_prob(1.0) == "1.0000"
    assert fmt_prob(0.0) == "0.0000"
    assert fmt_prob(math.nan) == "NA"


def test_render_adf_block_layout():
    result = adf_test(gen_random_walk(1, 120, label="BLK").with_name("W"))
    lines = render_adf_block(result)
    assert lines[0] == "Null Hypothesis: W has a unit root"
    assert lines[1] == "Exogenous: Constant"
    assert lines[2] == f"Lag Length: {result.chosen_lag} (Automatic - based on SIC, maxlag=5)"
    assert lines[3] == ""
    assert lines[4] == " " * 38 + f"{'t-Statistic':>13}" + f"{'Prob.*':>11}"
    assert lines[5].startswith("Augmented Dickey-Fuller test statistic")
    assert fmt_stat(result.t_statistic) in lines[5]
    assert lines[6].startswith("Test critical values:")
    assert "1% level" in lines[6]
    assert "5% level" in lines[7] and "10% level" in lines[8]
    assert fmt_stat(result.critical_values[5]) in lines[7]
    assert lines[-1] == "*MacKinnon (1996) one-sided p-values."


def test_render_adf_block_fixed_lag_label():
    # A lag fixed at 0 by max_lag=0 is labeled like any automatic choice.
    result = adf_test(gen_random_walk(2, 80, label="FIXL"), max_lag=0)
    lines = render_adf_block(result)
    assert lines[2] == "Lag Length: 0 (Automatic - based on SIC, maxlag=0)"


def test_render_adf_block_dm_variant(analysis):
    coint = analysis.coint_by_volume
    lines = render_adf_block(coint.residual_test,
                             dm_critical=coint.critical_values_dm)
    joined = "\n".join(lines)
    assert "-4.64" in joined and "-4.10" in joined and "-3.81" in joined
    assert "Davidson-MacKinnon (1993)" in joined
    assert "*MacKinnon (1996) one-sided p-values." in joined


def test_render_regression_layout():
    result = fit_arrays(
        np.array([0.0, 1.0, 3.0, 5.0, 4.0]),
        np.column_stack([np.ones(5), np.arange(5.0)]),
        reg_names=["C", "X"],
    )
    lines = render_regression(result)
    assert lines[0] == "Dependent Variable: Y"
    assert lines[1] == "Method: Least Squares"
    assert lines[2] == "Sample: 1 5"
    assert lines[3] == "Included observations: 5"
    header = lines[5]
    assert header.startswith("Variable")
    assert header.endswith("Prob.")
    assert lines[6].startswith("C ")
    assert lines[7].startswith("X ")
    assert fmt_stat(1.2) in lines[7]
    joined = "\n".join(lines)
    for label in (
        "R-squared", "Mean dependent var", "Adjusted R-squared",
        "S.D. dependent var", "S.E. of regression", "Akaike info criterion",
        "Sum squared resid", "Schwarz criterion", "Log likelihood",
        "Hannan-Quinn criter.", "F-statistic", "Durbin-Watson stat",
    ):
        assert label in joined
    assert lines[-1].startswith("Prob(F-statistic)")
    assert lines[-1].endswith(f"{result.f_prob:.6f}")


def test_render_analysis_text_sections(analysis):
    text = render_analysis_text(analysis)
    assert text.endswith("\n")
    for title in ("Unit-root tests", "Unit-root summary",
                  "Cointegrating regression 1 (U by volume)",
                  "Cointegrating regression 2 (U by deposit)",
                  "First-approach analysis", "Conclusions"):
        assert title in text
    for name in VARIABLE_ORDER:
        assert f"ADF test results (level): {name}" in text
        assert analysis.ladders[name].classification in text
    assert "ADF test results for residuals: RESID1" in text
    assert "ADF test results for residuals: RESID2" in text
    assert f"Break at {analysis.break_date.isoformat()}" in text
    assert "Coverage: stock utilization" in text


def test_render_analysis_text_skips_price_sections_when_absent(analysis):
    import dataclasses

    stripped = dataclasses.replace(
        analysis, constancy_vol=None, constancy_dep=None, coverage=None,
        mean_price=None,
    )
    text = render_analysis_text(stripped)
    assert "Constancy (by volume): skipped, no mean price available." in text
    assert "Coverage: skipped, no mean price available." in text


def test_render_analysis_csv_shape(analysis):
    raw = render_analysis_csv(analysis)
    assert "np." not in raw
    rows = list(csv.reader(io.StringIO(raw)))
    assert rows[0] == ["table", "field", "value"]
    body = rows[1:]
    assert all(len(row) == 3 for row in body)
    keys = [(table, field) for table, field, _ in body]
    assert len(keys) == len(set(keys))
    tables = {table for table, _, _ in body}
    for name in VARIABLE_ORDER:
        assert f"adf.{name}.level" in tables
    assert {"ols.by_volume", "resid.by_volume", "coint.by_volume",
            "break.by_volume", "coverage", "run"} <= tables


def test_render_analysis_csv_values_round_trip(analysis):
    rows = list(csv.reader(io.StringIO(render_analysis_csv(analysis))))[1:]
    values = {(table, field): value for table, field, value in rows}
    t_printed = values[("adf.I.level", "t_statistic")]
    assert float(t_printed) == analysis.ladders["I"].level_result.t_statistic
    assert values[("coint.by_volume", "verdict")] == analysis.coint_by_volume.verdict.value
    assert values[("run", "break_date")] == analysis.break_date.isoformat()
    ratio = float(values[("break.by_volume", "ratio")])
    assert ratio == analysis.break_vol.ratio
