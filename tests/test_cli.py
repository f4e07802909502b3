"""End-to-end CLI tests, run in-process through ``specloss.cli.main``."""

import dataclasses
import importlib
import pathlib
from unittest import mock

import numpy as np
import pytest

from generators import gen_ar1, gen_random_walk, write_series_csv
from oracles import lstsq_fit
from test_api import FLAGS
from specloss import dataio
from specloss.cli import build_parser, main
from specloss.dataio import load_market_csv, load_series_csv, write_market_csv
from specloss.market import UVariant, u_series
from specloss.ols import fit
from specloss.report import render_adf_block, render_regression
from specloss.series import TimeSeries, trading_dates
from specloss.unit_root import adf_test

DATA_DIR = pathlib.Path(__file__).parent / "data"
BENCH_DIR = pathlib.Path(__file__).parents[1] / "benchmarks"


def run_cli(argv, capsys):
    """Return (exit_code, stdout, stderr); argparse SystemExit is folded in."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def make_series_file(path):
    """A small aligned series CSV: one random walk, one stationary column."""
    walk = gen_random_walk(5, 90, label="CLIW").with_name("W")
    stat = gen_ar1(6, 90, phi=0.3, label="CLIS").with_name("S")
    dates = trading_dates(len(walk))
    named = [
        TimeSeries(dates, walk.values, name="W"),
        TimeSeries(dates, stat.values, name="S"),
    ]
    write_series_csv(named, str(path))
    return named


def test_analyze_synth_text(capsys):
    code, out, err = run_cli(["analyze", "--synth-seed", "7"], capsys)
    assert code == 0
    assert err == ""
    for title in ("Unit-root tests", "Unit-root summary", "Conclusions"):
        assert title in out


def test_analyze_synth_csv(capsys):
    code, out, err = run_cli(
        ["analyze", "--synth-seed", "7", "--format", "csv"], capsys)
    assert code == 0
    assert out.startswith("table,field,value\n")
    assert "np." not in out


def test_analyze_deterministic_and_matches_golden(capsys):
    code, first, _ = run_cli(["analyze", "--synth-seed", "42"], capsys)
    assert code == 0
    code, second, _ = run_cli(["analyze", "--synth-seed", "42"], capsys)
    assert code == 0
    assert first == second
    golden = (DATA_DIR / "golden_analyze.txt").read_text(encoding="utf-8")
    assert first == golden


def test_analyze_file_matches_seed(tmp_path, capsys):
    data = tmp_path / "m.csv"
    code, out, err = run_cli(
        ["synth", "--seed", "11", "--out", str(data)], capsys)
    assert code == 0
    assert out == f"wrote 255 days to {data}\n"
    code, from_file, _ = run_cli(["analyze", "--input", str(data)], capsys)
    assert code == 0
    code, from_seed, _ = run_cli(["analyze", "--synth-seed", "11"], capsys)
    assert code == 0
    assert from_file == from_seed


@pytest.mark.parametrize("seed, days", [*((seed, 255) for seed in range(6)), (0, 2550)])
def test_analyze_csv_passes_the_independent_checks(tmp_path, capsys, monkeypatch, seed, days):
    # The benchmark's checker recomputes every figure of a CSV report with
    # numpy's lstsq and scipy's tails, and imports nothing of specloss.
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    check = importlib.import_module("check")
    path = str(tmp_path / "m.csv")
    argv = ["synth", "--seed", str(seed), "--days", str(days), "--out", path]
    assert run_cli(argv, capsys)[0] == 0
    for max_lag in (0, 5, 8) if days == 255 else (5,):
        argv = ["analyze", "--input", path, "--format", "csv", "--maxlag", str(max_lag)]
        code, report, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        assert check.check_analysis(path, report) == [], max_lag


def test_analyze_skips_break_outside_sample(tmp_path, capsys):
    # 60 synthetic days end in March 2012, all before the default break
    # date 2012-05-10: the break means are skipped, the rest still runs.
    data = tmp_path / "short.csv"
    code, _, _ = run_cli(
        ["synth", "--seed", "3", "--days", "60", "--out", str(data)], capsys)
    assert code == 0
    code, text, err = run_cli(["analyze", "--input", str(data)], capsys)
    assert code == 0 and err == ""
    reason = ("break date 2012-05-10 leaves 60 observations before and 0 after; "
              "need at least 2 on each side")
    for label in ("by volume", "by deposit"):
        assert f"Break at 2012-05-10 ({label}) skipped: {reason}\n" in text
    assert "Coverage: stock utilization" in text
    code, csv_out, _ = run_cli(
        ["analyze", "--input", str(data), "--format", "csv"], capsys)
    assert code == 0
    assert "\nbreak." not in csv_out
    assert "\ncoverage,stock_utilization," in csv_out


@pytest.mark.parametrize("column", ["rate_r", "invest_i"])
def test_analyze_skips_break_when_mean_u_before_it_is_zero(tmp_path, capsys, column):
    # R (or I) at 0 on every day before the break date makes u zero there,
    # so the after/before ratio of the break means is undefined.
    data = tmp_path / "m.csv"
    code, _, _ = run_cli(["synth", "--seed", "3", "--out", str(data)], capsys)
    assert code == 0
    days = load_market_csv(str(data))
    values = getattr(days, column).copy()
    values[days.dates < np.datetime64("2012-05-10")] = 0.0
    write_market_csv(dataclasses.replace(days, **{column: values}), str(data))
    code, text, err = run_cli(["analyze", "--input", str(data)], capsys)
    assert (code, err) == (0, "")
    reason = "mean u before break date 2012-05-10 is zero; the ratio is undefined"
    for label in ("by volume", "by deposit"):
        assert f"Break at 2012-05-10 ({label}) skipped: {reason}\n" in text
    code, csv_out, err = run_cli(
        ["analyze", "--input", str(data), "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    assert "\nbreak." not in csv_out
    assert "\ncoverage,stock_utilization," in csv_out


def test_analyze_names_the_variant_and_day_where_u_overflows(tmp_path, capsys):
    data = tmp_path / "m.csv"
    code, _, _ = run_cli(["synth", "--seed", "3", "--days", "60", "--out", str(data)], capsys)
    assert code == 0
    days = load_market_csv(str(data))
    invest = days.invest_i.copy()
    invest[[4, 9]] = 1e308
    write_market_csv(dataclasses.replace(days, invest_i=invest), str(data))
    code, out, err = run_cli(["analyze", "--input", str(data)], capsys)
    assert (code, out) == (1, "")
    assert err == f"specloss: error: u (by_volume) overflowed on {days.dates[4]}: " \
                  f"I = 1e+308, R = {days.rate_r[4]}, U = {days.u_big_vol[4]}\n"


def _scaled_market(tmp_path, capsys, factor):
    """The synth seed-42 file with I times ``factor``."""
    data = tmp_path / "m.csv"
    assert run_cli(["synth", "--seed", "42", "--out", str(data)], capsys)[0] == 0
    days = load_market_csv(str(data))
    write_market_csv(dataclasses.replace(days, invest_i=days.invest_i * factor), str(data))
    return data


def test_analyze_of_an_input_whose_squares_overflow_is_one_error_line(tmp_path, capsys):
    # I scaled by 1e150 keeps u finite, and the squares of I(-1) overflow.
    # Each such column is fitted scaled by a power of two, so the report
    # prints, and its stage-one t-statistics are those of numpy's lstsq.
    data = _scaled_market(tmp_path, capsys, 1e150)
    code, out, err = run_cli(["analyze", "--input", str(data), "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    rows = {(table, field): value for table, field, value in
            (line.split(",", 2) for line in out.splitlines()[1:])}
    days = load_market_csv(str(data))
    for variant, u_big in ((UVariant.BY_VOLUME, "U_BIG_VOL"), (UVariant.BY_DEPOSIT, "U_BIG_DEP")):
        x = np.column_stack([np.ones(len(days)), days.series()[u_big].values,
                             days.rate_r, days.invest_i])
        want = lstsq_fit(u_series(days, variant).values, x)["t_stats"]
        got = [float(rows[f"ols.{variant.value}", f"tstat.{name}"])
               for name in ("C", u_big, "R", "I")]
        assert got == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("argv, outcome", [
    # An exactly alternating series has D(alt(-1)) = -2 alt(-1): scaled
    # into range, its ADF design is singular, first at column 2.
    pytest.param(["adf", "--column", "alt"],
                 (2, "design matrix is rank deficient at column 2 (|R[2,2]| = 2.483e-16)"),
                 id="adf-alt"),
    # big's squares overflow; tiny's and near's sum to a subnormal, and
    # near is nearly collinear with C.  Each is fitted scaled.
    pytest.param(["ols", "--dep", "small", "--regressors", "big"], "big", id="ols-small-on-big"),
    pytest.param(["coint", "--dep", "small", "--regressors", "big"], "big", id="coint-small-on-big"),
    pytest.param(["ols", "--dep", "small", "--regressors", "tiny"], "tiny", id="ols-small-on-tiny"),
    pytest.param(["coint", "--dep", "small", "--regressors", "tiny"], "tiny",
                 id="coint-small-on-tiny"),
    pytest.param(["ols", "--dep", "small", "--regressors", "near"], "near", id="ols-small-on-near"),
    # A dependent fitted scaled whose SSR, scaled back, leaves the float range.
    pytest.param(["ols", "--dep", "big", "--regressors", "small"],
                 (1, "dependent 'big': its sum of squared residuals is outside the float range"),
                 id="ols-big-on-small"),
    pytest.param(["ols", "--dep", "alt", "--regressors", "small"],
                 (1, "dependent 'alt': its sum of squared residuals is outside the float range"),
                 id="ols-alt-on-small"),
    pytest.param(["coint", "--dep", "alt", "--regressors", "small"],
                 (1, "dependent 'alt': its sum of squared residuals is outside the float range"),
                 id="coint-alt-on-small"),
    pytest.param(["ols", "--dep", "tinydep", "--regressors", "small"],
                 (1, "dependent 'tinydep': its sum of squared residuals is outside the float "
                     "range"), id="ols-tinydep-on-small"),
])
def test_series_whose_squares_overflow_are_one_error_line(tmp_path, capsys, argv, outcome):
    # Either one error line, naming the field that leaves the float range
    # where one does, or a report whose t-statistics are lstsq's.
    t = np.arange(40)
    columns = {"big": (t % 7 + 1) * 1e200, "alt": (-1.0) ** t * 1e308,
               "small": (t * t % 11) * 0.5, "tiny": (t * t % 13 + 1) * 1e-160,
               "near": (1 + 0.01 * (t % 7)) * 3e-154, "tinydep": (t % 7 + 1) * 1e-170}
    path = tmp_path / "s.csv"
    write_series_csv([TimeSeries(trading_dates(40), values, name=name)
                      for name, values in columns.items()], str(path))
    code, out, err = run_cli([*argv, "--input", str(path)], capsys)
    if isinstance(outcome, tuple):
        assert (code, out, err) == (outcome[0], "", f"specloss: error: {outcome[1]}\n")
        return
    assert (code, err) == (0, "")
    want = lstsq_fit(columns["small"], np.column_stack([np.ones(40), columns[outcome]]))
    lines = out.splitlines()
    table = lines[lines.index("Variable             Coefficient   Std. Error   t-Statistic    "
                              "Prob.") + 1:][:2]
    assert [line.split()[0] for line in table] == ["C", outcome]
    printed = [float(line.split()[3]) for line in table]
    assert printed == pytest.approx(want["t_stats"], abs=5e-7)  # printed to 6 decimals


def test_analyze_of_an_input_whose_squares_underflow_is_one_error_line(tmp_path, capsys):
    # I scaled by 2^-900 scales u alike.  The ADF tests and the stage-one
    # fits run scaled back into range, but the SSR of u_small_vol's fit is
    # 2^-1800 times that of the unscaled run: no float holds it.
    data = _scaled_market(tmp_path, capsys, 2.0**-900)
    assert run_cli(["analyze", "--input", str(data)], capsys) == (
        1, "", "specloss: error: dependent 'U_SMALL_VOL': its sum of squared residuals is "
               "outside the float range\n")


def test_analyze_of_an_input_scaled_by_2_to_the_minus_500_prints_the_same_t_statistics(
        tmp_path, capsys):
    # s^2 times diag (X'X)^-1 for U_BIG_DEP was a subnormal of 2^-500 scale
    # before its square root, which printed t = -437.9056 for -437.8850.
    reports = [run_cli(["analyze", "--input", str(_scaled_market(tmp_path, capsys, factor))],
                       capsys) for factor in (1.0, 2.0**-500)]
    assert [(code, err) for code, _, err in reports] == [(0, ""), (0, "")]

    def t_columns(text):
        return [line.split()[-2:] for line in text.splitlines()
                if line.split()[:1] in (["C"], ["U_BIG_VOL"], ["U_BIG_DEP"], ["R"], ["I"])]

    assert t_columns(reports[1][1]) == t_columns(reports[0][1])
    assert "U_BIG_DEP             -2.71E-158    6.19E-161     -437.8850   0.0000\n" in reports[1][1]


def test_synth_reruns_identical(tmp_path, capsys):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path in paths:
        code, out, _ = run_cli(
            ["synth", "--seed", "3", "--days", "60", "--out", str(path)], capsys)
        assert code == 0
        assert out == f"wrote 60 days to {path}\n"
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_adf_output_matches_library(tmp_path, capsys):
    path = tmp_path / "s.csv"
    named = make_series_file(path)
    code, out, err = run_cli(
        ["adf", "--input", str(path), "--column", "W"], capsys)
    assert code == 0
    result = adf_test(load_series_csv(str(path))[0])
    expected = render_adf_block(result) + ["", f"Verdict: {result.verdict.value}"]
    assert out == "\n".join(expected) + "\n"
    assert np.array_equal(load_series_csv(str(path))[0].values, named[0].values)


def test_maxlag_zero_fixes_the_adf_lag(tmp_path, capsys):
    path = tmp_path / "s.csv"
    make_series_file(path)
    code, out, _ = run_cli(
        ["adf", "--input", str(path), "--column", "W", "--maxlag", "0"], capsys)
    assert code == 0
    result = adf_test(load_series_csv(str(path))[0], max_lag=0)
    assert result.chosen_lag == 0
    expected = render_adf_block(result) + ["", f"Verdict: {result.verdict.value}"]
    assert out == "\n".join(expected) + "\n"
    code, out, _ = run_cli(["coint", "--input", str(path), "--dep", "W",
                            "--regressors", "S", "--maxlag", "0"], capsys)
    assert code == 0
    assert "Lag Length: 0 (Automatic - based on SIC, maxlag=0)" in out


def test_ols_output_matches_library(tmp_path, capsys):
    path = tmp_path / "s.csv"
    make_series_file(path)
    code, out, _ = run_cli(
        ["ols", "--input", str(path), "--dep", "W", "--regressors", "S"], capsys)
    assert code == 0
    series = load_series_csv(str(path))
    result = fit(series[0], (series[1],))
    assert out == "\n".join(render_regression(result)) + "\n"


def test_coint_prints_verdict(tmp_path, capsys):
    path = tmp_path / "s.csv"
    make_series_file(path)
    code, out, _ = run_cli(
        ["coint", "--input", str(path), "--dep", "W", "--regressors", "S"], capsys)
    assert code == 0
    assert "ADF test results for residuals:" in out
    assert "Davidson-MacKinnon (1993)" in out
    verdict_line = out.rstrip("\n").split("\n")[-1]
    assert verdict_line.startswith("Verdict: ")


def test_usage_errors_exit_3(capsys):
    for argv in (
        [],
        ["bogus"],
        ["analyze"],
        ["analyze", "--synth-seed", "1", "--input", "x.csv"],
        ["analyze", "--no-such-flag"],
        ["analyze", "--synth-seed", "notanint"],
        ["adf"],
        ["adf", "--column", "W"],
        ["ols", "--input", "x.csv"],
        ["synth"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 3, argv
        assert err != "", argv
    code, _, err = run_cli(["analyze"], capsys)
    assert code == 3
    assert "exactly one of --input and --synth-seed is required" in err
    code, _, err = run_cli(["ols", "--input", "x.csv", "--dep", "A", "--regressors", ","],
                           capsys)
    assert code == 3
    assert "--regressors must list at least one column" in err


@pytest.mark.parametrize("source", ["input", "synth-seed"])
def test_analyze_negative_maxlag_is_one_error_line(tmp_path, capsys, source):
    # The ADF lag search rejects it, whichever way the table comes in.
    argv = ["--synth-seed", "11"]
    if source == "input":
        data = tmp_path / "m.csv"
        assert run_cli(["synth", "--seed", "11", "--out", str(data)], capsys)[0] == 0
        argv = ["--input", str(data)]
    code, out, err = run_cli(["analyze", *argv, "--maxlag", "-1"], capsys)
    assert (code, out) == (1, "")
    assert err == "specloss: error: max_lag must be >= 0, got -1\n"


def test_data_errors_exit_1(tmp_path, capsys):
    code, out, err = run_cli(
        ["analyze", "--input", str(tmp_path / "missing.csv")], capsys)
    assert code == 1
    assert out == ""
    assert "error:" in err

    path = tmp_path / "s.csv"
    make_series_file(path)
    code, _, err = run_cli(
        ["adf", "--input", str(path), "--column", "NOPE"], capsys)
    assert code == 1
    assert "no column 'NOPE'" in err and "W, S" in err

    conf = tmp_path / "bad.conf"
    conf.write_text("maxlag=abc\n", encoding="utf-8")
    code, _, err = run_cli(
        ["analyze", "--synth-seed", "1", "--config", str(conf)], capsys)
    assert code == 1
    assert "config key 'maxlag'" in err

    dup = tmp_path / "dup.conf"
    dup.write_text("maxlag=2\nmaxlag=3\n", encoding="utf-8")
    code, _, err = run_cli(
        ["analyze", "--synth-seed", "1", "--config", str(dup)], capsys)
    assert code == 1
    assert "duplicate" in err

    latin1 = tmp_path / "latin1.conf"
    latin1.write_bytes(b"maxlag=\xe9\n")
    code, out, err = run_cli(
        ["analyze", "--synth-seed", "1", "--config", str(latin1)], capsys)
    assert (code, out) == (1, "")
    assert err == "specloss: error: line 1: config line holds the byte 0xe9, which is not UTF-8\n"


@pytest.mark.parametrize("text, line, message", [
    pytest.param("maxlag=2\n\noops\n", 3, "config line is not key=value: 'oops'",
                 id="not-key-value"),
    pytest.param("# lags\n = 3\n", 2, "config line has empty key", id="empty-key"),
    pytest.param("maxlag=2\nmaxlag=3\n", 2, "duplicate config key 'maxlag'",
                 id="duplicate-key"),
])
def test_config_parse_errors_name_their_line(tmp_path, capsys, text, line, message):
    conf = tmp_path / "bad.conf"
    conf.write_text(text, encoding="utf-8")
    got = run_cli(["analyze", "--synth-seed", "1", "--config", str(conf)], capsys)
    assert got == (1, "", f"specloss: error: line {line}: {message}\n")


def test_impossible_date_exits_1_with_the_row_readers_message(tmp_path, capsys):
    # 60 days in order, one of them 2012-02-30 in place of 2012-03-01: every
    # date has the ISO shape, so only the calendar declines the fast path.
    # The row reader then names the bad date's line under the header.
    days = [d.isoformat() for d in trading_dates(60).tolist()]
    assert days[42] == "2012-03-01"
    days[42] = "2012-02-30"
    path = tmp_path / "m.csv"
    path.write_text("date,i_mrub,r_pct,u_big_vol,u_big_dep\n" + "".join(
        f"{day},{100 + i},7.5,{50 + i},{60 + i}\n" for i, day in enumerate(days)),
        encoding="utf-8")
    argv = ["analyze", "--input", str(path)]
    got = run_cli(argv, capsys)
    with mock.patch.object(dataio, "_read_body_fast", return_value=None):
        streamed = run_cli(argv, capsys)
    assert got == streamed == (
        1, "", "specloss: error: line 44: column 'date' has invalid ISO date '2012-02-30'\n")


def test_duplicate_date_names_the_date_and_both_lines(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code, _, _ = run_cli(["synth", "--seed", "3", "--days", "40", "--out", str(path)], capsys)
    assert code == 0
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[4] = lines[3]  # line 5 repeats line 4
    path.write_text("".join(lines), encoding="utf-8")
    day = lines[3].split(",")[0]
    assert run_cli(["analyze", "--input", str(path)], capsys) == (
        1, "", f"specloss: error: duplicate date {day} on line 5 (first seen on line 4)\n")


def test_too_short_error_names_the_series(tmp_path, capsys):
    path = tmp_path / "m.csv"
    code, _, _ = run_cli(["synth", "--seed", "3", "--days", "40", "--out", str(path)], capsys)
    assert code == 0
    assert run_cli(["analyze", "--input", str(path), "--maxlag", "40"], capsys) == (
        1, "", "specloss: error: series U_SMALL_VOL of length 40 is too short "
               "for an ADF regression with lag 40\n")


@pytest.mark.parametrize("cell, what", [("inf", "non-finite value inf"),
                                         ("-inf", "non-finite value -inf"),
                                         ("", "missing value")])
def test_non_finite_series_cell_error_says_what_it_found(tmp_path, capsys, cell, what):
    path = tmp_path / "s.csv"
    path.write_text(f"date,x\n2012-01-03,1\n2012-01-04,{cell}\n2012-01-05,2\n",
                    encoding="utf-8")
    assert run_cli(["adf", "--input", str(path), "--column", "x"], capsys) == (
        1, "", f"specloss: error: column 'x': {what} at 2012-01-04; "
               "series values must be finite\n")


@pytest.mark.parametrize("flag, value, message", [
    pytest.param(flag, value, message, id=f"{flag[2:]}={value}")
    for flag, value, message in [
        ("--noise-scale", "nan", "noise_scale must be finite, got nan"),
        ("--noise-scale", "inf", "noise_scale must be finite, got inf"),
        ("--break-factor", "nan", "break_factor must be finite, got nan"),
        ("--break-factor", "inf", "break_factor must be finite, got inf"),
        ("--break-factor", "1e308",
         "break_factor 1e+308 carries invest_i past the float range on 2012-01-31"),
        ("--noise-scale", "1e308",
         "noise_scale 1e+308 carries u_big_vol past the float range on 2012-01-03"),
        ("--days", "2083970", "n_days must be <= 2083969, the weekdays from "
         "2012-01-03 through 9999-12-31, got 2083970"),
    ]
])
def test_synth_flag_out_of_range_is_one_error_line_naming_it(tmp_path, capsys, flag,
                                                               value, message):
    # Any warning fails the suite, so a numpy overflow warning fails this too.
    path = tmp_path / "m.csv"
    assert run_cli(["synth", "--days", "40", flag, value, "--out", str(path)], capsys) == (
        1, "", f"specloss: error: {message}\n")
    assert not path.exists()


def test_break_date_must_be_iso_text(tmp_path, capsys):
    # date.fromisoformat takes these forms from Python 3.11 on; specloss never does.
    code, out, err = run_cli(
        ["analyze", "--synth-seed", "1", "--break-date", "20120510"], capsys)
    assert code == 3
    assert out == ""
    assert err.endswith("specloss analyze: error: argument --break-date: "
                        "not an ISO date: '20120510'\n")
    conf = tmp_path / "week.conf"
    conf.write_text("break-date=2012-W19-4\n", encoding="utf-8")
    code, out, err = run_cli(
        ["analyze", "--synth-seed", "1", "--config", str(conf)], capsys)
    assert code == 1
    assert "config key 'break-date': not an ISO date: '2012-W19-4'" in err
    conf.write_text("format=xml\n", encoding="utf-8")
    code, out, err = run_cli(
        ["analyze", "--synth-seed", "1", "--config", str(conf)], capsys)
    assert (code, out) == (1, "")
    assert err == ("specloss: error: config key 'format': invalid choice: 'xml' "
                   "(choose from 'text', 'csv')\n")


def test_unknown_config_keys_exit_3(tmp_path, capsys):
    # Keys are each subcommand's own long flags: a misspelling, a removed
    # flag and another subcommand's flag are all usage errors.
    for argv, text in (
        (["analyze", "--synth-seed", "1"], "maxlags=1\n"),
        (["analyze", "--synth-seed", "1"], "lag-criterion=schwarz\n"),
        (["analyze", "--synth-seed", "1"], "i-scale=2\n"),
        (["analyze", "--synth-seed", "1"], "r-scale=2\n"),
        (["analyze", "--synth-seed", "1"], "seed=4\n"),
        (["synth", "--out", str(tmp_path / "m.csv")], "maxlag=2\n"),
    ):
        conf = tmp_path / "bad.conf"
        conf.write_text(text, encoding="utf-8")
        code, out, err = run_cli(argv + ["--config", str(conf)], capsys)
        assert code == 3, text
        assert out == ""
        assert f"unknown config key(s) for {argv[0]}: {text.split('=')[0]}" in err


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    plain, marked = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(b"maxlag=3\n")
    marked.write_bytes(b"\xef\xbb\xbfmaxlag=3\n")
    code, want, _ = run_cli(["analyze", "--synth-seed", "1", "--config", str(plain)], capsys)
    assert code == 0
    code, got, err = run_cli(["analyze", "--synth-seed", "1", "--config", str(marked)], capsys)
    assert (code, err) == (0, "")
    assert got == want


def test_singular_design_exits_2(tmp_path, capsys):
    path = tmp_path / "s.csv"
    dates = trading_dates(40)
    base = gen_random_walk(8, 40, label="SNG")
    x1 = TimeSeries(dates, base.values, name="X1")
    x2 = TimeSeries(dates, base.values * 2.0, name="X2")
    y = TimeSeries(dates, base.values + 1.0, name="Y")
    write_series_csv([y, x1, x2], str(path))
    code, out, err = run_cli(
        ["ols", "--input", str(path), "--dep", "Y", "--regressors", "X1,X2"],
        capsys)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_config_file_and_flag_precedence(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# comment line\nsynth-seed=1\nformat=csv\n", encoding="utf-8")
    code, from_config, _ = run_cli(["analyze", "--config", str(conf)], capsys)
    assert code == 0
    code, direct, _ = run_cli(
        ["analyze", "--synth-seed", "1", "--format", "csv"], capsys)
    assert code == 0
    assert from_config == direct

    code, overridden, _ = run_cli(
        ["analyze", "--config", str(conf), "--synth-seed", "2"], capsys)
    assert code == 0
    code, direct2, _ = run_cli(
        ["analyze", "--synth-seed", "2", "--format", "csv"], capsys)
    assert code == 0
    assert overridden == direct2
    assert overridden != direct


# Complete runs of each subcommand, every flag given; {market}, {series}
# and {out} stand for files in the test's directory.
_FULL_RUNS = [
    ("analyze", {"input": "{market}", "break-date": "2012-03-01", "maxlag": "2",
                 "format": "csv"}),
    ("analyze", {"synth-seed": "3"}),
    ("adf", {"input": "{series}", "column": "W", "maxlag": "2"}),
    ("ols", {"input": "{series}", "dep": "W", "regressors": "S"}),
    ("coint", {"input": "{series}", "dep": "W", "regressors": "S", "maxlag": "2"}),
    ("synth", {"seed": "4", "days": "60", "out": "{out}", "noise-scale": "0.5",
               "break-factor": "2", "break-index": "20"}),
]


@pytest.mark.parametrize("command, flag", [
    pytest.param(command, flag, id=f"{command}-{flag}")
    for command, flags in sorted(FLAGS.items()) for flag in sorted(flags - {"config"})
])
def test_each_flag_from_a_config_file_acts_as_on_the_command_line(tmp_path, capsys,
                                                                   command, flag):
    runs = [values for name, values in _FULL_RUNS if name == command and flag in values]
    assert runs, f"no run of {command} gives --{flag}; add one to _FULL_RUNS"
    paths = {"market": tmp_path / "m.csv", "series": tmp_path / "s.csv",
             "out": tmp_path / "out.csv"}
    assert run_cli(["synth", "--seed", "5", "--days", "80", "--out", str(paths["market"])],
                   capsys)[0] == 0
    make_series_file(paths["series"])
    values = {key: value.format(**paths) for key, value in runs[0].items()}
    others = [arg for key, value in values.items() if key != flag
              for arg in (f"--{key}", value)]
    conf = tmp_path / "run.conf"
    conf.write_text(f"{flag}={values[flag]}\n", encoding="utf-8")

    def run(argv):
        code, out, err = run_cli(argv, capsys)
        written = paths["out"].read_bytes() if paths["out"].exists() else None
        paths["out"].unlink(missing_ok=True)
        return code, out, err, written

    direct = run([command, *others, f"--{flag}", values[flag]])
    assert direct[0] == 0 and direct[2] == ""
    assert run([command, *others, "--config", str(conf)]) == direct


def test_a_bad_config_value_is_reported_first(tmp_path, capsys):
    # The config file is merged and checked before the subcommand runs, so
    # a bad value comes before a missing required flag and before any
    # input file is opened.
    conf = tmp_path / "bad.conf"
    conf.write_text("maxlag=abc\n", encoding="utf-8")
    bad = (1, "", "specloss: error: config key 'maxlag': "
                  "invalid literal for int() with base 10: 'abc'\n")
    missing = str(tmp_path / "missing.csv")
    for argv in (["adf"], ["adf", "--column", "W"], ["analyze"],
                 ["adf", "--input", missing, "--column", "W"],
                 ["analyze", "--input", missing]):
        assert run_cli(argv + ["--config", str(conf)], capsys) == bad, argv
    # A flag given on the command line wins, so its config value is not used.
    code, out, err = run_cli(["analyze", "--synth-seed", "1", "--maxlag", "2",
                              "--config", str(conf)], capsys)
    assert (code, err) == (0, "")
    assert out == run_cli(["analyze", "--synth-seed", "1", "--maxlag", "2"], capsys)[1]


def test_empty_path_flags_fail_alike(tmp_path, capsys):
    # An empty --config names no file, as an empty --input or --out does.
    want = (1, "", "specloss: error: [Errno 2] No such file or directory: ''\n")
    for argv in (["analyze", "--synth-seed", "1", "--config", ""],
                 ["analyze", "--input", ""],
                 ["synth", "--days", "40", "--out", ""]):
        assert run_cli(argv, capsys) == want, argv


def test_back_to_back_calls_match_fresh_calls(tmp_path, capsys):
    # main builds its parser once per process; a run of calls through the
    # one parser must behave like calls that each get a fresh one.
    series_path = tmp_path / "s.csv"
    make_series_file(series_path)
    conf = tmp_path / "synth.conf"
    conf.write_text("seed=3\ndays=60\n", encoding="utf-8")
    calls = [
        ["analyze", "--synth-seed", "1", "--input", "x.csv"],
        ["analyze", "--synth-seed", "1"],
        ["synth", "--config", str(conf), "--out", str(tmp_path / "m.csv")],
        ["adf", "--input", str(series_path), "--column", "W"],
    ]
    commands = ("analyze", "adf", "ols", "coint", "synth")

    def config_keys():
        return {cmd: build_parser().parse_args([cmd]).config_keys for cmd in commands}

    in_a_row = [run_cli(argv, capsys) for argv in calls]
    keys_in_a_row = config_keys()
    assert build_parser() is build_parser()
    fresh = []
    for argv in calls:
        build_parser.cache_clear()
        fresh.append(run_cli(argv, capsys))
    build_parser.cache_clear()
    assert [code for code, _, _ in in_a_row] == [3, 0, 0, 0]
    assert in_a_row == fresh
    assert keys_in_a_row == config_keys()
