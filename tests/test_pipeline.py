"""Whole-run checks of ``analyze``: pinned CSV bytes at scale and the heap it holds."""

import contextlib
import csv
import dataclasses
import datetime
import gc
import hashlib
import io
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specloss.cli import main
from specloss.dataio import load_market_csv, write_market_csv
from specloss.errors import SpeclossError
from specloss.market import constancy_check, coverage_ratios, u_series
from specloss.pipeline import build_analysis
from specloss.report import Skipped, render_analysis_csv, render_analysis_text
from specloss.synth import gen_market_days

_PINNED = Path(__file__).parent / "data" / "analyze_csv_sha256.txt"


def _synth(command, path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(command.split() + ["--out", str(path)]) == 0


def _pinned_runs():
    # A line is "<digest>  <synth command>", then "  analyze <flags>" if it has any.
    for line in _PINNED.read_text(encoding="utf-8").splitlines():
        digest, run = line.split("  ", 1)
        command, _, analyze = run.partition("  ")
        yield pytest.param(digest, command, analyze.split()[1:], id=run.replace(" ", ""))


@pytest.mark.parametrize("digest, command, flags", _pinned_runs())
def test_analyze_csv_keeps_its_pinned_bytes(tmp_path, digest, command, flags):
    # The CSV report prints repr of every statistic, so one changed bit in
    # any fit at 255, 2,550 or 25,500 days changes the digest.
    path = tmp_path / "market.csv"
    _synth(command, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--input", str(path), "--format", "csv", *flags]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


_NO_PRICE = Path(__file__).parent / "data" / "analyze_no_price_sha256.txt"

# Three ways a file can lack prices: the column cut (as `cut -d, -f1-5`
# does), one day's cell left empty, or every day's cell left empty.
_PRICE_FORMS = {
    "cut": lambda lines: [line.rsplit(",", 1)[0] for line in lines],
    "blank": lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",", *lines[2:]],
    "empty": lambda lines: [lines[0], *(line.rsplit(",", 1)[0] + "," for line in lines[1:])],
}


def _priced_file(tmp_path, command, form):
    """The synth file ``command`` with its prices in ``form``."""
    path = tmp_path / f"{form}.csv"
    _synth(command, path)
    lines = _PRICE_FORMS[form](path.read_text(encoding="utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _analyze_priced(tmp_path, command, form, fmt):
    """The analyze report of the synth file ``command`` with its prices in ``form``."""
    path = _priced_file(tmp_path, command, form)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--input", str(path), "--format", fmt]) == 0
    return out.getvalue()


def _no_price_runs():
    for line in _NO_PRICE.read_text(encoding="utf-8").splitlines():
        digest, form, fmt, command = line.split("  ", 3)
        yield pytest.param(digest, fmt, command, form,
                           id=f"{form}-{fmt}-{command.replace(' ', '')}")


@pytest.mark.parametrize("digest, fmt, command, form", _no_price_runs())
def test_analyze_without_prices_keeps_its_pinned_bytes(tmp_path, digest, fmt, command, form):
    # Coverage needs a price on every day; constancy needs only the mean
    # price of the days that have one.
    report = _analyze_priced(tmp_path, command, form, fmt)
    if fmt == "csv":
        assert "\ncoverage," not in report
        assert ("\nconstancy." in report) == (form == "blank")
    else:
        assert "Coverage: skipped, no mean price available.\n" in report
        assert ("Constancy (by volume): skipped" in report) == (form == "cut")
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_one_blank_price_changes_only_the_constancy_lines(tmp_path, fmt):
    command = "synth --seed 42 --days 255"
    cut, blank, empty = (_analyze_priced(tmp_path, command, form, fmt)
                         for form in ("cut", "blank", "empty"))
    assert empty == cut  # no price on any day skips both checks

    def without_constancy(report):
        return [line for line in report.splitlines()
                if not line.startswith(("Constancy (", "constancy."))]

    assert blank != cut
    assert without_constancy(blank) == without_constancy(cut)
    if fmt == "csv":
        # The threshold, a hundredth of the mean price in kopecks, is the mean
        # price in rubles of the 254 days that have one.
        rows = (tmp_path / "blank.csv").read_text(encoding="utf-8").splitlines()[2:]
        prices = [float(row.rsplit(",", 1)[1]) for row in rows]
        threshold = float(blank.split("constancy.by_volume,threshold,", 1)[1].split("\n")[0])
        assert threshold == pytest.approx(math.fsum(prices) / len(prices), rel=1e-12)


@pytest.mark.parametrize("price", ["1e308", "1e-310"])
def test_prices_near_the_float_limits_give_a_report_without_a_warning(tmp_path, price):
    path = tmp_path / "market.csv"
    _synth("synth --seed 42", path)
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join([lines[0]] + [row.rsplit(",", 1)[0] + "," + price
                                            for row in lines[1:]]) + "\n", encoding="utf-8")
    reports = {}
    for fmt in ("text", "csv"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["analyze", "--input", str(path), "--format", fmt]) == 0
        reports[fmt] = out.getvalue()
    text, rows = reports["text"], dict(
        ((table, field), value) for table, field, value in csv.reader(io.StringIO(reports["csv"]))
        if table.startswith(("constancy", "coverage")))
    if price == "1e308":
        # Every day's price is the same, so the money coverage is the mean
        # of I/U_dep scaled down, a normal float.
        days = [row.split(",") for row in lines[1:]]
        coverage = math.fsum(float(d[1]) * 1e6 / float(d[4]) for d in days) / len(days) / 1e308
        assert text.count(", threshold 1.00E+308, passes: yes\n") == 2
        assert f"money coverage {coverage:.2E}\n" in text
        assert float(rows["coverage", "money_coverage"]) == pytest.approx(coverage, rel=1e-12)
        assert float(rows["constancy.by_volume", "threshold"]) == pytest.approx(1e308, rel=1e-15)
    else:
        assert text.count("): skipped, the mean price is outside the float range.\n") == 2
        assert "Coverage: skipped, the money coverage is outside the float range.\n" in text
        assert rows == {}


@pytest.mark.parametrize("prices", [("1e-310",), ("1e308",), ("1e-310", "1e308")],
                         ids=["tiny", "huge", "both"])
def test_first_prices_far_from_the_rest_skip_the_coverage_without_a_warning(tmp_path, capsys,
                                                                            prices):
    # At 1e-310 the largest price stays in the band, so nothing is scaled
    # and the first day's ratio overflows.  At 1e308 the column is scaled
    # to that price and the sum in the mean overflows.  With both, the
    # 1e-310 price scales to 0.  The exact mean is past the float range in
    # the first case and the last; the coverage is skipped in all three.
    path = tmp_path / "market.csv"
    _synth("synth --seed 42", path)
    lines = path.read_text(encoding="utf-8").splitlines()
    for row, price in enumerate(prices, 1):
        lines[row] = lines[row].rsplit(",", 1)[0] + "," + price
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["analyze", "--input", str(path)]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert "\nCoverage: skipped, the money coverage is outside the float range.\n" in out


@pytest.mark.parametrize("form", ["full", "blank", "cut"])
def test_the_price_checks_are_only_wired_by_the_pipeline(form):
    # Each constancy slot and the coverage slot is what the check itself
    # gives on the table, or its error as the reason it was skipped.
    days = gen_market_days(seed=42)
    if form == "blank":
        days = dataclasses.replace(days, mean_price=np.r_[math.nan, days.mean_price[1:]])
    elif form == "cut":
        days = dataclasses.replace(days, mean_price=None)
    report = build_analysis(days)

    def direct(check, *args):
        try:
            return check(*args)
        except SpeclossError as exc:
            return Skipped(str(exc))

    for result in report.variants:
        assert result.constancy == direct(constancy_check, u_series(days, result.variant), days)
        assert isinstance(result.constancy, Skipped) == (form == "cut")
    assert report.coverage == direct(coverage_ratios, days)
    assert isinstance(report.coverage, Skipped) == (form != "full")


def _every_slot_skipped(report):
    skipped = Skipped("no data for this check")
    return dataclasses.replace(
        report, coverage=skipped,
        variants=tuple(dataclasses.replace(result, constancy=skipped, break_means=skipped)
                       for result in report.variants),
    )


@pytest.mark.parametrize("command, form, skipped", [
    pytest.param("synth --seed 42", None, set(), id="full"),
    pytest.param("synth --seed 42", "cut", {"constancy", "coverage"}, id="price-cut"),
    pytest.param("synth --seed 42", "blank", {"coverage"}, id="one-blank-price"),
    pytest.param("synth --seed 3 --days 60", None, {"break"}, id="skipped-break"),
    pytest.param("synth --seed 42", "skip-all", {"constancy", "break", "coverage"},
                 id="every-slot-skipped"),
])
def test_renderers_agree_on_which_slots_exist(tmp_path, command, form, skipped):
    # A first-approach check has CSV rows exactly when its text line gives
    # results, not a reason it was skipped.
    if form in _PRICE_FORMS:
        path = _priced_file(tmp_path, command, form)
    else:
        _synth(command, path := tmp_path / "market.csv")
    report = build_analysis(load_market_csv(str(path)))
    if form == "skip-all":
        report = _every_slot_skipped(report)
    lines = render_analysis_text(report).splitlines()
    tables = {row[0] for row in csv.reader(io.StringIO(render_analysis_csv(report)))}
    slots = [("coverage", "Coverage:")]
    for result in report.variants:
        key, label = result.variant.value, result.variant.value.replace("_", " ")
        slots += [(f"constancy.{key}", f"Constancy ({label}):"),
                  (f"break.{key}", f"Break at {report.break_date.isoformat()} ({label})")]
    seen = set()
    for table, head in slots:
        [line] = [line for line in lines if line.startswith(head)]
        assert (table in tables) == ("skipped" not in line), (table, line)
        if table not in tables:
            seen.add(table.split(".")[0])
    assert seen == skipped


def _peak_bytes(run):
    """The tracemalloc peak of ``run()``, after one warm-up call."""
    run()  # the first call loads the coefficient tables and the like
    gc.collect()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def market_25500(tmp_path_factory):
    path = tmp_path_factory.mktemp("heap") / "market.csv"
    _synth("synth --seed 0 --days 25500", path)
    return str(path)


def test_analysis_heap_at_25500_days_stays_under_4_4_mb(market_25500):
    # 4.17 MB: the peak is RESID2's lag-5 refit, its own 1.63 MB work
    # array, one 0.20 MB row of scratch and the 0.20 MB of Δy, beside the
    # 1.22 MB table, both u series and both residual series (0.41 MB a
    # pair).  Its lag search scores the lags from the Gram matrix of a
    # stacked copy of the design and peaks at 3.91 MB; that copy is gone
    # before the refit builds its work array.
    # The calendar is one datetime64[D] array, no finished ADF fit keeps
    # its residuals, and the QR reflects one row at a time, so its scratch
    # is one row, not a second design.
    peak = _peak_bytes(lambda: build_analysis(load_market_csv(market_25500)))
    assert peak <= 4.4e6, f"peak {peak / 1e6:.2f} MB"


def test_loading_25500_days_stays_under_2_7_mb(market_25500):
    # 2.61 MB: the parsed records, which hold each date as 11 bytes (1.30
    # MB in all), beside the calendar and the five columns MarketData
    # copies out of them.  The file's 2.62 MB of bytes are scanned a 256 KB
    # block at a time; reading them whole put the peak at 3.03 MB.
    peak = _peak_bytes(lambda: load_market_csv(market_25500))
    assert peak <= 2.7e6, f"peak {peak / 1e6:.2f} MB"


def test_loading_255_days_stays_under_0_08_mb(tmp_path):
    # 0.070 MB: the scan of the body's bytes before the C parse, which
    # holds the file's 26 KB, a mask of them and each comma's index.  The
    # header's text reader, its csv reader and their decoded buffers
    # (about 0.03 MB) are dropped before the body is scanned; held through
    # the scan and the parse, they put the peak at 0.100 MB.
    path = tmp_path / "market.csv"
    _synth("synth --seed 42", path)
    peak = _peak_bytes(lambda: load_market_csv(str(path)))
    assert peak <= 0.08e6, f"peak {peak / 1e6:.3f} MB"


def test_generating_25500_days_stays_under_2_0_mb():
    # 1.68 MB: the calendar and four finished 0.20 MB columns, beside the
    # last column's 0.61 MB of draws in the making (uint64 states,
    # uniforms, radii, the interleaved normals).  Draws and recurrences
    # held as lists of Python floats put the peak at 2.87 MB.
    peak = _peak_bytes(lambda: gen_market_days(seed=0, n_days=25500))
    assert peak <= 2.0e6, f"peak {peak / 1e6:.2f} MB"


def test_writing_25500_days_stays_under_1_5_mb(market_25500, tmp_path):
    # 0.73 MB: rows go out in blocks, dates formatted a block at a time;
    # the whole date column as text would put the peak at 4.6 MB.
    days = load_market_csv(market_25500)
    peak = _peak_bytes(lambda: write_market_csv(days, str(tmp_path / "out.csv")))
    assert peak <= 1.5e6, f"peak {peak / 1e6:.2f} MB"


# The binary exponent each printed series carries per value column: a
# series scales by 2^(m*k) when the column scales by 2^k, since
# u = I*R/(365*U).  C is a pure number.
_COLUMN_FIELDS = {"i_mrub": "invest_i", "r_pct": "rate_r",
                  "u_big_vol": "u_big_vol", "u_big_dep": "u_big_dep"}
_UNITS = {
    "C": {}, "I": {"i_mrub": 1}, "R": {"r_pct": 1},
    "U_BIG_VOL": {"u_big_vol": 1}, "U_BIG_DEP": {"u_big_dep": 1},
    "U_SMALL_VOL": {"i_mrub": 1, "r_pct": 1, "u_big_vol": -1},
    "U_SMALL_DEP": {"i_mrub": 1, "r_pct": 1, "u_big_dep": -1},
}
_VARIANT_U = {"by_volume": "U_SMALL_VOL", "by_deposit": "U_SMALL_DEP"}
_COVERAGE_UNITS = {"stock_utilization": {"u_big_vol": 1, "u_big_dep": -1},
                   "money_coverage": {"i_mrub": 1, "u_big_dep": -1}}
_BREAK_DATE = datetime.date(2012, 5, 10)
_baseline_rows: dict[int, list[list[str]]] = {}


def _analyze_rows(path, break_date):
    """The rows of ``analyze --format csv``; the run must exit 0 and write no error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["analyze", "--input", str(path), "--break-date", str(break_date),
                     "--format", "csv"])
    assert (code, err.getvalue()) == (0, "")
    return [line.split(",", 2) for line in out.getvalue().splitlines()[1:]]


def _predicted(table, field, old, rows_of, column, k, weeks):
    """What a row of the unscaled run reads with ``column`` scaled by 2^k
    and the calendar moved by ``weeks``: the same text, or a float."""
    def exponent(name):
        return _UNITS[name].get(column, 0) * k

    head, _, variant = table.partition(".")
    if table == "run" and field == "break_date":
        return str(_BREAK_DATE + datetime.timedelta(weeks=weeks))
    if head == "ols":
        dep = exponent(rows_of[table]["dependent"])
        nobs = int(rows_of[table]["nobs"])
        kind, _, regressor = field.partition(".")
        if kind in ("coef", "stderr"):
            return math.ldexp(float(old), dep - exponent(regressor))
        if field in ("se_regression", "mean_dep", "sd_dep"):
            return math.ldexp(float(old), dep)
        if field == "ssr":
            return math.ldexp(float(old), 2 * dep)
        # log L = -T/2 (1 + log 2 pi + log(SSR/T)); the criteria are -2 log L / T + c.
        if field == "log_likelihood":
            return float(old) - nobs * dep * math.log(2.0)
        if field in ("aic", "schwarz", "hannan_quinn"):
            return float(old) + 2.0 * dep * math.log(2.0)
    if head in ("constancy", "break") and field not in ("threshold", "ratio"):
        u = exponent(_VARIANT_U[variant])
        if field == "passes":  # sd < a hundredth of the mean price in kopecks
            sd = math.ldexp(float(rows_of[table]["stddev"]), u)
            return str(sd < float(rows_of[table]["threshold"])).lower()
        return math.ldexp(float(old), u)
    if table == "coverage":
        return math.ldexp(float(old), _COVERAGE_UNITS[field].get(column, 0) * k)
    return old


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
# Far outside k = +-60 the fits work on columns scaled back into range.
@example(seed=42, column="i_mrub", k=300, weeks=0)
@example(seed=42, column="i_mrub", k=-300, weeks=0)
@example(seed=42, column="i_mrub", k=500, weeks=0)
@example(seed=42, column="i_mrub", k=-500, weeks=0)
@given(seed=st.integers(0, 10_000), column=st.sampled_from(sorted(_COLUMN_FIELDS)),
       k=st.integers(-60, 60), weeks=st.integers(-520, 520))
def test_analyze_of_a_rescaled_input_is_the_predicted_report(tmp_path_factory, seed, column,
                                                             k, weeks):
    # Scaling a value column by 2^k is exact, and the report's statistics do
    # not depend on units: t, p, lags, verdicts, R^2, F and Durbin-Watson
    # keep their bits, a field in units moves by exactly its power of two,
    # and the likelihood rows shift by T*k*ln 2.  Moving the calendar by
    # whole weeks, with the break date, moves only the break date's row.
    # Traded stocks never exceed deposited ones: u_big_vol only shrinks, u_big_dep only grows.
    k = {"u_big_vol": -abs(k), "u_big_dep": abs(k)}.get(column, k)
    path = tmp_path_factory.mktemp("scaled") / "market.csv"
    days = gen_market_days(seed=seed)
    if seed not in _baseline_rows:
        write_market_csv(days, str(path))
        _baseline_rows[seed] = _analyze_rows(path, _BREAK_DATE)
    want = _baseline_rows[seed]
    field = _COLUMN_FIELDS[column]
    scaled = dataclasses.replace(days, dates=days.dates + np.timedelta64(7 * weeks, "D"),
                                 **{field: np.ldexp(getattr(days, field), k)})
    write_market_csv(scaled, str(path))
    got = _analyze_rows(path, _BREAK_DATE + datetime.timedelta(weeks=weeks))
    assert [row[:2] for row in got] == [row[:2] for row in want]
    rows_of: dict[str, dict[str, str]] = {}
    for table, name, value in want:
        rows_of.setdefault(table, {})[name] = value
    for (table, name, old), (_, _, new) in zip(want, got):
        expected = _predicted(table, name, old, rows_of, column, k, weeks)
        where = f"{table},{name} at {column} * 2^{k}"
        if isinstance(expected, str):
            assert new == expected, where
        elif name in ("log_likelihood", "aic", "schwarz", "hannan_quinn"):
            assert float(new) == pytest.approx(expected, rel=1e-12), where
        else:
            assert float(new) == expected, where
