"""Whole-run checks of ``analyze``: pinned CSV bytes at scale and the heap it holds."""

import contextlib
import gc
import hashlib
import io
import math
import tracemalloc
from pathlib import Path

import pytest

from specloss.cli import main
from specloss.dataio import RunConfig, load_market_csv, write_market_csv
from specloss.pipeline import build_analysis
from specloss.synth import SynthConfig, gen_market_days

_PINNED = Path(__file__).parent / "data" / "analyze_csv_sha256.txt"


def _synth(command, path):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(command.split() + ["--out", str(path)]) == 0


def _pinned_runs():
    for line in _PINNED.read_text(encoding="utf-8").splitlines():
        digest, command = line.split("  ", 1)
        yield pytest.param(digest, command, id=command.replace(" ", ""))


@pytest.mark.parametrize("digest, command", _pinned_runs())
def test_analyze_csv_keeps_its_pinned_bytes(tmp_path, digest, command):
    # The CSV report prints repr of every statistic, so one changed bit in
    # any fit at 255, 2,550 or 25,500 days changes the digest.
    path = tmp_path / "market.csv"
    _synth(command, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--input", str(path), "--format", "csv"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


_NO_PRICE = Path(__file__).parent / "data" / "analyze_no_price_sha256.txt"

# Three ways a file can lack prices: the column cut (as `cut -d, -f1-5`
# does), one day's cell left empty, or every day's cell left empty.
_PRICE_FORMS = {
    "cut": lambda lines: [line.rsplit(",", 1)[0] for line in lines],
    "blank": lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",", *lines[2:]],
    "empty": lambda lines: [lines[0], *(line.rsplit(",", 1)[0] + "," for line in lines[1:])],
}


def _analyze_priced(tmp_path, command, form, fmt):
    """The analyze report of the synth file ``command`` with its prices in ``form``."""
    path = tmp_path / f"{form}.csv"
    _synth(command, path)
    lines = _PRICE_FORMS[form](path.read_text(encoding="utf-8").splitlines())
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    # 4.19 MB: the peak is the factorization in the last ADF refit, its
    # 1.84 MB work array and one 0.20 MB row of scratch beside what the
    # run holds.  The calendar is one datetime64[D] array, no finished
    # ADF fit keeps its residuals, and the QR reflects one row at a time,
    # so its scratch is one row, not a second design.
    peak = _peak_bytes(lambda: build_analysis(RunConfig(input_path=market_25500)))
    assert peak <= 4.4e6, f"peak {peak / 1e6:.2f} MB"


def test_loading_25500_days_stays_under_2_7_mb(market_25500):
    # 2.61 MB: the parsed records, which hold each date as 11 bytes (1.30
    # MB in all), beside the calendar and the five columns MarketData
    # copies out of them.  The file's 2.62 MB of bytes are scanned a 256 KB
    # block at a time; reading them whole put the peak at 3.03 MB.
    peak = _peak_bytes(lambda: load_market_csv(market_25500))
    assert peak <= 2.7e6, f"peak {peak / 1e6:.2f} MB"


def test_generating_25500_days_stays_under_2_0_mb():
    # 1.68 MB: the calendar and four finished 0.20 MB columns, beside the
    # last column's 0.61 MB of draws in the making (uint64 states,
    # uniforms, radii, the interleaved normals).  Draws and recurrences
    # held as lists of Python floats put the peak at 2.87 MB.
    config = SynthConfig(seed=0, n_days=25500)
    peak = _peak_bytes(lambda: gen_market_days(config))
    assert peak <= 2.0e6, f"peak {peak / 1e6:.2f} MB"


def test_writing_25500_days_stays_under_1_5_mb(market_25500, tmp_path):
    # 0.73 MB: rows go out in blocks, dates formatted a block at a time;
    # the whole date column as text would put the peak at 4.6 MB.
    days = load_market_csv(market_25500)
    peak = _peak_bytes(lambda: write_market_csv(days, str(tmp_path / "out.csv")))
    assert peak <= 1.5e6, f"peak {peak / 1e6:.2f} MB"
