"""Whole-run checks of ``analyze``: pinned CSV bytes at scale and the heap it holds."""

import contextlib
import gc
import hashlib
import io
import tracemalloc
from pathlib import Path

import pytest

from specloss.cli import main
from specloss.dataio import RunConfig
from specloss.pipeline import build_analysis

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
    # any fit at 2,550 or 25,500 days changes the digest.
    path = tmp_path / "market.csv"
    _synth(command, path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["analyze", "--input", str(path), "--format", "csv"]) == 0
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == digest


def test_analysis_heap_at_25500_days_stays_under_10_mb(tmp_path):
    path = tmp_path / "market.csv"
    _synth("synth --seed 0 --days 25500", path)
    config = RunConfig(input_path=str(path))
    build_analysis(config)  # the first run loads the coefficient tables
    gc.collect()
    tracemalloc.start()
    try:
        build_analysis(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10e6, f"peak {peak / 1e6:.2f} MB"
