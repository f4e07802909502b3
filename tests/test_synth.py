"""Tests for the deterministic synthetic data generators."""

import contextlib
import datetime
import hashlib
import io
import math
from pathlib import Path

import numpy as np
import pytest

from generators import gen_ar1, gen_cointegrated, gen_random_walk
from specloss.cli import main
from specloss.errors import InvalidArgumentError
from specloss.market import UVariant, u_series
from specloss.ols import RegressionSpec
from specloss import synth
from specloss.series import trading_dates
from specloss.synth import NormalStream, SynthConfig, gen_market_days


def test_stream_is_deterministic_per_seed_and_label():
    a = NormalStream(7, "alpha").normals(64)
    b = NormalStream(7, "alpha").normals(64)
    c = NormalStream(7, "beta").normals(64)
    d = NormalStream(8, "alpha").normals(64)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_normals_match_single_draws():
    stream = NormalStream(3, "single")
    singles = [stream.normal() for _ in range(10)]
    assert np.array_equal(NormalStream(3, "single").normals(10), singles)


def test_stream_blocks_interleave_with_single_draws():
    """normals(k) gives the next k scalar draws and leaves the same state,
    whether a draw is cached on entry or k is odd."""
    blocks = NormalStream(11, "blocks")
    scalar = NormalStream(11, "blocks")
    for k in (0, 1, 4, 3, 0, 2, 7, 1, 1, 6, 5, 25501):
        if k % 3 == 1:  # a single draw between blocks caches a value or uses it up
            assert blocks.normal() == scalar.normal()
        want = [scalar.normal() for _ in range(k)]
        assert blocks.normals(k).tolist() == want, k
        assert (blocks._state, blocks._cached) == (scalar._state, scalar._cached), k


def test_stream_moments_are_standard_normal():
    draws = NormalStream(0, "moments").normals(20000)
    assert abs(float(np.mean(draws))) < 0.03
    assert abs(float(np.var(draws)) - 1.0) < 0.05
    # Symmetric tails: roughly 5% of draws beyond +/-1.96.
    frac = float(np.mean(np.abs(draws) > 1.96))
    assert 0.04 < frac < 0.06


def test_random_walk_zero_scale_is_exact_drift_line():
    walk = gen_random_walk(5, 10, drift=1.0, scale=0.0)
    assert list(walk.values) == [float(t) for t in range(1, 11)]


def test_random_walk_determinism_and_increments():
    walk = gen_random_walk(9, 200, drift=0.25, scale=2.0, label="RWT")
    again = gen_random_walk(9, 200, drift=0.25, scale=2.0, label="RWT")
    assert np.array_equal(walk.values, again.values)
    # Increments are exactly drift + scale * the labeled stream's draws.
    shocks = NormalStream(9, "RWT").normals(200)
    increments = np.diff(np.concatenate([[0.0], walk.values]))
    assert np.allclose(increments, 0.25 + 2.0 * shocks, rtol=0, atol=1e-12)


def test_ar1_phi_zero_reduces_to_scaled_stream():
    series = gen_ar1(4, 50, phi=0.0, scale=3.0, label="IND")
    shocks = NormalStream(4, "IND").normals(50)
    assert np.array_equal(series.values, 3.0 * shocks)


def test_ar1_autocorrelation_tracks_phi():
    def lag1_corr(values):
        x = values - values.mean()
        return float(np.sum(x[1:] * x[:-1]) / np.sum(x * x))

    white = gen_ar1(2, 4000, phi=0.0, label="ACF")
    assert abs(lag1_corr(white.values)) < 0.1
    persistent = gen_ar1(2, 4000, phi=0.8, label="ACF")
    assert 0.7 < lag1_corr(persistent.values) < 0.9


def test_ar1_starts_from_stationary_distribution():
    # The first draw's variance equals scale^2/(1 - phi^2), not scale^2.
    phi, scale = 0.8, 1.0
    first = [gen_ar1(seed, 2, phi=phi, scale=scale, label="INIT").values[0]
             for seed in range(300)]
    target = scale * scale / (1.0 - phi * phi)
    assert abs(float(np.var(first)) - target) < 0.25 * target


def test_ar1_zero_scale_is_identically_zero():
    assert not np.any(gen_ar1(1, 20, phi=0.5, scale=0.0).values)


def test_market_days_shape_and_invariants():
    config = SynthConfig(seed=13, n_days=120)
    days = gen_market_days(config)
    assert len(days) == 120
    assert np.array_equal(days.dates, trading_dates(120))
    assert np.all(days.invest_i >= 0.0)
    assert np.all(days.rate_r >= 0.0)
    assert np.all((0.0 <= days.u_big_vol) & (days.u_big_vol <= days.u_big_dep))
    assert days.mean_price is not None and np.all(days.mean_price > 0.0)
    assert gen_market_days(config) == days


def test_market_days_break_multiplies_invest_exactly():
    base = gen_market_days(SynthConfig(seed=3, n_days=60))
    broken = gen_market_days(SynthConfig(seed=3, n_days=60, break_factor=2.0,
                                         break_index=40))
    for t in range(60):
        if t < 40:
            assert broken.invest_i[t] == base.invest_i[t]
        else:
            assert broken.invest_i[t] == 2.0 * base.invest_i[t]
        # The break leaves every other variable untouched.
        assert broken.rate_r[t] == base.rate_r[t]
        assert broken.u_big_vol[t] == base.u_big_vol[t]
        assert broken.u_big_dep[t] == base.u_big_dep[t]


def test_market_days_break_defaults_to_midpoint():
    base = gen_market_days(SynthConfig(seed=4, n_days=50))
    broken = gen_market_days(SynthConfig(seed=4, n_days=50, break_factor=3.0))
    changed = [t for t in range(50) if broken.invest_i[t] != base.invest_i[t]]
    assert changed == list(range(25, 50))


def test_zero_noise_scale_makes_u_linear_in_invest():
    config = SynthConfig(seed=6, n_days=40, noise_scale=0.0)
    days = gen_market_days(config)
    assert np.all(days.rate_r == synth._R0)
    assert np.all(days.u_big_vol == synth._UVOL0)
    assert np.all(days.u_big_dep == synth._UVOL0 + synth._DEP0)
    assert np.all(days.mean_price == synth._PRICE0)
    u = u_series(days, UVariant.BY_VOLUME)
    slope = 1e8 * (synth._R0 / 100.0) / (365.0 * synth._UVOL0)
    assert np.allclose(u.values, slope * days.invest_i, rtol=1e-12)


def test_synth_config_validation():
    with pytest.raises(InvalidArgumentError):
        SynthConfig(n_days=29)
    with pytest.raises(InvalidArgumentError):
        SynthConfig(noise_scale=-0.1)
    with pytest.raises(InvalidArgumentError):
        SynthConfig(break_factor=0.0)
    with pytest.raises(InvalidArgumentError):
        SynthConfig(break_index=0)
    with pytest.raises(InvalidArgumentError):
        SynthConfig(n_days=50, break_index=50)
    SynthConfig(n_days=50, break_index=49)


def test_gen_cointegrated_layout():
    spec = gen_cointegrated(2, n=100)
    assert spec.dependent.name == "Y"
    assert [s.name for s in spec.regressors] == ["X1", "X2", "X3"]
    assert len(spec.dependent) == 100
    assert all(np.array_equal(s.dates, spec.dependent.dates) for s in spec.regressors)


def test_default_config_produces_plausible_magnitudes():
    days = gen_market_days(SynthConfig(seed=0))
    u = u_series(days, UVariant.BY_VOLUME)
    # Around 20 billion rubles at around 5.5% over around six million
    # stocks is tens of kopecks per stock per day.
    assert 10.0 < float(np.mean(u.values)) < 200.0
    assert 3.0 < float(np.mean(days.rate_r)) < 8.0
    assert math.isclose(
        float(np.mean(days.u_big_vol / days.u_big_dep)),
        0.1,
        abs_tol=0.05,
    )


def _weekday_walk(n, start):
    """The first n weekdays from start, one day at a time."""
    out = []
    day = start
    while len(out) < n:
        if day.weekday() < 5:
            out.append(day)
        day += datetime.timedelta(days=1)
    return tuple(out)


@pytest.mark.parametrize("n", [1, 2000])
@pytest.mark.parametrize("start_day", range(2, 9))  # Monday 2012-01-02 to Sunday
def test_trading_dates_are_the_weekday_walk(n, start_day):
    start = datetime.date(2012, 1, start_day)
    dates = trading_dates(n, start)
    assert dates.dtype == np.dtype("datetime64[D]")
    assert tuple(dates.tolist()) == _weekday_walk(n, start)


def test_trading_dates_stop_at_the_last_date():
    assert trading_dates(1, datetime.date(9999, 12, 31)).tolist() == [datetime.date(9999, 12, 31)]
    with pytest.raises(InvalidArgumentError, match="9999-12-31"):
        trading_dates(3, datetime.date(9999, 12, 30))
    with pytest.raises(InvalidArgumentError):
        trading_dates(0)


# sha256 of `specloss synth` files, one "digest  arguments" line each, taken
# before the generator and the writer were vectorised.
_PINNED = Path(__file__).parent / "data" / "synth_sha256.txt"


def _pinned_runs():
    for line in _PINNED.read_text(encoding="utf-8").splitlines():
        digest, command = line.split("  ", 1)
        yield pytest.param(digest, command, id=command.replace(" ", ""))


@pytest.mark.parametrize("digest, command", _pinned_runs())
def test_synth_files_keep_their_pinned_bytes(tmp_path, digest, command):
    path = tmp_path / "synth.csv"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(command.split() + ["--out", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# sha256 of the test generators' dates and values, one "digest  call name
# field" line each, taken while the generators still shipped in specloss.
_GENERATED = Path(__file__).parent / "data" / "generators_sha256.txt"
_GENERATORS = {"gen_random_walk": gen_random_walk, "gen_ar1": gen_ar1,
               "gen_cointegrated": gen_cointegrated}


def _generated_series():
    """(call, {(name, field): digest}) for each pinned generator call."""
    calls: dict[str, dict[tuple[str, str], str]] = {}
    for line in _GENERATED.read_text(encoding="utf-8").splitlines():
        digest, rest = line.split("  ", 1)
        call, name, field = rest.rsplit(" ", 2)
        calls.setdefault(call, {})[name, field] = digest
    for call, digests in calls.items():
        yield pytest.param(call, digests, id=call.replace(" ", ""))


@pytest.mark.parametrize("call, digests", _generated_series())
def test_generators_keep_their_pinned_bits(call, digests):
    made = eval(call, {"__builtins__": {}}, _GENERATORS)
    series = [made.dependent, *made.regressors] if isinstance(made, RegressionSpec) else [made]
    got = {}
    for s in series:
        got[s.name, "dates"] = hashlib.sha256(s.dates.astype("datetime64[D]").tobytes()).hexdigest()
        got[s.name, "values"] = hashlib.sha256(s.values.tobytes()).hexdigest()
    assert got == digests
