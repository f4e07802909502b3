"""Tests for the ADF machinery: lag choice, surfaces, verdicts."""

import math
import struct

import numpy as np
import pytest
from hypothesis import assume, event, given, reject, settings
from hypothesis import strategies as st

from generators import adf_regression, gen_ar1, gen_random_walk
from oracles import lstsq_fit
from specloss.errors import (
    InsufficientDataError,
    InvalidArgumentError,
    SingularMatrixError,
    UnsupportedConfigError,
)
from specloss import ols, series, special, unit_root
from specloss.market import UVariant, u_series
from specloss.ols import fit_arrays
from specloss.series import TimeSeries, diff, trading_dates
from specloss.synth import _normals, gen_market_days
from specloss.unit_root import (
    Verdict,
    adf_test,
    classify_ladder,
    mackinnon_critical_values,
    mackinnon_pvalue,
    select_lag,
    stationarity_ladder,
    verdict_from_t,
)

# Constant-only Dickey-Fuller critical values as printed by EViews 8 at
# the matching included-observation counts (T_eff = 250..252).
CV_ANCHORS = [
    (252, (-3.456197, -2.872811, -2.572851)),
    (251, (-3.456302, -2.872857, -2.572875)),
    (250, (-3.456408, -2.872904, -2.572900)),
]


def test_critical_values_match_printed_tables():
    for t_eff, printed in CV_ANCHORS:
        for level, want in zip((1, 5, 10), printed):
            got = mackinnon_critical_values(level, t_eff)
            assert abs(got - want) < 1e-3


def test_critical_values_approach_asymptotic_limits():
    assert math.isclose(mackinnon_critical_values(1, 10**9), -3.43035, abs_tol=1e-4)
    assert math.isclose(mackinnon_critical_values(5, 10**9), -2.86154, abs_tol=1e-4)
    assert math.isclose(mackinnon_critical_values(10, 10**9), -2.56677, abs_tol=1e-4)


def test_critical_values_ordering_and_sample_size_effect():
    for t_eff in (25, 50, 100, 250, 1000):
        cv1 = mackinnon_critical_values(1, t_eff)
        cv5 = mackinnon_critical_values(5, t_eff)
        cv10 = mackinnon_critical_values(10, t_eff)
        assert cv1 < cv5 < cv10 < 0.0
    # Small samples push the critical values further left.
    assert mackinnon_critical_values(5, 25) < mackinnon_critical_values(5, 2500)


def test_critical_values_reject_unsupported_configs():
    with pytest.raises(InvalidArgumentError):
        mackinnon_critical_values(2, 100)
    with pytest.raises(InvalidArgumentError):
        mackinnon_critical_values(5, 0)


def test_pvalue_anchors_from_printed_output():
    # EViews prints MacKinnon (1996) one-sided p-values with a
    # finite-sample adjustment; the embedded surface is the asymptotic
    # one, so agreement is to a few parts in a thousand.
    pairs = [
        (-3.370369, 0.0129),
        (-2.152787, 0.2244),
        (-1.801486, 0.3793),
        (-3.349603, 0.0138),
        (-3.681785, 0.0049),
        (-0.331998, 0.9168),
    ]
    for t, printed in pairs:
        assert abs(mackinnon_pvalue(t) - printed) < 5e-3


def test_pvalue_clamps():
    assert mackinnon_pvalue(-25.0) == 1e-6
    assert mackinnon_pvalue(-13.40007) == 1e-6
    assert mackinnon_pvalue(50.0) == 0.9999
    assert math.isnan(mackinnon_pvalue(math.nan))


def test_pvalue_consistent_with_critical_values():
    # At the asymptotic critical value for each level the p-value is the
    # level itself, up to surface fitting error.
    for level in (1, 5, 10):
        cv = mackinnon_critical_values(level, 10**9)
        assert abs(mackinnon_pvalue(cv) - level / 100.0) < 2e-3


def test_pvalue_monotone_for_every_table_row():
    grid = np.arange(-20.0, 4.0, 0.005)
    for n_vars in range(1, 7):
        previous = -1.0
        for t in grid:
            p = mackinnon_pvalue(float(t), n_variables=n_vars)
            assert p >= previous - 1e-15
            previous = p


# tau_star of each row of the p-value surface table, and the drop in p
# across it where the two published branches do not meet.
_TAU_STAR = {1: -1.61, 2: -2.62, 3: -3.13, 4: -3.47, 5: -3.78, 6: -3.93}
_SEAM_DROP = {2: 8.09e-4, 6: 6.49e-4}


def test_pvalue_seam_drops_only_where_the_table_says():
    for n_vars, tau_star in _TAU_STAR.items():
        at = mackinnon_pvalue(tau_star, n_variables=n_vars)
        above = mackinnon_pvalue(math.nextafter(tau_star, math.inf), n_variables=n_vars)
        if n_vars in _SEAM_DROP:
            assert abs((at - above) - _SEAM_DROP[n_vars]) < 5e-7, n_vars
        else:
            assert above > at, n_vars


_STATISTICS = st.one_of(
    st.floats(-25.0, 5.0),
    st.sampled_from([t for tau in _TAU_STAR.values()
                     for t in (tau, math.nextafter(tau, math.inf))]),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(n_vars=st.integers(1, 6), a=_STATISTICS, b=_STATISTICS)
def test_pvalue_non_decreasing_in_t(n_vars, a, b):
    """Within a branch for every row; across tau_star only up to the pinned drop."""
    lo, hi = min(a, b), max(a, b)
    p_lo = mackinnon_pvalue(lo, n_variables=n_vars)
    p_hi = mackinnon_pvalue(hi, n_variables=n_vars)
    crosses_seam = lo <= _TAU_STAR[n_vars] < hi
    slack = _SEAM_DROP.get(n_vars, 0.0) + 5e-7 if crosses_seam else 0.0
    assert p_hi >= p_lo - slack


def test_pvalue_rejects_unsupported_configs():
    with pytest.raises(UnsupportedConfigError):
        mackinnon_pvalue(-2.0, n_variables=9)


def test_adf_regression_shape_and_labels():
    s = gen_random_walk(1, 60, label="WALK").with_name("Y")
    reg = adf_regression(s, 2)
    assert reg.nobs == 60 - 1 - 2
    assert [row.name for row in reg.coef_rows] == [
        "C", "Y(-1)", "D(Y(-1))", "D(Y(-2))"
    ]
    assert reg.dep_name == "D(Y)"


def test_adf_regression_rejects_bad_input():
    s = gen_random_walk(2, 12, label="SHORT")
    with pytest.raises(InvalidArgumentError):
        adf_regression(s, -1)
    with pytest.raises(InsufficientDataError):
        adf_regression(s, 5)


def test_select_lag_prefers_zero_for_white_noise():
    zeros = 0
    for seed in range(40):
        s = gen_ar1(seed, 200, phi=0.0, label="WN")
        if select_lag(s, 5) == 0:
            zeros += 1
    assert zeros >= 30


def test_select_lag_finds_ar2_difference_structure():
    # Differences follow an AR(2), so the augmentation needs two lags.
    hits = 0
    for seed in range(40):
        n = 300
        dy = np.zeros(n)
        shocks = _normals(seed, "ARD", n)
        for t in range(2, n):
            dy[t] = 0.5 * dy[t - 1] + 0.3 * dy[t - 2] + shocks[t]
        s = TimeSeries(trading_dates(n), np.cumsum(dy), name="Y")
        if select_lag(s, 5) >= 2:
            hits += 1
    assert hits >= 36


def test_select_lag_bounds_and_errors():
    s = gen_random_walk(3, 100, label="B")
    for max_lag in (0, 2, 5):
        assert 0 <= select_lag(s, max_lag) <= max_lag
    short = gen_random_walk(3, 12, label="B2")
    for run in (select_lag, adf_test):
        with pytest.raises(InvalidArgumentError):
            run(s, -1)
        with pytest.raises(InsufficientDataError, match="B2 of length 12 is too short"):
            run(short, 5)


def _schwarz_lag_by_separate_fits(y, max_lag):
    """Reference lag choice: one full fit per candidate on the common sample."""
    v = y.values
    n = len(v)
    dy = v[1:] - v[:-1]
    start = max_lag + 1
    best_lag, best_sc = 0, math.inf
    for lag in range(max_lag + 1):
        cols = [np.ones(n - start), v[start - 1 : n - 1]]
        cols += [dy[start - 1 - i : n - 1 - i] for i in range(1, lag + 1)]
        sc = fit_arrays(dy[start - 1 :], np.column_stack(cols)).schwarz
        if sc < best_sc:
            best_lag, best_sc = lag, sc
    return best_lag


def test_select_lag_matches_separate_candidate_fits():
    for seed in range(50):
        days = gen_market_days(seed=seed)
        levels = [u_series(days, UVariant.BY_VOLUME),
                  u_series(days, UVariant.BY_DEPOSIT),
                  *days.series().values()]
        for s in levels + [diff(s) for s in levels]:
            for max_lag in (1, 5, 8):
                want = _schwarz_lag_by_separate_fits(s, max_lag)
                assert select_lag(s, max_lag) == want, (seed, s.name, max_lag)


def test_constant_series_is_singular_for_lag_search():
    s = TimeSeries(trading_dates(60), np.full(60, 3.5), name="K")
    for max_lag in (0, 1, 5):
        with pytest.raises(SingularMatrixError):
            select_lag(s, max_lag)
        with pytest.raises(SingularMatrixError):
            adf_test(s, max_lag)


def test_adf_t_statistic_invariant_under_affine_transforms():
    for seed in range(10):
        s = gen_random_walk(seed, 150, label="AFF")
        t_base = adf_test(s).t_statistic
        shifted = TimeSeries(s.dates, 5.0 + 3.0 * s.values, name="T")
        assert abs(adf_test(shifted).t_statistic - t_base) < 1e-8


def test_adf_test_fields_are_consistent():
    s = gen_random_walk(7, 255, label="FLD").with_name("X")
    result = adf_test(s, max_lag=5)
    assert result.series_name == "X"
    assert result.max_lag == 5
    assert 0 <= result.chosen_lag <= 5
    assert result.effective_obs == 255 - 1 - result.chosen_lag
    reg = adf_regression(s, result.chosen_lag)
    assert result.effective_obs == reg.nobs
    assert result.t_statistic == reg.coef_rows[1].t_stat
    assert result.p_value == mackinnon_pvalue(result.t_statistic)
    assert set(result.critical_values) == {1, 5, 10}
    for level in (1, 5, 10):
        want = mackinnon_critical_values(level, result.effective_obs)
        assert result.critical_values[level] == want
    assert result.verdict == verdict_from_t(result.t_statistic,
                                            result.critical_values)
    with pytest.raises(TypeError):
        result.critical_values[1] = 0.0


def _bits(x):
    return struct.pack("<d", x)


def _ar2_in_differences(seed, n):
    """A walk whose steps follow an AR(2), so SIC picks a lag above 0."""
    e = np.random.default_rng(seed).standard_normal(n)
    dy = np.zeros(n)
    for t in range(2, n):
        dy[t] = 0.6 * dy[t - 1] - 0.3 * dy[t - 2] + e[t]
    return np.cumsum(dy)


@pytest.mark.parametrize("scale", [1.0, 1e-8, 1e8])
@pytest.mark.parametrize("n", [255, 2550, 25500])
def test_adf_t_statistic_has_the_bits_of_the_auxiliary_regression(n, scale):
    walk = gen_random_walk(21, n, label="LEAN").values
    lags = []
    for values in (walk, _ar2_in_differences(n, n)):
        level = TimeSeries(trading_dates(n), scale * values, name="L")
        for s in (level, diff(level)):
            result = adf_test(s)
            reg = adf_regression(s, result.chosen_lag)
            assert _bits(result.t_statistic) == _bits(reg.coef_rows[1].t_stat)
            assert result.effective_obs == reg.nobs
            lags.append(result.chosen_lag)
    assert max(lags) > 0


def _ar5_in_differences(seed, n):
    """A walk whose steps echo the step five days back, so SIC picks lag 5."""
    e = np.random.default_rng(seed).standard_normal(n)
    dy = np.zeros(n)
    for t in range(5, n):
        dy[t] = 0.8 * dy[t - 5] + e[t]
    return np.cumsum(dy)


def _near_tie():
    """R at 30 days, noise 0.05: at max_lag 13 SIC's best two lags lie within the margin."""
    return gen_market_days(seed=3617, n_days=30, noise_scale=0.05).series()["R"]


def _count_calls(monkeypatch, name, modules):
    """Wrap ``name`` in each module so that every call is listed; return the list."""
    calls, wrapped = [], getattr(modules[0], name)

    def counting(*args):
        calls.append(args)
        return wrapped(*args)

    for module in modules:
        monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("values, max_lag, lag, factors", [
    pytest.param(gen_random_walk(0, 60, label="RW").values, 0, 0, 1, id="max-lag-0"),
    pytest.param(_ar5_in_differences(0, 60), 5, 5, 1, id="lag-5-of-5"),
    pytest.param(gen_random_walk(1, 60, label="RW").values, 5, 2, 1, id="lag-2-of-5"),
    pytest.param(_near_tie().values, 13, 12, 2, id="near-tie"),
])
def test_adf_test_factors_only_the_chosen_lag(monkeypatch, values, max_lag, lag, factors):
    # Where the Gram route certifies the lag, the refit of that lag is the
    # one factorization; where it declines, the exact search factors the
    # max_lag design first.
    factored = _count_calls(monkeypatch, "_factor", (ols, unit_root))
    searched = _count_calls(monkeypatch, "_qr_lag", (unit_root,))
    s = TimeSeries(trading_dates(len(values)), values, name="F")
    result = adf_test(s, max_lag)
    assert (result.chosen_lag, len(factored), len(searched)) == (lag, factors, factors - 1)
    assert len(factored[-1][1]) == 2 + lag  # the refit's columns
    reg = adf_regression(s, lag)
    assert _bits(result.t_statistic) == _bits(reg.coef_rows[1].t_stat)
    assert result.effective_obs == reg.nobs


def _walk_120():
    return gen_random_walk(3, 120, label="W").values


def _chosen_or_error(s, max_lag):
    try:
        result = adf_test(s, max_lag)
    except SingularMatrixError as exc:
        return str(exc)
    return result.chosen_lag, result.t_statistic.hex(), result.effective_obs


# Each way the Gram route declines, and adf_test's result or error there,
# as the exact search alone gave it before the Gram route was added.
@pytest.mark.parametrize("make, max_lag, margin, want", [
    pytest.param(lambda: gen_market_days(seed=7, noise_scale=0).series()["R"], 5, False,
                 "regressor 'D(R(-1))' is identically zero", id="zero-column"),
    pytest.param(lambda: TimeSeries(trading_dates(120), 1.0 + 1e-9 * _walk_120(), name="NC"),
                 3, False, (0, "-0x1.224fcd56d9913p+1", 119), id="near-collinear"),
    pytest.param(lambda: TimeSeries(trading_dates(120), 1e6 + 1e-4 * _walk_120(), name="NC"),
                 3, False, (0, "-0x1.224fc2b76c1bbp+1", 119), id="collinear-to-rounding"),
    pytest.param(lambda: TimeSeries(trading_dates(120),
                                    np.concatenate([[1.0], 1e-160 * _walk_120()[:-1]]),
                                    name="TINY"),
                 1, False, (0, "-0x1.58028974fe6afp+55", 119), id="outside-the-band"),
    pytest.param(lambda: TimeSeries(trading_dates(17), np.arange(17.0), name="E"), 0, False,
                 (0, "nan", 16), id="exact-fit"),
    pytest.param(_near_tie, 13, True, (12, "-0x1.168522a969586p-1", 17), id="near-tie"),
])
def test_each_decline_runs_the_exact_search_with_its_bits(monkeypatch, make, max_lag, margin,
                                                           want):
    s = make()
    dep, cols, names, e = unit_root._adf_columns(s, max_lag)
    assert unit_root._gram_lag(dep, cols, e) is None
    # Only a near-tie forms every bound and is declined by the margin.
    assert (ols._gram_ssrs(dep, cols, 2) is not None) == margin
    searched = _count_calls(monkeypatch, "_qr_lag", (unit_root,))
    assert _chosen_or_error(s, max_lag) == want
    assert len(searched) == 1


def test_the_margin_alone_declines_the_near_tie(monkeypatch):
    s = _near_tie()
    dep, cols, names, e = unit_root._adf_columns(s, 13)
    exact = unit_root._qr_lag(dep, cols, names, e)
    assert unit_root._gram_lag(dep, cols, e) is None
    monkeypatch.setattr(unit_root, "_SIC_SAFETY", 0.0)
    assert unit_root._gram_lag(dep, cols, e) == exact == 12


def test_the_decline_reasons_differ(monkeypatch):
    # The band, the Cholesky factorization and the bound on ||L_k^-1||
    # each decline one of the fixtures above.
    def gram(values, max_lag):
        dep, cols = unit_root._adf_columns(TimeSeries(trading_dates(len(values)), values,
                                                      name="G"), max_lag)[:2]
        a = np.array([*cols, dep])
        return a @ a.T

    tiny = gram(np.concatenate([[1.0], 1e-160 * _walk_120()[:-1]]), 1)
    assert np.diagonal(tiny).min() < 2.0**-512
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(gram(np.arange(17.0), 0))
    g = gram(1.0 + 1e-9 * _walk_120(), 3)
    d = np.sqrt(np.diagonal(g))
    low = np.linalg.cholesky(g / np.multiply.outer(d, d))
    assert np.square(np.linalg.inv(low[:-1, :-1])).sum() > 1e15


def _sweep_series(seed, days, noise, kind, which):
    """One of the series analyze tests: a level, its difference or an Engle-Granger residual."""
    days_ = gen_market_days(seed=seed, n_days=days, noise_scale=noise)
    raw = days_.series()
    u = [u_series(days_, variant) for variant in UVariant]
    if kind == "resid":
        big = (raw["U_BIG_VOL"], raw["U_BIG_DEP"])[which % 2]
        try:
            return ols.fit(u[which % 2], (big, raw["R"], raw["I"])).residual_series
        except SingularMatrixError:
            reject()
    level = [*u, *raw.values()][which]
    return diff(level) if kind == "diff" else level


def _sweep_design(seed, days, noise, kind, which, max_lag, exp):
    """The max_lag design of a sweep series scaled by 2^exp: (dep, columns, names, e)."""
    s = _sweep_series(seed, days, noise, kind, which)
    if exp:
        values = np.ldexp(s.values, exp)
        assume(np.isfinite(values).all())
        s = TimeSeries(s.dates, values, s.name)
    try:
        return unit_root._adf_columns(s, max_lag if days <= 100 else max_lag % 9)
    except InsufficientDataError:
        reject()


# Synth seeds at 30 to 2,550 days and noise 0 to 3; levels, differences and
# Engle-Granger residuals, scaled by 2^-600..2^600; max_lag 0..8, or up to
# 40 on series of 100 days or fewer.
_SWEEP = dict(seed=st.integers(0, 10**6),
              days=st.one_of(st.integers(30, 100), st.integers(101, 2550)),
              noise=st.one_of(st.sampled_from([0.0, 0.05]), st.floats(0.0, 3.0)),
              kind=st.sampled_from(["level", "diff", "resid"]),
              which=st.integers(0, 5),
              max_lag=st.integers(0, 40),
              exp=st.one_of(st.just(0), st.integers(-600, 600)))


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(**_SWEEP)
def test_a_certified_lag_is_the_exact_searchs(**case):
    """Where the Gram route picks a lag, the exact QR search, called alone, picks it too."""
    dep, cols, names, e = _sweep_design(**case)
    certified = unit_root._gram_lag(dep, cols, e)
    event("declined" if certified is None else "certified")
    if certified is not None:
        assert certified == unit_root._qr_lag(dep, cols, names, e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(**_SWEEP)
def test_the_gram_bound_covers_both_routes(**case):
    """Where the Gram route forms its bounds, the QR factors without an error, and
    each SSR of the two routes lies within delta of the exact one, so of each other."""
    dep, cols, names, _ = _sweep_design(**case)
    gram = ols._gram_ssrs(dep, cols, 2)
    assume(gram is not None)
    z = ols._factor(dep, cols, names)[1][2:]
    for lag, (ssr, delta) in enumerate(zip(*gram)):
        exact = float(np.add.reduce((z * z)[lag:]))
        assert abs(ssr - exact) <= 2.0 * delta / (1.0 - delta) * exact


@pytest.mark.parametrize("values, t_stat", [
    pytest.param(np.arange(17.0), math.nan, id="zero-coef-nan"),
    pytest.param(np.tile([1.0, 2.0], 3), -math.inf, id="minus-inf"),
    pytest.param(np.arange(58.0), math.inf, id="plus-inf"),
])
def test_exact_adf_fit_takes_the_zero_standard_error_branch(values, t_stat):
    # Residuals of exactly zero leave a zero S.E., so the t-statistic is
    # nan for a zero coefficient and an infinity of its sign otherwise.
    s = TimeSeries(trading_dates(len(values)), values, name="E")
    result = adf_test(s, max_lag=0)
    reg = adf_regression(s, 0)
    assert reg.ssr == 0.0 and reg.coef_rows[1].std_err == 0.0
    assert _bits(result.t_statistic) == _bits(reg.coef_rows[1].t_stat)
    if math.isnan(t_stat):
        assert math.isnan(result.t_statistic) and reg.coef_rows[1].coef == 0.0
    else:
        assert result.t_statistic == t_stat


def test_adf_test_forms_no_tail_diagnostic_or_full_fit(monkeypatch):
    walk = gen_random_walk(11, 255, label="LADD").with_name("W")
    stat = gen_ar1(12, 255, phi=0.3, label="STAT").with_name("A")
    want = [stationarity_ladder(walk), stationarity_ladder(stat), adf_test(walk, 3)]

    def forbidden(*args, **kwargs):
        raise AssertionError("the ADF test formed what it does not report")

    for module, name in ((special, "student_t_sf"), (special, "f_sf"),
                         (ols, "student_t_sf"), (ols, "f_sf"),
                         (ols, "OlsFit"), (ols, "fit_arrays")):
        monkeypatch.setattr(module, name, forbidden)
    assert not hasattr(unit_root, "fit_arrays")
    got = [stationarity_ladder(walk), stationarity_ladder(stat), adf_test(walk, 3)]
    assert got == want
    assert got[0].diff_result is not None and got[1].diff_result is None


def test_adf_on_a_series_whose_differences_overflow_names_it():
    # The differences of +-1e308 overflow, so the levels are scaled into
    # range first; there D(ALT(-1)) = -2 ALT(-1), a singular design, the
    # error the same series scaled by hand gives.
    s = TimeSeries(trading_dates(40), np.tile([1e308, -1e308], 20), name="ALT")
    unit = TimeSeries(s.dates, np.ldexp(s.values, -1023), name="ALT")
    for run in (adf_test, stationarity_ladder, select_lag):
        with pytest.raises(SingularMatrixError) as want:
            run(unit, 5)
        with pytest.raises(SingularMatrixError) as got:
            run(s, 5)
        assert str(got.value) == str(want.value)


def test_lag_search_whose_ssr_overflows_names_the_dependent():
    # Only the last level is large, so no regressor's squares overflow,
    # but the last difference's square does, and with it every SSR.  The
    # lag search scores the SSRs of the series scaled into range, and the
    # t-statistic at the chosen lag is lstsq's.
    values = np.random.default_rng(3).standard_normal(40)
    values[-1] = 1.5e154
    s = TimeSeries(trading_dates(40), values, name="S")
    for max_lag in (0, 5):
        lag = select_lag(s, max_lag)
        assert lag == select_lag(TimeSeries(s.dates, np.ldexp(values, -512), name="S"), max_lag)
        result = adf_test(s, max_lag)
        assert result.chosen_lag == lag
        dy = np.diff(values)
        x = np.column_stack([np.ones(39 - lag), values[lag:39]]
                            + [dy[lag - i : 39 - i] for i in range(1, lag + 1)])
        assert result.t_statistic == pytest.approx(lstsq_fit(dy[lag:], x)["t_stats"][1],
                                                   rel=1e-9)


def test_ladder_of_a_series_whose_differences_overflow_is_one_error():
    # The level test scales the series into range and does not reject; one
    # first difference of the series as given is past the float range, so
    # the differences are taken of the series as scaled, and the ladder is
    # that of the series scaled by 2^-1024 by hand.  Any numpy warning
    # fails the suite.
    values = np.cumsum(np.random.default_rng(1).standard_normal(80))
    values *= 1.7e308 / np.abs(values).max()
    values[40:42] = -1.7e308, 1.7e308
    s = TimeSeries(trading_dates(80), values, name="X")
    assert not adf_test(s).verdict.rejects_at_5
    by_hand = stationarity_ladder(TimeSeries(s.dates, np.ldexp(values, -1024), name="X"))
    assert by_hand.diff_result is not None
    assert stationarity_ladder(s) == by_hand


def test_ladder_of_a_series_outside_the_band_checks_no_calendar_again(monkeypatch):
    # The series scaled into the band keeps the checked calendar it was
    # built on: no calendar is walked again, and the ladder is the one of
    # the series scaled by hand.
    walk = gen_random_walk(11, 255, label="LADD")
    s = TimeSeries(walk.dates, np.ldexp(walk.values, 600), name="W")
    by_hand = stationarity_ladder(TimeSeries(s.dates, ols._scaled(s.values)[0], name="W"))
    checked = []
    check_dates = series.check_dates

    def counting(dates):
        if type(dates) is not series._Frozen:
            checked.append(dates)
        return check_dates(dates)

    monkeypatch.setattr(series, "check_dates", counting)
    ladder = stationarity_ladder(s)
    assert ladder.diff_result is not None
    assert ladder == by_hand
    assert checked == []


def test_adf_test_fixed_lag():
    # max_lag=0 leaves the lag search one candidate: the lag is fixed at 0.
    s = gen_random_walk(8, 120, label="FIX")
    result = adf_test(s, max_lag=0)
    assert result.chosen_lag == 0 and result.max_lag == 0
    assert result.effective_obs == 120 - 1
    assert result.t_statistic == adf_regression(s, 0).coef_rows[1].t_stat


def test_adf_spec_validation():
    s = gen_random_walk(8, 120, label="NEG")
    for run in (adf_test, stationarity_ladder, select_lag):
        with pytest.raises(InvalidArgumentError, match="max_lag must be >= 0, got -1"):
            run(s, -1)


def test_verdict_from_t_boundaries():
    cvs = {1: -3.44, 5: -2.87, 10: -2.57}
    assert verdict_from_t(-10.0, cvs) is Verdict.REJECT_AT_1
    assert verdict_from_t(-3.0, cvs) is Verdict.REJECT_AT_5
    assert verdict_from_t(-2.6, cvs) is Verdict.REJECT_AT_10
    assert verdict_from_t(0.0, cvs) is Verdict.NO_REJECT
    # Ties are not rejections: the comparison is strict.
    assert verdict_from_t(-3.44, cvs) is Verdict.REJECT_AT_5
    assert verdict_from_t(-2.87, cvs) is Verdict.REJECT_AT_10
    assert verdict_from_t(-2.57, cvs) is Verdict.NO_REJECT


def test_verdict_properties():
    assert Verdict.REJECT_AT_1.rejects_at_5
    assert Verdict.REJECT_AT_5.rejects_at_5
    assert not Verdict.REJECT_AT_10.rejects_at_5
    assert not Verdict.NO_REJECT.rejects_at_5
    assert Verdict.REJECT_AT_1.level == 1
    assert Verdict.NO_REJECT.level is None


def test_classify_ladder_wording():
    assert classify_ladder(Verdict.REJECT_AT_5, None) == (
        "Variable is stationary at the 5% level of significance"
    )
    assert classify_ladder(Verdict.NO_REJECT, Verdict.REJECT_AT_1) == (
        "Variable is stationary in first differences at the "
        "1% level of significance"
    )
    assert classify_ladder(Verdict.NO_REJECT, Verdict.NO_REJECT) == (
        "Variable is not stationary in levels or first differences"
    )
    # A 10%-only level rejection still reads as stationary in levels.
    assert classify_ladder(Verdict.REJECT_AT_10, None) == (
        "Variable is stationary at the 10% level of significance"
    )


def test_stationarity_ladder_random_walk_tests_differences():
    s = gen_random_walk(11, 255, label="LADD").with_name("W")
    ladder = stationarity_ladder(s)
    assert not ladder.level_result.verdict.rejects_at_5
    assert ladder.diff_result is not None
    assert ladder.diff_result.series_name == "D(W)"
    assert ladder.diff_result.verdict is Verdict.REJECT_AT_1
    assert "first differences" in ladder.classification
    # The difference test saw exactly the differenced series.
    direct = adf_test(diff(s))
    assert ladder.diff_result.t_statistic == direct.t_statistic


def test_stationarity_ladder_stationary_series_stops_at_level():
    s = gen_ar1(12, 255, phi=0.3, label="STAT").with_name("A")
    ladder = stationarity_ladder(s)
    assert ladder.level_result.verdict.rejects_at_5
    assert ladder.diff_result is None
    assert "stationary at the" in ladder.classification
