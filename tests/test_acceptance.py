"""Acceptance checks.

Each test covers one acceptance criterion and registers a PASS/FAIL line
in the terminal scoreboard (see conftest.pytest_terminal_summary).  The
numeric anchors are EViews 8 output values at the matching sample sizes,
used here as cross-implementation fixtures; all tolerances are absolute
unless noted.
"""

import dataclasses
import functools
import pathlib
import random

import numpy as np
import pytest

from conftest import acceptance_results
from generators import gen_ar1, gen_random_walk
from oracles import ols_oracle, random_instance
from specloss.cli import main
from specloss.cointegration import CointVerdict, dm_critical_values, engle_granger
from specloss.market import (
    UVariant,
    break_analysis,
    daily_loss_limit,
    mean_loss_per_stock,
    u_series,
)
from specloss.ols import (
    adj_r2_from_r2,
    aic_from_loglik,
    f_statistic_from_r2,
    fit_arrays,
    hannan_quinn_from_loglik,
    log_likelihood_from_ssr,
    schwarz_from_loglik,
    se_regression_from_ssr,
)
from specloss.special import student_t_sf
from specloss.synth import gen_market_days
from specloss.unit_root import (
    LEVELS,
    Verdict,
    adf_test,
    classify_ladder,
    mackinnon_critical_values,
    verdict_from_t,
)

GOLDEN = pathlib.Path(__file__).parent / "data" / "golden_analyze.txt"

# The anchor regressions have 255 daily observations and 4 coefficients.
TABLE_T = 255
TABLE_K = 4

# Six level-test blocks: (name, reported lag, reported 1/5/10% critical
# values at T_eff = 255 - 1 - lag) plus the reported t-statistic.
LEVEL_BLOCKS = [
    ("U_SMALL_VOL", 3, -3.370369, (-3.456302, -2.872857, -2.572875)),
    ("U_SMALL_DEP", 4, -2.152787, (-3.456408, -2.872904, -2.572900)),
    ("I", 4, -1.801486, (-3.456408, -2.872904, -2.572900)),
    ("R", 2, -3.349603, (-3.456197, -2.872811, -2.572851)),
    ("U_BIG_VOL", 4, -3.681785, (-3.456408, -2.872904, -2.572900)),
    ("U_BIG_DEP", 3, -0.331998, (-3.456302, -2.872857, -2.572875)),
]

# First-difference blocks for the variables whose level test fails to
# reject; the differenced sample has 254 observations.
DIFF_BLOCKS = {
    "U_SMALL_DEP": (3, -13.40007),
    "I": (3, -14.21234),
    "U_BIG_DEP": (2, -5.954171),
}

EXPECTED_CLASSIFICATION = {
    "U_SMALL_VOL": "Variable is stationary at the 5% level of significance",
    "U_SMALL_DEP": "Variable is stationary in first differences at the 1% "
                   "level of significance",
    "I": "Variable is stationary in first differences at the 1% "
         "level of significance",
    "R": "Variable is stationary at the 5% level of significance",
    "U_BIG_VOL": "Variable is stationary at the 1% level of significance",
    "U_BIG_DEP": "Variable is stationary in first differences at the 1% "
                 "level of significance",
}


def approx_rel(value, rtol=1e-8):
    return pytest.approx(value, rel=rtol, abs=1e-12)


def criterion(name):
    """Mark the scoreboard FAIL up front; flip to PASS if the body passes."""
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            acceptance_results[name] = False
            fn(*args, **kwargs)
            acceptance_results[name] = True
        return wrapper
    return deco


@criterion("01 diagnostics from SSR/T/k reproduce regression table 1")
def test_c01_regression1_table_identities():
    loglik = log_likelihood_from_ssr(20.80708, TABLE_T)
    assert abs(loglik - -42.31813) <= 1e-3
    assert abs(aic_from_loglik(loglik, TABLE_T, TABLE_K) - 0.363279) <= 1e-4
    assert abs(schwarz_from_loglik(loglik, TABLE_T, TABLE_K) - 0.418829) <= 1e-4
    assert abs(hannan_quinn_from_loglik(loglik, TABLE_T, TABLE_K) - 0.385624) <= 1e-4
    assert abs(f_statistic_from_r2(0.480387, TABLE_T, TABLE_K) - 77.3507) <= 1e-2
    assert abs(adj_r2_from_r2(0.480387, TABLE_T, TABLE_K) - 0.474177) <= 1e-5
    assert abs(se_regression_from_ssr(20.80708, TABLE_T, TABLE_K) - 0.287918) <= 1e-5


@criterion("02 diagnostics from SSR/T/k reproduce regression table 2")
def test_c02_regression2_table_identities():
    # The published SSR has only 3 significant figures, hence the wider
    # log-likelihood tolerance.
    loglik = log_likelihood_from_ssr(3.57e-5, TABLE_T)
    assert abs(loglik - 1650.31) <= 0.05
    assert abs(aic_from_loglik(loglik, TABLE_T, TABLE_K) - -12.9123) <= 2e-3
    assert abs(schwarz_from_loglik(loglik, TABLE_T, TABLE_K) - -12.8567) <= 2e-3
    assert abs(hannan_quinn_from_loglik(loglik, TABLE_T, TABLE_K) - -12.8899) <= 2e-3
    assert abs(f_statistic_from_r2(0.995887, TABLE_T, TABLE_K) - 20259.96) <= 5.0
    assert abs(adj_r2_from_r2(0.995887, TABLE_T, TABLE_K) - 0.995838) <= 1e-5


@criterion("03 two-sided t tail probabilities at 251 df match Prob. column")
def test_c03_t_tail_anchors():
    for t_stat, want in ((0.438757, 0.6612), (2.166459, 0.0312), (3.558902, 0.0004)):
        p = 2.0 * student_t_sf(abs(t_stat), 251)
        assert abs(p - want) <= 5e-4, (t_stat, p, want)


@criterion("04 MacKinnon critical values match all six ADF level blocks")
def test_c04_mackinnon_critical_values():
    for name, lag, _t, printed in LEVEL_BLOCKS:
        t_eff = TABLE_T - 1 - lag
        for level, want in zip(LEVELS, printed):
            got = mackinnon_critical_values(level, t_eff)
            assert abs(got - want) <= 1e-3, (name, level, got, want)


@criterion("05 Davidson-MacKinnon constants for four variables are exact")
def test_c05_dm_constants_exact():
    assert dm_critical_values(4, 1) == -4.64
    assert dm_critical_values(4, 5) == -4.10
    assert dm_critical_values(4, 10) == -3.81


@criterion("06 verdict replay reproduces every summary classification")
def test_c06_verdict_replay():
    for name, lag, t_stat, _printed in LEVEL_BLOCKS:
        cvs = {lvl: mackinnon_critical_values(lvl, TABLE_T - 1 - lag)
               for lvl in LEVELS}
        level_verdict = verdict_from_t(t_stat, cvs)
        diff_verdict = None
        if name in DIFF_BLOCKS:
            dlag, dt = DIFF_BLOCKS[name]
            dcvs = {lvl: mackinnon_critical_values(lvl, TABLE_T - 2 - dlag)
                    for lvl in LEVELS}
            diff_verdict = verdict_from_t(dt, dcvs)
        got = classify_ladder(level_verdict, diff_verdict)
        assert got == EXPECTED_CLASSIFICATION[name], (name, got)
    dm = {lvl: dm_critical_values(4, lvl) for lvl in LEVELS}
    for resid_t in (-13.49351, -6.243297):
        assert verdict_from_t(resid_t, dm) is Verdict.REJECT_AT_1


@criterion("07 OLS matches the brute-force oracle on 100 random instances")
def test_c07_ols_oracle_equivalence():
    rng = np.random.default_rng(7001)
    scalar_keys = (
        "ssr", "r_squared", "adj_r_squared", "se_regression",
        "log_likelihood", "aic", "schwarz", "hannan_quinn",
        "f_statistic", "f_prob", "durbin_watson", "mean_dep", "sd_dep",
    )
    for _ in range(100):
        y, cols = random_instance(rng)
        want = ols_oracle(y, cols)
        got = fit_arrays(np.array(y), np.array(cols).T)
        for j, row in enumerate(got.coef_rows):
            assert row.coef == approx_rel(want["coefs"][j])
            assert row.std_err == approx_rel(want["std_errs"][j])
            assert row.t_stat == approx_rel(want["t_stats"][j])
            assert row.p_value == approx_rel(want["p_values"][j])
        for key in scalar_keys:
            mine = getattr(got, key)
            theirs = want[key]
            if np.isnan(theirs):
                assert np.isnan(mine), key
            else:
                assert mine == approx_rel(theirs), key


@criterion("08 ADF size on random walks and power on AR(1) at T=1000")
def test_c08_adf_size_and_power():
    no_reject = sum(
        1 for seed in range(100)
        if not adf_test(gen_random_walk(seed, 1000)).verdict.rejects_at_5
    )
    reject_hard = sum(
        1 for seed in range(100)
        if adf_test(gen_ar1(seed, 1000, phi=0.5)).verdict is Verdict.REJECT_AT_1
    )
    assert no_reject >= 90, no_reject
    assert reject_hard >= 95, reject_hard


@criterion("09 synthetic pipeline: cointegration verdict, signs, break ratio")
def test_c09_end_to_end_pipeline():
    good = 0
    for seed in range(100):
        days = gen_market_days(seed=seed)
        u = u_series(days, UVariant.BY_VOLUME)
        raw = days.series()
        result = engle_granger(u, (raw["U_BIG_VOL"], raw["R"], raw["I"]))
        signs = {row.name: row.coef for row in result.stage1.coef_rows}
        if (result.verdict is CointVerdict.COINTEGRATED_AT_1
                and signs["R"] > 0 and signs["I"] > 0
                and signs["U_BIG_VOL"] < 0):
            good += 1
    assert good >= 95, good
    for seed in range(100):
        days = gen_market_days(seed=seed, break_factor=2.0)
        u = u_series(days, UVariant.BY_VOLUME)
        ratio = break_analysis(u, days.dates[127]).ratio
        assert 1.6 <= ratio <= 2.4, (seed, ratio)


@criterion("10 analyze output is byte-identical across runs and to golden")
def test_c10_determinism(capsys):
    assert main(["analyze", "--synth-seed", "42"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", "--synth-seed", "42"]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first == GOLDEN.read_text(encoding="utf-8")


@criterion("11 loss identity u*U = L and u_series homogeneity")
def test_c11_loss_identity_and_homogeneity():
    rng = random.Random(1101)
    for trial in range(10000):
        invest = 0.0 if trial % 97 == 0 else rng.uniform(0.0, 1e6)
        rate = 0.0 if trial % 101 == 0 else rng.uniform(0.0, 0.5)
        u_count = rng.uniform(1e-3, 1e9)
        limit = daily_loss_limit(invest, rate)
        u_val = mean_loss_per_stock(invest, rate, u_count)
        if limit == 0.0:
            assert u_val == 0.0
        else:
            assert abs(u_val * u_count - limit) <= 1e-9 * limit

    days = gen_market_days(seed=5, n_days=40)
    base = u_series(days, UVariant.BY_VOLUME)
    scaled_i = dataclasses.replace(days, invest_i=days.invest_i * 3.0)
    scaled_r = dataclasses.replace(days, rate_r=days.rate_r * 2.0)
    scaled_u = dataclasses.replace(days, u_big_vol=days.u_big_vol * 4.0)
    assert np.allclose(u_series(scaled_i, UVariant.BY_VOLUME).values,
                       3.0 * base.values, rtol=1e-12)
    assert np.allclose(u_series(scaled_r, UVariant.BY_VOLUME).values,
                       2.0 * base.values, rtol=1e-12)
    assert np.allclose(u_series(scaled_u, UVariant.BY_VOLUME).values,
                       base.values / 4.0, rtol=1e-12)
