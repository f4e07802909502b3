"""Tests for the Engle-Granger two-step cointegration machinery."""

import numpy as np
import pytest

from generators import gen_cointegrated, gen_random_walk
from specloss.cointegration import CointVerdict, dm_critical_values, engle_granger
from specloss.errors import InvalidArgumentError, UnsupportedConfigError
from specloss.ols import RegressionSpec, fit
from specloss.unit_root import adf_regression, adf_test

# Davidson-MacKinnon (1993) asymptotic critical values for the
# residual-based test with constant term, by number of variables.
DM_TABLE = {
    2: (-3.90, -3.34, -3.04),
    3: (-4.29, -3.74, -3.45),
    4: (-4.64, -4.10, -3.81),
    5: (-4.96, -4.42, -4.13),
    6: (-5.25, -4.71, -4.43),
}


def test_dm_critical_values_table():
    for n_vars, row in DM_TABLE.items():
        for level, want in zip((1, 5, 10), row):
            assert dm_critical_values(n_vars, level) == want


def test_dm_critical_values_errors():
    with pytest.raises(UnsupportedConfigError):
        dm_critical_values(1, 5)
    with pytest.raises(UnsupportedConfigError):
        dm_critical_values(7, 5)
    with pytest.raises(InvalidArgumentError):
        dm_critical_values(4, 3)


def test_coint_verdict_levels():
    assert CointVerdict.COINTEGRATED_AT_1.level == 1
    assert CointVerdict.COINTEGRATED_AT_5.level == 5
    assert CointVerdict.COINTEGRATED_AT_10.level == 10
    assert CointVerdict.NOT_COINTEGRATED.level is None


def test_engle_granger_detects_built_in_relation():
    hits = 0
    for seed in range(25):
        result = engle_granger(gen_cointegrated(seed))
        if result.verdict is CointVerdict.COINTEGRATED_AT_1:
            hits += 1
    assert hits >= 23


def test_engle_granger_rarely_flags_independent_walks():
    not_coint = 0
    for seed in range(25):
        y = gen_random_walk(seed, 255, label="NULL_A").with_name("Y")
        x = gen_random_walk(seed, 255, label="NULL_B").with_name("X")
        result = engle_granger(RegressionSpec(dependent=y, regressors=(x,)))
        if result.verdict is CointVerdict.NOT_COINTEGRATED:
            not_coint += 1
    assert not_coint >= 18


def test_engle_granger_stage_two_consumes_stage_one_residuals():
    spec = gen_cointegrated(5)
    result = engle_granger(spec)
    stage1 = fit(spec)
    assert result.stage1.residual_series == stage1.residual_series
    replay = adf_test(stage1.residual_series.with_name("RESID"))
    assert result.residual_test.t_statistic == replay.t_statistic
    assert result.residual_test.chosen_lag == replay.chosen_lag
    assert result.residual_test.series_name == "RESID"


def test_engle_granger_verdict_agrees_with_dm_ladder():
    for seed in range(10):
        spec = gen_cointegrated(seed)
        result = engle_granger(spec)
        t = result.residual_test.t_statistic
        n_vars = 1 + len(spec.regressors)
        expected = CointVerdict.NOT_COINTEGRATED
        for level, verdict in (
            (1, CointVerdict.COINTEGRATED_AT_1),
            (5, CointVerdict.COINTEGRATED_AT_5),
            (10, CointVerdict.COINTEGRATED_AT_10),
        ):
            if t < dm_critical_values(n_vars, level):
                expected = verdict
                break
        assert result.verdict is expected
        assert dict(result.critical_values_dm) == {
            level: dm_critical_values(n_vars, level) for level in (1, 5, 10)
        }


def test_engle_granger_resid_name_and_spec_passthrough():
    spec = gen_cointegrated(3)
    result = engle_granger(spec, resid_name="RESID2")
    assert result.residual_test.series_name == "RESID2"
    # The residual test ran on the stage-one residuals under that name.
    resid = fit(spec).residual_series.with_name("RESID2")
    assert result.residual_test == adf_test(resid)
    lag = result.residual_test.chosen_lag
    assert adf_regression(resid, lag).dep_name == "D(RESID2)"
    fixed = engle_granger(gen_cointegrated(3), max_lag=0)
    assert fixed.residual_test.chosen_lag == 0 and fixed.residual_test.max_lag == 0
    with pytest.raises(InvalidArgumentError, match="max_lag must be >= 0"):
        engle_granger(gen_cointegrated(3), max_lag=-1)


def test_engle_granger_variable_count_limits():
    y = gen_random_walk(1, 60, label="LIM_Y").with_name("Y")
    regs = tuple(
        gen_random_walk(1, 60, label=f"LIM_X{j}").with_name(f"X{j}")
        for j in range(6)
    )
    with pytest.raises(UnsupportedConfigError):
        engle_granger(RegressionSpec(dependent=y, regressors=regs))
    # Five regressors (six variables) is the largest supported system.
    result = engle_granger(RegressionSpec(dependent=y, regressors=regs[:5]))
    assert dict(result.critical_values_dm) == {
        1: -5.25, 5: -4.71, 10: -4.43
    }
