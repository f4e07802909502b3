"""Tests for the least-squares fit and its diagnostics."""

import dataclasses
import datetime
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from generators import Regression, adf_regression, gen_cointegrated
from oracles import durbin_watson, lstsq_fit, ols_oracle, random_instance
from specloss.errors import (
    InsufficientDataError,
    InvalidArgumentError,
    SingularMatrixError,
)
from specloss import ols
from specloss.market import UVariant, u_series
from specloss.ols import (
    _factor,
    _householder_qr,
    _residuals,
    _solve_triangular,
    fit,
    fit_arrays,
    aic_from_loglik,
    adj_r2_from_r2,
    f_statistic_from_r2,
    hannan_quinn_from_loglik,
    log_likelihood_from_ssr,
    schwarz_from_loglik,
    se_regression_from_ssr,
)
from specloss.series import TimeSeries, align, diff, trading_dates
from specloss.synth import gen_market_days
from specloss.unit_root import _adf_columns, select_lag


def close(a, b, rtol=1e-8, atol=1e-12):
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= atol + rtol * abs(b)


def coefs(result):
    """The coefficient column of a fit."""
    return np.array([row.coef for row in result.coef_rows])


def residuals_of(result, y, x):
    """The residuals a fit of y on the (n, k) matrix x formed, with their bits.

    A fit keeps none; they are y minus the fitted values, summed column by
    column in design order as the fit sums them.
    """
    return _residuals(np.asarray(y, dtype=np.float64),
                      np.asarray(x, dtype=np.float64).T, coefs(result))


def fit_to_dict(result):
    """Flatten an OlsFit into the oracle's key set."""
    return {
        "coefs": [row.coef for row in result.coef_rows],
        "std_errs": [row.std_err for row in result.coef_rows],
        "t_stats": [row.t_stat for row in result.coef_rows],
        "p_values": [row.p_value for row in result.coef_rows],
        "ssr": result.ssr,
        "r_squared": result.r_squared,
        "adj_r_squared": result.adj_r_squared,
        "se_regression": result.se_regression,
        "log_likelihood": result.log_likelihood,
        "aic": result.aic,
        "schwarz": result.schwarz,
        "hannan_quinn": result.hannan_quinn,
        "f_statistic": result.f_statistic,
        "f_prob": result.f_prob,
        "durbin_watson": result.durbin_watson,
        "mean_dep": result.mean_dep,
        "sd_dep": result.sd_dep,
    }


def assert_matches_oracle(result, oracle, rtol=1e-8):
    ours = fit_to_dict(result)
    for key, want in oracle.items():
        got = ours[key]
        if isinstance(want, list):
            for j, (g, w) in enumerate(zip(got, want)):
                assert close(g, w, rtol=rtol), f"{key}[{j}]: {g} != {w}"
        else:
            assert close(got, want, rtol=rtol), f"{key}: {got} != {want}"


def test_five_point_line_against_oracle_and_hand_values():
    y = [0.0, 1.0, 3.0, 5.0, 4.0]
    x = [0.0, 1.0, 2.0, 3.0, 4.0]
    cols = [[1.0] * 5, x]
    result = fit_arrays(np.array(y), np.column_stack(cols),
                        reg_names=["C", "X"])
    # Slope and intercept by the covariance formula: 12/10 and 2.6 - 2.4.
    assert close(result.coef_rows[1].coef, 1.2, rtol=1e-12)
    assert close(result.coef_rows[0].coef, 0.2, rtol=1e-10)
    assert_matches_oracle(result, ols_oracle(y, cols), rtol=1e-10)


def test_exact_fit_degenerates_cleanly():
    x = np.arange(10.0)
    y = 1.0 + 2.0 * x
    result = fit_arrays(y, np.column_stack([np.ones(10), x]))
    assert close(result.coef_rows[0].coef, 1.0, rtol=1e-10)
    assert close(result.coef_rows[1].coef, 2.0, rtol=1e-12)
    assert result.ssr < 1e-24
    assert result.r_squared > 1.0 - 1e-12
    # SSR rounds to exactly zero here, collapsing the likelihood.
    if result.ssr == 0.0:
        assert result.log_likelihood == math.inf
        assert result.aic == -math.inf
        assert result.f_statistic == math.inf
        assert result.f_prob == 0.0


def test_durbin_watson_exact_alternation():
    # Alternating residuals of length 4: steps are (-2, 2, -2), so
    # DW = 12/4 = 3 exactly.
    assert durbin_watson(np.array([1.0, -1.0, 1.0, -1.0])) == 3.0
    assert durbin_watson(np.array([2.0, 2.0, 2.0])) == 0.0
    assert math.isnan(durbin_watson(np.zeros(5)))
    with pytest.raises(InsufficientDataError):
        durbin_watson(np.array([1.0]))


def test_durbin_watson_stays_in_zero_four():
    rng = np.random.default_rng(31)
    for case in range(50):
        e = rng.standard_normal(int(rng.integers(2, 100)))
        dw = durbin_watson(e)
        assert 0.0 <= dw <= 4.0


def test_matches_oracle_on_seeded_instances():
    rng = np.random.default_rng(32)
    for case in range(60):
        y, cols = random_instance(rng)
        result = fit_arrays(np.array(y), np.column_stack(cols))
        assert_matches_oracle(result, ols_oracle(y, cols))


def test_diagnostics_consistent_with_helper_functions():
    rng = np.random.default_rng(33)
    y, cols = random_instance(rng)
    cols_matrix = np.column_stack(cols)
    result = fit_arrays(np.array(y), cols_matrix)
    n, k = len(y), len(cols)
    resid = residuals_of(result, y, cols_matrix)
    assert result.ssr == float(np.add.reduce(resid * resid))
    assert result.log_likelihood == log_likelihood_from_ssr(result.ssr, n)
    assert result.aic == aic_from_loglik(result.log_likelihood, n, k)
    assert result.schwarz == schwarz_from_loglik(result.log_likelihood, n, k)
    assert result.hannan_quinn == hannan_quinn_from_loglik(result.log_likelihood, n, k)
    assert result.adj_r_squared == adj_r2_from_r2(result.r_squared, n, k)
    assert result.f_statistic == f_statistic_from_r2(result.r_squared, n, k)
    assert result.se_regression == se_regression_from_ssr(result.ssr, n, k)
    assert result.durbin_watson == durbin_watson(residuals_of(result, y, cols_matrix))
    assert (result.nobs, result.n_params) == (n, k)


def test_coefficient_p_values_match_scipy():
    rng = np.random.default_rng(34)
    y, cols = random_instance(rng, max_n=18, max_k=3)
    result = fit_arrays(np.array(y), np.column_stack(cols))
    for row in result.coef_rows:
        ref = 2.0 * float(stats.t.sf(abs(row.t_stat), result.nobs - result.n_params))
        assert close(row.p_value, ref, rtol=1e-10)


def test_residual_orthogonality_and_refit_invariance():
    rng = np.random.default_rng(35)
    for case in range(20):
        y, cols = random_instance(rng)
        x = np.column_stack(cols)
        result = fit_arrays(np.array(y), x)
        resid = residuals_of(result, y, x)
        scale = float(np.max(np.abs(np.array(y)))) + 1.0
        for j in range(x.shape[1]):
            dot = float(np.dot(x[:, j], resid))
            assert abs(dot) <= 1e-8 * scale * float(np.sum(np.abs(x[:, j])))
        # Refitting the fitted values reproduces the coefficients exactly
        # up to roundoff and leaves no residual.
        refit = fit_arrays(np.array(y) - resid, x)
        for a, b in zip(coefs(refit), coefs(result)):
            assert close(a, b, rtol=1e-8, atol=1e-10)
        assert refit.ssr <= 1e-16 * (1.0 + result.ssr)


def test_column_scaling_invariance():
    rng = np.random.default_rng(36)
    y, cols = random_instance(rng, max_n=20, max_k=4)
    while len(cols) < 2:
        y, cols = random_instance(rng, max_n=20, max_k=4)
    x = np.column_stack(cols)
    base = fit_arrays(np.array(y), x)
    scaled = x.copy()
    s = 1e6
    scaled[:, 1] *= s
    result = fit_arrays(np.array(y), scaled)
    assert close(result.coef_rows[1].coef, base.coef_rows[1].coef / s, rtol=1e-9)
    assert close(result.coef_rows[1].t_stat, base.coef_rows[1].t_stat, rtol=1e-9)
    for key in ("ssr", "r_squared", "f_statistic", "durbin_watson", "aic"):
        assert close(getattr(result, key), getattr(base, key), rtol=1e-9)


def test_dependent_scaling_invariance():
    rng = np.random.default_rng(37)
    y, cols = random_instance(rng)
    x = np.column_stack(cols)
    base = fit_arrays(np.array(y), x)
    s = 250.0
    result = fit_arrays(s * np.array(y), x)
    for j in range(len(cols)):
        assert close(result.coef_rows[j].coef, s * base.coef_rows[j].coef, rtol=1e-9)
        assert close(result.coef_rows[j].t_stat, base.coef_rows[j].t_stat, rtol=1e-9)
    assert close(result.r_squared, base.r_squared, rtol=1e-10)
    assert close(result.durbin_watson, base.durbin_watson, rtol=1e-10)


def test_wildly_scaled_columns_agree_with_lstsq():
    # Column norms span 13 orders of magnitude, cond(x) ~ 1e13, so two
    # backward-stable solvers only agree to about cond*eps ~ 2e-3 relative
    # per coefficient (observed ~2e-5).  A normal-equations solver squares
    # the condition number and loses everything, so rtol 1e-3 still
    # discriminates.  The achieved SSR must also match the LAPACK optimum.
    rng = np.random.default_rng(38)
    n = 80
    x = np.column_stack([
        np.ones(n),
        1e-6 * rng.standard_normal(n),
        rng.standard_normal(n),
        1e7 * rng.standard_normal(n),
    ])
    beta_true = np.array([2.0, 3e5, -1.5, 4e-7])
    y = x @ beta_true + 0.1 * rng.standard_normal(n)
    result = fit_arrays(y, x)
    ref, *_ = np.linalg.lstsq(x, y, rcond=None)
    y_norm = float(np.linalg.norm(y))
    col_norms = np.linalg.norm(x, axis=0)
    for j, (row, want) in enumerate(zip(result.coef_rows, ref)):
        assert close(row.coef, want, rtol=1e-3)
        assert abs(row.coef - want) * col_norms[j] <= 1e-4 * y_norm
    ssr_ref = float(np.sum((y - x @ ref) ** 2))
    assert close(result.ssr, ssr_ref, rtol=1e-5)


def test_singular_design_raises_with_column():
    n = 12
    rng = np.random.default_rng(39)
    base = rng.standard_normal(n)
    x = np.column_stack([np.ones(n), base, 2.0 * base])
    with pytest.raises(SingularMatrixError) as exc_info:
        fit_arrays(rng.standard_normal(n), x, reg_names=["C", "A", "B"])
    assert exc_info.value.column in (1, 2)
    with pytest.raises(SingularMatrixError, match="identically zero"):
        fit_arrays(rng.standard_normal(n),
                   np.column_stack([np.ones(n), np.zeros(n)]))


def test_input_validation():
    y = np.arange(5.0)
    with pytest.raises(InvalidArgumentError, match="2-D"):
        fit_arrays(y, np.ones(5))
    with pytest.raises(InvalidArgumentError, match="shape"):
        fit_arrays(np.arange(4.0), np.ones((5, 1)))
    with pytest.raises(InsufficientDataError):
        fit_arrays(np.arange(3.0), np.ones((3, 3)))
    with pytest.raises(InvalidArgumentError, match="finite"):
        fit_arrays(np.array([1.0, math.nan, 2.0, 3.0]), np.ones((4, 1)))
    with pytest.raises(InvalidArgumentError, match="names"):
        fit_arrays(y, np.ones((5, 1)), reg_names=["A", "B"])
    with pytest.raises(InvalidArgumentError, match="design matrix has no columns"):
        fit_arrays(y, np.empty((5, 0)))


def test_fit_spec_aligns_and_labels():
    dates = trading_dates(40)
    rng = np.random.default_rng(40)
    xv = rng.standard_normal(40)
    yv = 2.0 + 3.0 * xv + 0.1 * rng.standard_normal(40)
    dep = TimeSeries(dates, yv, name="DEP")
    # Regressor misses the first five dates.
    reg = TimeSeries(dates[5:], xv[5:], name="REG")
    result = fit(dep, (reg,))
    assert result.dep_name == "DEP"
    assert [row.name for row in result.coef_rows] == ["C", "REG"]
    assert result.nobs == 35
    assert result.residual_series is not None
    assert result.residual_series.name == "RESID"
    assert np.array_equal(result.residual_series.dates, dates[5:])
    resid = result.residual_series.values
    # The series holds the residuals the fit's SSR and Durbin-Watson came from.
    assert result.ssr == float(np.add.reduce(resid * resid))
    assert result.durbin_watson == durbin_watson(resid)
    assert np.allclose(resid, yv[5:] - coefs(result)[0] - coefs(result)[1] * xv[5:],
                       rtol=0, atol=1e-12)
    assert close(result.coef_rows[1].coef, 3.0, rtol=0.05)


def test_fits_keep_no_residuals_and_the_residual_series_is_frozen():
    dates = trading_dates(30)
    rng = np.random.default_rng(44)
    dep = TimeSeries(dates, rng.standard_normal(30), name="DEP")
    reg = TimeSeries(dates, rng.standard_normal(30), name="REG")
    result = fit(dep, (reg,))
    for ols_fit in (result, fit_arrays(dep.values, np.ones((30, 1)))):
        assert not any(isinstance(getattr(ols_fit, f.name), np.ndarray)
                       for f in dataclasses.fields(ols_fit))
    values = result.residual_series.values
    assert not values.flags.writeable
    with pytest.raises(ValueError):
        values[0] = 0.0
    assert result.residual_series.dates is dep.dates


def test_fit_without_constant():
    rng = np.random.default_rng(41)
    xv = rng.standard_normal(30)
    result = fit_arrays(4.0 * xv, xv[:, None], reg_names=["X"])
    assert [row.name for row in result.coef_rows] == ["X"]
    assert close(result.coef_rows[0].coef, 4.0, rtol=1e-10)
    # With a single parameter there is no joint F test.
    assert math.isnan(result.f_statistic)


def test_fit_worse_than_the_mean_has_no_f_test():
    # Without a constant the fit can miss the mean by more than the centred
    # total, so R^2 < 0 and the F test against the mean-only model is void.
    x = np.column_stack([np.arange(1.0, 7.0), np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])])
    y = np.array([10.0, 9.0, 11.0, 10.0, 9.0, 10.0]) - 0.5 * np.arange(1.0, 7.0)
    result = fit_arrays(y, x)
    assert result.r_squared < 0.0
    assert math.isnan(result.f_statistic) and math.isnan(result.f_prob)


def test_regression_spec_requires_regressors():
    dates = trading_dates(5)
    dep = TimeSeries(dates, np.arange(5.0), name="Y")
    with pytest.raises(InvalidArgumentError, match="^at least one regressor series is required$"):
        fit(dep, ())


# -- Bit-identity with the column-at-a-time factorization ---------------------
#
# The reference below factors one column at a time: one np.sum per column
# per reflection and one per entry of R^-1.  The package must give the same
# bits for R, Q'y, the norms, the coefficients and diag (X'X)^-1, which holds
# only while numpy reduces each row of a C-contiguous array in the order of
# a 1-D np.sum.


def _reference_qr(x, y, names):
    norms = np.sqrt(np.sum(x * x, axis=0))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        j = int(zero[0])
        raise SingularMatrixError(f"regressor '{names[j]}' is identically zero", column=j)
    r = x / norms
    n, k = x.shape
    z = y.astype(np.float64).copy()
    for j in range(k):
        col = r[j:, j]
        norm = math.sqrt(float(np.sum(col * col)))
        if norm == 0.0:
            _reference_rank_test(np.abs(np.diag(r)[:j]))
            raise SingularMatrixError(
                f"design matrix column {j} is numerically zero after reduction",
                column=j,
            )
        alpha = -math.copysign(norm, col[0]) if col[0] != 0.0 else -norm
        v = col.copy()
        v[0] -= alpha
        scale = 2.0 / float(np.sum(v * v))
        for m in range(j, k):
            w = scale * float(np.sum(v * r[j:, m]))
            r[j:, m] -= w * v
        w = scale * float(np.sum(v * z[j:]))
        z[j:] -= w * v
        r[j, j] = alpha
        r[j + 1 :, j] = 0.0
    _reference_rank_test(np.abs(np.diag(r)[:k]))
    return r[:k], z, norms


def _reference_rank_test(diag):
    """Name the first |R_jj| below 1e-10 of the largest, if any."""
    for bad, d in enumerate(diag.tolist()):
        if d < 1e-10 * float(np.max(diag)):
            raise SingularMatrixError(
                f"design matrix is rank deficient at column {bad} "
                f"(|R[{bad},{bad}]| = {d:.3e})",
                column=bad,
            )


def _reference_solve(r, z):
    k = r.shape[0]
    beta = np.zeros(k)
    for j in range(k - 1, -1, -1):
        beta[j] = (z[j] - float(np.sum(r[j, j + 1 :] * beta[j + 1 :]))) / r[j, j]
    rinv = np.zeros((k, k))
    for j in range(k):
        rinv[j, j] = 1.0 / r[j, j]
        for i in range(j - 1, -1, -1):
            rinv[i, j] = -float(np.sum(r[i, i + 1 : j + 1] * rinv[i + 1 : j + 1, j])) / r[i, i]
    return beta, np.array([float(np.sum(row * row)) for row in rinv])


def _qr(x, y, names):
    """(R, Q'y, norms) of the (n, k) design ``x`` through the library's work array."""
    a = np.array([*x.T, y])
    r, norms, _ = _householder_qr(a, names)
    return r, a[-1], norms


def _adf_design(s, lag):
    """The ADF regression at ``lag`` as (dep, x, names), x the C-ordered design."""
    dep, cols, names, _ = _adf_columns(s, lag)
    return dep, np.column_stack(cols), names


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


def _assert_same_bits_as_reference(x, y):
    names = [f"X{j}" for j in range(x.shape[1])]
    r, z, norms = _qr(x, y, names)
    beta, var = _solve_triangular(r, z)
    r_ref, z_ref, norms_ref = _reference_qr(x, y, names)
    beta_ref, var_ref = _reference_solve(r_ref, z_ref)
    pairs = ((r, r_ref), (z, z_ref), (norms, norms_ref), (beta, beta_ref), (var, var_ref))
    for got, want in pairs:
        assert np.array_equal(_bits(got), _bits(want))


def test_factorization_bits_match_column_loop_on_wild_scales():
    rng = np.random.default_rng(42)
    for trial in range(400):
        k = 1 + trial % 12
        n = int(rng.integers(k + 2, 300)) if trial % 40 else 25_500
        x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6.0, 8.0, size=k)
        if trial % 3 == 0:
            x[:, 0] = 1.0
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 6.0)
        _assert_same_bits_as_reference(x, y)


def test_factorization_bits_hold_in_row_groups_of_any_size(monkeypatch):
    # Reflection j updates the k - j rows below its pivot, y included,
    # ``group`` rows at a time: one row per group, groups that end just
    # before, at and just after the last row, and every row in one group.
    # The norms square as many design rows as that scratch holds, n *
    # group // k; at one row per group, n = k*m, k*m + 1 and k*m + m - 1
    # end the last block at n, one row past a block and one row short of
    # one.  A single wild column is summed pairwise, not folded row by row.
    rng = np.random.default_rng(44)
    cases = [(1, 301), (1, 4001)] + [(k, n) for k in (2, 5, 8, 12)
                                     for n in (k * k, k * k + 1, k * k + k - 1)]
    for k, n in cases:
        x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6.0, 8.0, size=k)
        if k > 2:
            x[:, 0] = 1.0
        y = rng.standard_normal(n) * 10.0 ** rng.uniform(-3.0, 6.0)
        for group in sorted({1, 2, max(1, k - 1), k, k + 1, 2 * k}):
            monkeypatch.setattr(ols, "_REFLECT_BYTES", 8 * n * group)
            _assert_same_bits_as_reference(x, y)
        monkeypatch.setattr(ols, "_REFLECT_BYTES", 0)  # still one row per group
        _assert_same_bits_as_reference(x, y)


def test_factorization_at_25494_rows_allocates_one_row_group():
    # The lag-6 refit of the 25,500-day analyze: k = 8 columns of 25,494
    # rows, 8 * n bytes a row, reflected and squared a row at a time.
    rng = np.random.default_rng(45)
    columns = rng.standard_normal((9, 25_494))
    names = [f"X{j}" for j in range(8)]
    _householder_qr(columns.copy(), names)  # warm-up
    tracemalloc.start()
    try:
        a = np.array(columns)
        _householder_qr(a, names)
        extra = tracemalloc.get_traced_memory()[1] - a.nbytes
    finally:
        tracemalloc.stop()
    assert extra <= 0.3e6, f"{extra / 1e6:.2f} MB beside the work array"


def test_norm_fold_bits_at_the_analyze_shapes():
    # The norms of the 25,500-day analyze's designs fold each column in row
    # order.  At k = 2 a norm block holds 12,749 rows, more than numpy's
    # 8,192-element iterator buffer, so a fold that restarts per buffer
    # fails here.  A single column stays numpy's pairwise sum.
    rng = np.random.default_rng(47)
    shapes = [(n, k) for k in (2, 3, 8) for n in range(25_494, 25_500)] + [(9_000, 1)]
    for n, k in shapes:
        x = rng.standard_normal((n, k)) * 10.0 ** rng.uniform(-6.0, 8.0, size=k)
        if k > 1:
            x[:, 0] = 1.0
        _assert_same_bits_as_reference(x, rng.standard_normal(n))


def _ladder_series(days):
    levels = [u_series(days, UVariant.BY_VOLUME), u_series(days, UVariant.BY_DEPOSIT),
              *days.series().values()]
    return levels + [diff(s) for s in levels]


def _assert_same_fit_bits(got, want):
    """Every field of two OlsFits holds the same bits (NaN matches NaN)."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if f.name == "coef_rows":
            assert [row.name for row in a] == [row.name for row in b]
            a, b = ([dataclasses.astuple(row)[1:] for row in rows] for rows in (a, b))
        if isinstance(b, (str, int)) or b is None:
            assert a == b, f.name
        else:
            assert np.array_equal(_bits(a), _bits(b)), f.name


def test_factorization_bits_match_column_loop_on_adf_designs():
    for seed in (0, 7, 23):
        for s in _ladder_series(gen_market_days(seed=seed)):
            for lag in range(11):  # 2..12 columns
                dep, x, names = _adf_design(s, lag)
                _assert_same_bits_as_reference(x, dep)
                want = fit_arrays(dep, x, dep_name=f"D({s.name or 'Y'})", reg_names=names)
                _assert_same_fit_bits(adf_regression(s, lag), want)


def _trimmed(spec):
    """The spec with calendars that differ: the dependent loses its first
    three dates, one regressor its last four and another its odd rows."""
    dep, (w1, w2, x3) = spec.dependent, spec.regressors
    return Regression(
        TimeSeries(dep.dates[3:], dep.values[3:], name=dep.name),
        (TimeSeries(w1.dates[:-4], w1.values[:-4], name=w1.name),
         TimeSeries(w2.dates[::2], w2.values[::2], name=w2.name), x3))


def test_fit_has_the_bits_of_fit_arrays_on_the_stacked_aligned_design():
    # fit hands the fit core its aligned columns unstacked, with its dates;
    # fit_arrays keeps no residuals, so the core given the stacked design's
    # columns and the dates gives the residual series to compare.
    for spec in [gen_cointegrated(seed) for seed in (0, 7, 23, 101)] + [
            _trimmed(gen_cointegrated(5))]:
        got = fit(*spec)
        dep_a, *regs_a = align(spec.dependent, *spec.regressors)
        x = np.column_stack([np.ones(len(dep_a))] + [s.values for s in regs_a])
        names = ["C"] + [s.name for s in regs_a]
        want = fit_arrays(dep_a.values, x, dep_name=spec.dependent.name, reg_names=names)
        assert want.residual_series is None
        _assert_same_fit_bits(dataclasses.replace(got, residual_series=None), want)
        want = ols._fit(dep_a.values, x.T, spec.dependent.name, names, dep_a.dates)
        assert np.array_equal(want.residual_series.dates, got.residual_series.dates)
        assert np.array_equal(_bits(want.residual_series.values),
                              _bits(got.residual_series.values))
    assert got.nobs == 124  # the trimmed spec keeps the even dates from the 5th to the 251st


def _assert_fit_matches_lstsq(got, y, x):
    want = lstsq_fit(y, x)
    for key, field in (("coefs", "coef"), ("std_errs", "std_err"), ("t_stats", "t_stat")):
        assert [getattr(row, field) for row in got.coef_rows] == pytest.approx(
            want[key], rel=1e-9), key


def test_a_regressor_whose_squares_overflow_is_named():
    # 2e154 squared overflows: the column is fitted scaled by a power of
    # two, and its coefficient and standard error are scaled back.  Any
    # numpy warning fails the suite.
    x = np.column_stack([np.ones(40), np.arange(40.0) * 2e153, np.arange(40.0) % 3])
    y = np.arange(40.0) % 7
    got = fit_arrays(y, x, reg_names=["C", "B", "S"])
    assert [row.name for row in got.coef_rows] == ["C", "B", "S"]
    _assert_fit_matches_lstsq(got, y, x)
    dates = trading_dates(40)
    got = fit(TimeSeries(dates, y, name="Y"), (TimeSeries(dates, x[:, 1], name="BIG"),))
    _assert_fit_matches_lstsq(got, y, x[:, :2])


@pytest.mark.parametrize("column", [
    # The squares sum to about 2e-317, a subnormal that has lost its digits.
    pytest.param((np.arange(40.0) ** 2 % 13 + 1) * 1e-160, id="subnormal"),
    # Every square rounds to 0, though no entry is zero.
    pytest.param((np.arange(40.0) % 5 + 1) * 2.0**-600, id="zero"),
])
def test_a_regressor_whose_squares_underflow_is_named(column):
    # Such a column is fitted scaled by a power of two, as one whose
    # squares overflow is.
    x = np.column_stack([np.ones(40), np.arange(40.0) % 3, column])
    y = np.arange(40.0) % 7
    _assert_fit_matches_lstsq(fit_arrays(y, x, reg_names=["C", "S", "T"]), y, x)
    dates = trading_dates(40)
    got = fit(TimeSeries(dates, y, name="Y"), (TimeSeries(dates, column, name="TINY"),))
    _assert_fit_matches_lstsq(got, y, x[:, [0, 2]])
    x[:, 2] = 0.0  # a column that is zero stays a singular design
    with pytest.raises(SingularMatrixError,
                       match="^regressor 'T' is identically zero$") as exc_info:
        fit_arrays(y, x, reg_names=["C", "S", "T"])
    assert exc_info.value.column == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["x", "y"])
def test_fit_arrays_rejects_inputs_that_are_not_finite(bad, where):
    rng = np.random.default_rng(46)
    x = np.column_stack([np.ones(20), rng.standard_normal(20)])
    y = rng.standard_normal(20)
    if where == "x":
        x[7, 1] = bad
    else:
        y[7] = bad
    with pytest.raises(InvalidArgumentError, match="^regression inputs must be finite$"):
        fit_arrays(y, x)


_C = math.sqrt(0.5 * np.finfo(np.float64).max / 40)


@pytest.mark.parametrize("y, x, want", [
    # The residuals are about 1e200: no float holds their SSR.
    pytest.param((np.arange(40.0) % 7 + 1) * 1e200, np.ones((40, 1)), None, id="ssr"),
    # The fit is exact to 1e144, and the deviations from the mean square
    # past 1e308, but the TSS is only formed scaled.
    pytest.param(np.arange(40.0) * 1e160, np.column_stack([np.ones(40), np.arange(40.0)]),
                 {"r_squared": 1.0, "mean_dep": 19.5e160,
                  "sd_dep": math.sqrt(40 * 41 / 12) * 1e160}, id="tss"),
    # Residuals of +-_C: the SSR is half the float range, the steps' squares twice it.
    pytest.param(np.tile([_C, -_C], 20), np.ones((40, 1)),
                 {"ssr": 40 * _C * _C, "durbin_watson": 39 * 4 / 40, "mean_dep": 0.0},
                 id="durbin-watson"),
])
def test_a_dependent_whose_sums_of_squares_overflow_is_named(y, x, want):
    # A dependent outside the band is fitted scaled by a power of two; only
    # the printed fields in its unit are scaled back, and one that leaves
    # the float range there is named.
    if want is None:
        with pytest.raises(InvalidArgumentError, match="^dependent 'DEP': its sum of squared "
                                                       "residuals is outside the float range$"):
            fit_arrays(y, x, dep_name="DEP")
        return
    got = fit_arrays(y, x, dep_name="DEP")
    for field, value in want.items():
        assert getattr(got, field) == pytest.approx(value, rel=1e-15), field
    assert [row.coef for row in got.coef_rows] == pytest.approx(
        lstsq_fit(y, x)["coefs"], rel=1e-12, abs=1e-12 * float(np.abs(y).max()))


def test_singular_designs_name_the_reference_column():
    rng = np.random.default_rng(43)
    n = 30
    base = rng.standard_normal((n, 4))
    zero_col = base.copy()
    zero_col[:, 2] = 0.0
    deficient = base.copy()
    deficient[:, 3] = 2.0 * base[:, 1] - base[:, 0]
    y = rng.standard_normal(n)
    names = ["A", "B", "C", "D"]
    for x in (zero_col, deficient):
        with pytest.raises(SingularMatrixError) as ref:
            _reference_qr(x, y, names)
        with pytest.raises(SingularMatrixError) as got:
            _qr(x, y, names)
        assert got.value.column == ref.value.column is not None
        assert str(got.value) == str(ref.value)


def _assert_lag_search_bits(s, max_lag):
    """select_lag's Q'y and lag equal those of the C-ordered design's QR."""
    dep, x, names = _adf_design(s, max_lag)
    _, z_ref, _ = _qr(x, dep, names)
    assert np.array_equal(_bits(_factor(*_adf_columns(s, max_lag)[:3])[1]), _bits(z_ref))
    nobs = dep.shape[0]
    scores = [schwarz_from_loglik(log_likelihood_from_ssr(
                  float(np.sum(z_ref[k:] * z_ref[k:])), nobs), nobs, k)
              for k in range(2, max_lag + 3)]
    assert select_lag(s, max_lag) == scores.index(min(scores))


def test_lag_search_work_array_keeps_the_design_bits():
    for seed in (0, 7, 23):
        for s in _ladder_series(gen_market_days(seed=seed)):
            for max_lag in range(11):
                _assert_lag_search_bits(s, max_lag)
    u = u_series(gen_market_days(seed=0, n_days=25_500), UVariant.BY_VOLUME)
    for s in (u, diff(u)):
        for max_lag in (0, 2, 5, 7):
            _assert_lag_search_bits(s, max_lag)


def test_constant_series_fails_the_lag_search_like_the_reference():
    s = TimeSeries(trading_dates(60), np.full(60, 3.5), name="R")
    for max_lag in range(6):
        dep, x, names = _adf_design(s, max_lag)
        with pytest.raises(SingularMatrixError) as ref:
            _reference_qr(x, dep, names)
        with pytest.raises(SingularMatrixError) as got:
            select_lag(s, max_lag)
        assert (str(got.value), got.value.column) == (str(ref.value), ref.value.column)
        if max_lag:
            assert str(got.value) == "regressor 'D(R(-1))' is identically zero"
            assert got.value.column == 2


# -- Properties of the fit ----------------------------------------------------
#
# Tolerances follow from float64 and the conditioning of the design, fixed
# before any example is drawn.  A backward-stable least-squares solver
# perturbs the coefficients, in units of unit-norm columns, by about
# eps * kappa^2 * ||y|| and the residuals by about eps * kappa * ||y||, with
# kappa the 2-norm condition number of the equilibrated design.  Both sides
# of every comparison are computed, so the bound allows a factor 16 * n * k
# on top.

_EPS = float(np.finfo(np.float64).eps)
_PROPERTY_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True,
                              database=None)


@st.composite
def _designs(draw):
    """(x, y, tol): a random design with columns 1e-4..1e6 in scale."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(k + 3, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scales = 10.0 ** np.array(draw(st.lists(st.floats(-4.0, 6.0), min_size=k, max_size=k)))
    x = rng.standard_normal((n, k)) * scales
    if draw(st.booleans()):
        x[:, 0] = scales[0]
    y = rng.standard_normal(n) * 10.0 ** draw(st.floats(-3.0, 3.0))
    kappa = float(np.linalg.cond(x / np.linalg.norm(x, axis=0)))
    assume(kappa < 1e3)
    return x, y, 16.0 * n * k * _EPS * kappa * kappa


@_PROPERTY_SETTINGS
@given(design=_designs(), a=st.floats(1e-2, 1e2), negate=st.booleans(),
       c_units=st.lists(st.floats(-10.0, 10.0), min_size=6, max_size=6))
def test_fit_is_affine_equivariant(design, a, negate, c_units):
    """y -> a*y + X c maps beta -> a*beta + c and the residuals -> a*e."""
    x, y, tol = design
    a = -a if negate else a
    norms = np.linalg.norm(x, axis=0)
    y_norm = float(np.linalg.norm(y))
    c = np.array(c_units[: x.shape[1]]) * y_norm / norms
    y2 = a * y + x @ c
    base = fit_arrays(y, x)
    moved = fit_arrays(y2, x)
    base_resid, moved_resid = residuals_of(base, y, x), residuals_of(moved, y2, x)
    scale = abs(a) * y_norm + float(np.linalg.norm(y2))
    beta_gap = norms * (coefs(moved) - (a * coefs(base) + c))
    assert float(np.linalg.norm(beta_gap)) <= tol * scale
    assert float(np.linalg.norm(moved_resid - a * base_resid)) <= tol * scale
    assert abs(math.sqrt(moved.ssr) - abs(a) * math.sqrt(base.ssr)) <= tol * scale


@_PROPERTY_SETTINGS
@given(design=_designs(), column=st.integers(0, 5), log_s=st.floats(-6.0, 6.0))
def test_t_statistics_ignore_column_scale(design, column, log_s):
    x, y, tol = design
    j = column % x.shape[1]
    s = 10.0 ** log_s
    scaled = x.copy()
    scaled[:, j] *= s
    base = fit_arrays(y, x)
    result = fit_arrays(y, scaled)
    t_base = np.array([row.t_stat for row in base.coef_rows])
    t_scaled = np.array([row.t_stat for row in result.coef_rows])
    assert float(np.max(np.abs(t_scaled - t_base))) <= tol * (1.0 + float(np.max(np.abs(t_base))))
    assert abs(coefs(result)[j] * s - coefs(base)[j]) <= tol * (
        float(np.linalg.norm(y)) / float(np.linalg.norm(x[:, j])))
