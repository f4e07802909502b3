"""Ordinary least squares with the diagnostic set printed by EViews.

The solver is Householder QR on a column-equilibrated design matrix,
held transposed with y as one more row.  Equilibration (scaling every
column to unit Euclidean norm) keeps the rank test meaningful when
regressors differ by many orders of magnitude, which happens as soon as
volumes in pieces meet rates in fractions.  Reductions use ``np.sum`` on
elementwise products, not BLAS, so results are bit-stable on a platform:
numpy sums each contiguous row pairwise like a 1-D ``np.sum``, which
``tests/test_ols.py`` checks against column loops.  Standard errors need
only the diagonal of (X'X)^-1, so only that is formed.

The information criteria follow the finite-sample conventions used by
EViews: AIC = (-2*logL + 2*k)/T and so on, with the Gaussian
log-likelihood evaluated at the ML variance estimate SSR/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, SingularMatrixError
from .series import TimeSeries, align
from .special import f_sf, student_t_sf

__all__ = [
    "RegressionSpec",
    "CoefRow",
    "OlsFit",
    "fit",
    "fit_arrays",
    "log_likelihood_from_ssr",
    "aic_from_loglik",
    "schwarz_from_loglik",
    "hannan_quinn_from_loglik",
    "adj_r2_from_r2",
    "f_statistic_from_r2",
    "se_regression_from_ssr",
    "durbin_watson",
]

# Relative pivot threshold for declaring the (equilibrated) design singular.
_RANK_RTOL = 1e-10


@dataclass(frozen=True)
class RegressionSpec:
    """A least-squares problem stated in terms of named series.

    Series are aligned on their common dates before fitting; the constant
    term is labeled C and listed first as in standard package output.
    """

    dependent: TimeSeries
    regressors: tuple[TimeSeries, ...]

    def __post_init__(self) -> None:
        if not self.regressors:
            raise InvalidArgumentError("at least one regressor series is required")
        object.__setattr__(self, "regressors", tuple(self.regressors))


@dataclass(frozen=True)
class CoefRow:
    """One row of a coefficient table."""

    name: str
    coef: float
    std_err: float
    t_stat: float
    p_value: float


@dataclass(frozen=True)
class OlsFit:
    """Least-squares fit plus the standard single-equation diagnostics."""

    dep_name: str
    coef_rows: tuple[CoefRow, ...]
    nobs: int
    n_params: int
    residuals: np.ndarray
    fitted: np.ndarray
    ssr: float
    r_squared: float
    adj_r_squared: float
    se_regression: float
    log_likelihood: float
    aic: float
    schwarz: float
    hannan_quinn: float
    f_statistic: float
    f_prob: float
    durbin_watson: float
    mean_dep: float
    sd_dep: float
    # Residuals with their dates, set when fitting from aligned series.
    residual_series: TimeSeries | None = None

    @property
    def coefs(self) -> np.ndarray:
        return np.array([row.coef for row in self.coef_rows])

    @property
    def df_resid(self) -> int:
        return self.nobs - self.n_params


def log_likelihood_from_ssr(ssr: float, nobs: int) -> float:
    """Gaussian log-likelihood at the ML variance estimate SSR/T."""
    if nobs <= 0:
        raise InvalidArgumentError(f"nobs must be positive, got {nobs}")
    if ssr <= 0.0:
        return math.inf
    return -0.5 * nobs * (1.0 + math.log(2.0 * math.pi) + math.log(ssr / nobs))


def aic_from_loglik(loglik: float, nobs: int, n_params: int) -> float:
    """Akaike criterion, per-observation form."""
    return (-2.0 * loglik + 2.0 * n_params) / nobs


def schwarz_from_loglik(loglik: float, nobs: int, n_params: int) -> float:
    """Schwarz (Bayesian) criterion, per-observation form."""
    return (-2.0 * loglik + n_params * math.log(nobs)) / nobs


def hannan_quinn_from_loglik(loglik: float, nobs: int, n_params: int) -> float:
    """Hannan-Quinn criterion, per-observation form."""
    return (-2.0 * loglik + 2.0 * n_params * math.log(math.log(nobs))) / nobs


def adj_r2_from_r2(r2: float, nobs: int, n_params: int) -> float:
    """Degrees-of-freedom adjusted R-squared."""
    if nobs <= n_params:
        raise InvalidArgumentError("adjusted R-squared needs nobs > n_params")
    return 1.0 - (1.0 - r2) * (nobs - 1) / (nobs - n_params)


def f_statistic_from_r2(r2: float, nobs: int, n_params: int) -> float:
    """F-statistic for joint significance of the non-constant regressors."""
    if n_params < 2:
        return math.nan
    if r2 >= 1.0:
        return math.inf
    return (r2 / (n_params - 1)) / ((1.0 - r2) / (nobs - n_params))


def se_regression_from_ssr(ssr: float, nobs: int, n_params: int) -> float:
    """Standard error of the regression, sqrt(SSR / (T - k))."""
    if nobs <= n_params:
        raise InvalidArgumentError("S.E. of regression needs nobs > n_params")
    return math.sqrt(ssr / (nobs - n_params))


def durbin_watson(residuals: np.ndarray) -> float:
    """Durbin-Watson statistic, sum of squared residual steps over SSR."""
    e = np.asarray(residuals, dtype=np.float64)
    if e.size < 2:
        raise InsufficientDataError("Durbin-Watson needs at least 2 residuals")
    denom = float(np.sum(e * e))
    if denom == 0.0:
        return math.nan
    steps = e[1:] - e[:-1]
    return float(np.sum(steps * steps)) / denom


def _householder_qr(x: np.ndarray, y: np.ndarray,
                    names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Householder QR of ``x`` scaled to unit column norms: (R, Q'y, norms).

    Row m of the work array is column m and y is its last row, so each
    reflection updates the trailing block in one ``np.sum(..., axis=1)``.
    Reflection j only touches columns j and later, so the leading p columns
    of R and entries of Q'y are those of ``x[:, :p]`` alone, and
    ||(Q'y)[p:]||^2 is that prefix's SSR.  The rank test compares diagonal
    magnitudes of R, which is only fair at unit column norms.
    """
    n, k = x.shape
    norms = np.sqrt(np.sum(x * x, axis=0))
    if not np.all(norms):
        j = int(np.argmin(norms))  # the first zero column
        raise SingularMatrixError(f"regressor '{names[j]}' is identically zero", column=j)
    a = np.empty((k + 1, n))
    np.divide(x.T, norms[:, None], out=a[:k])
    a[k] = y
    scratch = np.empty(a.size)  # both products of every reflection
    for j in range(k):
        col = a[j, j:]
        norm = math.sqrt(float(np.sum(col * col)))
        if norm == 0.0:
            raise SingularMatrixError(
                f"design matrix column {j} is numerically zero after reduction",
                column=j,
            )
        alpha = -math.copysign(norm, col[0]) if col[0] != 0.0 else -norm
        v = col.copy()
        v[0] -= alpha
        scale = 2.0 / float(np.sum(v * v))
        block = a[j:, j:]
        prod = scratch[: block.size].reshape(block.shape)
        w = scale * np.sum(np.multiply(v, block, out=prod), axis=1)
        block -= np.multiply(w[:, None], v, out=prod)
        a[j, j] = alpha
        a[j, j + 1 :] = 0.0
    diag = np.abs(np.diagonal(a)[:k])
    if float(np.min(diag)) < _RANK_RTOL * float(np.max(diag)):
        bad = int(np.argmin(diag))
        raise SingularMatrixError(
            f"design matrix is rank deficient at column {bad} "
            f"(|R[{bad},{bad}]| = {diag[bad]:.3e})",
            column=bad,
        )
    return a[:k, :k].T, a[k], norms


def _solve_triangular(r: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Back-substitute R b = (Q'y)[:k]; returns (b, diag of (X'X)^-1).

    Superdiagonal d of R^-1 needs only lower ones: a contiguous (k-d, d)
    array of terms, each row summed like a 1-D ``np.sum``.  diag (X'X)^-1 is
    the row sums of R^-1 * R^-1; the off-diagonal entries are never formed.
    """
    k = r.shape[0]
    beta = np.zeros(k)
    for j in range(k - 1, -1, -1):
        beta[j] = (z[j] - float(np.sum(r[j, j + 1 :] * beta[j + 1 :]))) / r[j, j]
    dr, idx = np.diagonal(r), np.arange(k)
    rinv = np.diag(1.0 / dr)
    for d in range(1, k):
        i, j = idx[: k - d], idx[d:]  # entry (i, j) sums over columns i + 1 .. j
        cols = i[:, None] + idx[1 : d + 1]
        rinv[i, j] = -np.sum(r[i[:, None], cols] * rinv[cols, j[:, None]], axis=1) / dr[: k - d]
    return beta, np.sum(rinv * rinv, axis=1)


def fit_arrays(
    y: np.ndarray,
    x: np.ndarray,
    *,
    dep_name: str = "Y",
    reg_names: Sequence[str] | None = None,
) -> OlsFit:
    """Fit y on the columns of x (pass the constant column explicitly).

    Parameters
    ----------
    y : (n,) array of the dependent variable.
    x : (n, k) design matrix, one column per regressor.
    dep_name : label for reports.
    reg_names : k labels; defaults to X0..X{k-1}.
    """
    yv = np.asarray(y, dtype=np.float64)
    xv = np.asarray(x, dtype=np.float64)
    if xv.ndim != 2:
        raise InvalidArgumentError(f"design matrix must be 2-D, got ndim={xv.ndim}")
    n, k = xv.shape
    if yv.shape != (n,):
        raise InvalidArgumentError(
            f"dependent variable has shape {yv.shape}, expected ({n},)"
        )
    if k == 0:
        raise InvalidArgumentError("design matrix has no columns")
    if n <= k:
        raise InsufficientDataError(
            f"need more observations than parameters, got n={n}, k={k}"
        )
    if reg_names is None:
        reg_names = [f"X{j}" for j in range(k)]
    elif len(reg_names) != k:
        raise InvalidArgumentError(
            f"got {len(reg_names)} regressor names for {k} columns"
        )
    if not (np.all(np.isfinite(yv)) and np.all(np.isfinite(xv))):
        raise InvalidArgumentError("regression inputs must be finite")

    r, z, norms = _householder_qr(xv, yv, reg_names)
    beta_s, var_s = _solve_triangular(r, z)
    beta = beta_s / norms
    var = var_s / (norms * norms)

    fitted = np.zeros(n)
    for j in range(k):
        fitted += beta[j] * xv[:, j]
    resid = yv - fitted
    ssr = float(np.sum(resid * resid))

    mean_dep = float(np.sum(yv)) / n
    dev = yv - mean_dep
    tss = float(np.sum(dev * dev))
    sd_dep = math.sqrt(tss / (n - 1))
    r2 = 1.0 - ssr / tss if tss > 0.0 else math.nan
    df = n - k
    s2 = ssr / df
    loglik = log_likelihood_from_ssr(ssr, n)

    rows = []
    for j in range(k):
        se = math.sqrt(s2 * var[j])
        if se > 0.0:
            t = float(beta[j]) / se
            p = 2.0 * student_t_sf(abs(t), df)
        else:
            t = math.nan if beta[j] == 0.0 else math.copysign(math.inf, beta[j])
            p = math.nan if beta[j] == 0.0 else 0.0
        rows.append(CoefRow(name=str(reg_names[j]), coef=float(beta[j]),
                            std_err=se, t_stat=t, p_value=p))

    # R^2 < 0 (no constant) leaves no F test against the mean-only model.
    fstat = f_statistic_from_r2(r2, n, k) if r2 >= 0.0 else math.nan
    fprob = math.nan if math.isnan(fstat) else f_sf(fstat, k - 1, df)

    return OlsFit(
        dep_name=dep_name,
        coef_rows=tuple(rows),
        nobs=n,
        n_params=k,
        residuals=resid,
        fitted=fitted,
        ssr=ssr,
        r_squared=r2,
        adj_r_squared=adj_r2_from_r2(r2, n, k) if not math.isnan(r2) else math.nan,
        se_regression=se_regression_from_ssr(ssr, n, k),
        log_likelihood=loglik,
        aic=aic_from_loglik(loglik, n, k),
        schwarz=schwarz_from_loglik(loglik, n, k),
        hannan_quinn=hannan_quinn_from_loglik(loglik, n, k),
        f_statistic=fstat,
        f_prob=fprob,
        durbin_watson=durbin_watson(resid),
        mean_dep=mean_dep,
        sd_dep=sd_dep,
    )


def fit(spec: RegressionSpec) -> OlsFit:
    """Align the spec's series on common dates and fit, constant (C) first."""
    dep_a, *regs_a = align(spec.dependent, *spec.regressors)
    names = ["C"] + [s.name or f"X{j}" for j, s in enumerate(regs_a, start=1)]
    x = np.column_stack([np.ones(len(dep_a))] + [s.values for s in regs_a])
    result = fit_arrays(
        dep_a.values, x, dep_name=spec.dependent.name or "Y", reg_names=names
    )
    resid = TimeSeries(dep_a.dates, result.residuals, name="RESID")
    return replace(result, residual_series=resid)
