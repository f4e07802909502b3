"""Ordinary least squares with the diagnostic set printed by EViews.

The solver is Householder QR on a column-equilibrated design matrix,
held transposed with y as one more row.  Equilibration (scaling every
column to unit Euclidean norm) keeps the rank test meaningful when
regressors differ by many orders of magnitude, which happens as soon as
volumes in pieces meet rates in fractions.  Reductions call the
``np.add.reduce`` ufunc on elementwise products, not BLAS, so results
are bit-stable on a platform: numpy sums each contiguous row pairwise
like a 1-D reduction, which ``tests/test_ols.py`` checks against column
loops.  Each reflection goes over groups of rows that fit in cache
together with their products, a row at a time at 25,500 days and all
rows at once at a few hundred; a row's sum does not depend on its
group.  This module alone builds and factors a work array: one private
function copies the design's columns and y straight into a fresh one,
whether the columns are those of an (n, k) matrix or the separate
arrays of :func:`fit` and the ADF regressions, and factors it in place;
the column norms are a row-order fold, block by block in the
reflections' scratch, that ``np.einsum`` runs down the strided rows with
the bits of the C-ordered design.  The ADF lag search calls it directly.
Only :func:`fit_arrays` takes raw arrays, so only it checks that its
inputs are finite; every other caller passes ``TimeSeries`` columns,
finite when built.  Standard errors need only the diagonal of (X'X)^-1,
so only that is formed.  One private kernel solves and forms the
residuals, the SSR and the standard errors for :func:`fit`,
:func:`fit_arrays` and the ADF test's t-statistic alike.  A fit keeps no
n-vector: its residuals give the SSR and the Durbin-Watson statistic and
are dropped, except that a dated dependent keeps them as the residual
series.  A regressor whose squares overflow or underflow, or a
dependent whose SSR, TSS or Durbin-Watson sum overflows, is an input
error that names it, not an inf.

The information criteria follow the finite-sample conventions used by
EViews: AIC = (-2*logL + 2*k)/T and so on, with the Gaussian
log-likelihood evaluated at the ML variance estimate SSR/T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InsufficientDataError, InvalidArgumentError, SingularMatrixError
from .series import TimeSeries, _Frozen, align
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
]

# Relative pivot threshold for declaring the (equilibrated) design singular.
_RANK_RTOL = 1e-10
# Bytes of the rows that one pass of a reflection updates.  The scratch
# for their products is as large, and the two together fit in a typical
# L2 cache.
_REFLECT_BYTES = 1 << 18
# The smallest normal float: a sum of squares below it has lost digits.
_TINY = float(np.finfo(np.float64).tiny)


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


def _column_norms(x: np.ndarray, scratch: np.ndarray, names: Sequence[str]) -> np.ndarray:
    """Euclidean norms of the columns of the (n, k) design ``x``.

    The squares go into ``scratch`` C-ordered whatever the layout of
    ``x``, a block of as many rows as it holds, and the running sums are
    added into each later block's first row, so every norm is one
    row-order fold down its column and a transposed view of a work array
    gives the bits of the C-ordered design.  ``np.einsum("ij->j")`` folds
    a block: it keeps one running sum per column down the strided rows,
    the order and bits of ``np.add.reduce(axis=0)`` at a quarter of its
    time at 25,500 rows, where the ufunc calls its add loop once a row.
    Squares are never -0.0, so adding the sums in changes no bit.  A
    single column's squares fill one block, which ``np.add.reduce`` sums
    pairwise like a 1-D row, as it sums an (n, 1) design; einsum would
    not.  A column whose squares overflow raises, naming the first one,
    and so does one whose squares sum below the smallest normal float:
    a zero column is a singular design, any other has lost its digits.
    """
    n, k = x.shape
    rows = scratch.size // k
    squares = scratch.reshape(-1)[: rows * k].reshape(rows, k)
    with np.errstate(over="ignore"):
        for lo in range(0, n, rows):
            block = x[lo : lo + rows]
            sq = np.square(block, out=squares[: len(block)])
            if lo:
                sq[0] += sums
            sums = np.einsum("ij->j", sq) if k > 1 else np.add.reduce(sq, axis=0)
    listed = sums.tolist()
    if math.inf in listed:
        j = listed.index(math.inf)  # the first column too large to square
        raise InvalidArgumentError(f"regressor '{names[j]}' is too large: its squares overflow")
    if min(listed) < _TINY:
        j = next(j for j, total in enumerate(listed) if total < _TINY)
        if x[:, j].any():
            raise InvalidArgumentError(f"regressor '{names[j]}' is too small: its squares underflow")
        raise SingularMatrixError(f"regressor '{names[j]}' is identically zero", column=j)
    return np.sqrt(sums)


# A read-only column of ones as long as any float64 array, holding one float.
_ONES = np.broadcast_to(1.0, np.iinfo(np.intp).max // 8)


def _householder_qr(a: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR in place of the (k+1, n) work array: returns (R, norms).

    Rows 0..k-1 of ``a`` are the design's columns, first scaled to unit
    norm here, and row k is y, which ends as Q'y.  Reflection j only
    touches columns j and later, so the leading p columns of R and
    entries of Q'y are those of the first p columns alone, and
    ||(Q'y)[p:]||^2 is that prefix's SSR.  Each reflection updates the
    rows below the pivot a group at a time, ``_REFLECT_BYTES`` of them
    with a scratch array of the same size for their products, so neither
    leaves cache before it is used again; every row is still summed by
    one contiguous ``np.add.reduce``, which gives the same bits in a
    group of any size.  The pivot row itself holds the reflector v while
    it is applied and then column j of R, so it is never reflected.
    ||v||^2 reuses the squares of the column's norm, as v differs from
    the column in its first entry only.  The rank test compares diagonal
    magnitudes of R, which is only fair at unit column norms.
    """
    k, n = a.shape[0] - 1, a.shape[1]
    group = max(1, _REFLECT_BYTES // (8 * n))
    scratch = np.empty((min(group, k), n))  # the norms' squares, then products
    norms = _column_norms(a[:k].T, scratch, names)
    a[:k] /= norms[:, None]
    for j in range(k):
        v = a[j, j:]
        sq = np.multiply(v, v, out=scratch[0, j:])
        norm = math.sqrt(float(np.add.reduce(sq)))
        if norm == 0.0:
            raise SingularMatrixError(
                f"design matrix column {j} is numerically zero after reduction",
                column=j,
            )
        head = float(v[0])
        alpha = -math.copysign(norm, head) if head != 0.0 else -norm
        v0 = head - alpha
        sq[0] = v0 * v0
        scale = 2.0 / float(np.add.reduce(sq))
        v[0] = v0
        for lo in range(j + 1, k + 1, group):
            block = a[lo : lo + group, j:]
            prod = scratch[: len(block), j:]
            w = np.add.reduce(np.multiply(v, block, out=prod), axis=1, keepdims=True)
            w *= scale
            block -= np.multiply(w, v, out=prod)
        v[0] = alpha
        v[1 : k - j] = 0.0
    diag = np.abs(np.diagonal(a)[:k])
    if float(diag.min()) < _RANK_RTOL * float(diag.max()):
        bad = int(diag.argmin())
        raise SingularMatrixError(
            f"design matrix is rank deficient at column {bad} "
            f"(|R[{bad},{bad}]| = {diag[bad]:.3e})",
            column=bad,
        )
    return a[:k, :k].T, norms


def _solve_triangular(r: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Back-substitute R b = (Q'y)[:k]; returns (b, diag of (X'X)^-1).

    Superdiagonal d of R^-1 needs only lower ones: a contiguous (k-d, d)
    array of terms, each row summed like a 1-D ``np.add.reduce``.  diag
    (X'X)^-1 is the row sums of R^-1 * R^-1; the off-diagonal entries are
    never formed.
    """
    k = r.shape[0]
    beta = np.zeros(k)
    for j in range(k - 1, -1, -1):
        beta[j] = (z[j] - float(np.add.reduce(r[j, j + 1 :] * beta[j + 1 :]))) / r[j, j]
    dr, idx = np.diagonal(r), np.arange(k)
    rinv = np.diag(1.0 / dr)
    for d in range(1, k):
        i, j = idx[: k - d], idx[d:]  # entry (i, j) sums over columns i + 1 .. j
        cols = i[:, None] + idx[1 : d + 1]
        terms = r[i[:, None], cols] * rinv[cols, j[:, None]]
        rinv[i, j] = -np.add.reduce(terms, axis=1) / dr[: k - d]
    return beta, np.add.reduce(rinv * rinv, axis=1)


def _residuals(y: np.ndarray, columns: Sequence[np.ndarray], beta) -> np.ndarray:
    """y minus the fitted values, summed column by column in design order."""
    resid = np.zeros(len(y))  # the fitted values, then y minus them
    for b, column in zip(beta, columns):
        resid += b * column
    return np.subtract(y, resid, out=resid)


def _factor(y: np.ndarray, columns: Sequence[np.ndarray],
            names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(R, Q'y, norms) of the design, factored in place in a fresh work array."""
    a = np.array([*columns, y])  # the work array, the only copy of the design
    r, norms = _householder_qr(a, names)
    return r, a[-1], norms


def _sum_of_squares(x: np.ndarray, dep_name: str) -> float:
    """``np.add.reduce(x * x)`` of values from the dependent; an overflow raises, naming it."""
    with np.errstate(over="ignore"):
        total = float(np.add.reduce(x * x))
    if math.isinf(total):
        raise InvalidArgumentError(f"dependent '{dep_name}' is too large: its squares overflow")
    return total


def _solve(y: np.ndarray, columns: Sequence[np.ndarray], names: Sequence[str],
           dep_name: str) -> tuple[np.ndarray, list[float], float, np.ndarray]:
    """Least squares of y on the columns: (beta, standard errors, SSR, residuals)."""
    r, qy, norms = _factor(y, columns, names)
    beta_s, var_s = _solve_triangular(r, qy)
    del r, qy  # the work array goes before the residuals are formed
    beta = beta_s / norms
    resid = _residuals(y, columns, beta)
    ssr = _sum_of_squares(resid, dep_name)
    s2 = ssr / (len(y) - len(columns))
    se = [math.sqrt(s2 * v) for v in (var_s / (norms * norms)).tolist()]
    return beta, se, ssr, resid


def _t_ratio(b: float, se: float) -> float:
    """b / se; a zero standard error leaves nan for b == 0, else +-inf."""
    if se > 0.0:
        return b / se
    return math.nan if b == 0.0 else math.copysign(math.inf, b)


def fit_arrays(
    y: np.ndarray | TimeSeries,
    x: np.ndarray,
    *,
    dep_name: str = "Y",
    reg_names: Sequence[str] | None = None,
) -> OlsFit:
    """Fit y on the columns of x (pass the constant column explicitly).

    Parameters
    ----------
    y : (n,) array of the dependent variable, or a series on the rows'
        dates; the fit then keeps its residuals as ``residual_series``.
    x : (n, k) design matrix, one column per regressor.
    dep_name : label for reports.
    reg_names : k labels; defaults to X0..X{k-1}.
    """
    dated = isinstance(y, TimeSeries)
    yv = y.values if dated else np.asarray(y, dtype=np.float64)
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
    if reg_names is None:
        reg_names = [f"X{j}" for j in range(k)]
    elif len(reg_names) != k:
        raise InvalidArgumentError(
            f"got {len(reg_names)} regressor names for {k} columns"
        )
    # The only raw arrays: every other caller passes TimeSeries columns, finite when built.
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise InvalidArgumentError("regression inputs must be finite")
    return _fit(yv, xv.T, dep_name, reg_names, y.dates if dated else None)


def _fit(y: np.ndarray, columns: Sequence[np.ndarray], dep_name: str,
         reg_names: Sequence[str], dates: np.ndarray | None) -> OlsFit:
    """Fit y on the named columns; a fit given ``dates`` keeps its residual series."""
    n, k = len(y), len(columns)
    if n <= k:
        raise InsufficientDataError(
            f"need more observations than parameters, got n={n}, k={k}"
        )
    beta, se, ssr, resid = _solve(y, columns, reg_names, dep_name)
    # Durbin-Watson over the SSR at hand, so that an overflow names the dependent.
    dw = _sum_of_squares(resid[1:] - resid[:-1], dep_name) / ssr if ssr else math.nan
    series = (None if dates is None
              else TimeSeries(_Frozen(dates), _Frozen(resid), name="RESID"))
    del resid

    with np.errstate(over="ignore"):  # a sum that overflows leaves the TSS inf
        mean_dep = float(np.add.reduce(y)) / n
        dev = y - mean_dep
    tss = _sum_of_squares(dev, dep_name)
    sd_dep = math.sqrt(tss / (n - 1))
    r2 = 1.0 - ssr / tss if tss > 0.0 else math.nan
    df = n - k
    loglik = log_likelihood_from_ssr(ssr, n)

    rows = []
    for name, b, s in zip(reg_names, beta.tolist(), se):
        t = _t_ratio(b, s)
        p = 2.0 * student_t_sf(abs(t), df)  # nan for a nan t, 0 for an infinite one
        rows.append(CoefRow(name=str(name), coef=b, std_err=s, t_stat=t, p_value=p))

    # R^2 < 0 (no constant) leaves no F test against the mean-only model.
    fstat = f_statistic_from_r2(r2, n, k) if r2 >= 0.0 else math.nan
    fprob = math.nan if math.isnan(fstat) else f_sf(fstat, k - 1, df)

    return OlsFit(
        dep_name=dep_name,
        coef_rows=tuple(rows),
        nobs=n,
        n_params=k,
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
        durbin_watson=dw,
        mean_dep=mean_dep,
        sd_dep=sd_dep,
        residual_series=series,
    )


def fit(spec: RegressionSpec) -> OlsFit:
    """Align the spec's series on common dates and fit, constant (C) first."""
    dep_a, *regs_a = align(spec.dependent, *spec.regressors)
    names = ["C"] + [s.name or f"X{j}" for j, s in enumerate(regs_a, start=1)]
    columns = [_ONES[: len(dep_a)]] + [s.values for s in regs_a]
    return _fit(dep_a.values, columns, spec.dependent.name or "Y", names, dep_a.dates)
