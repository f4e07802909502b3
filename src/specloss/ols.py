"""Ordinary least squares with the diagnostic set printed by EViews.

The solver is Householder QR on a column-equilibrated design matrix,
held transposed with y as one more row.  Equilibration (scaling every
column to unit Euclidean norm) keeps the rank test meaningful when
regressors differ by many orders of magnitude, as volumes in pieces and
rates in fractions do.  Reductions call the ``np.add.reduce`` ufunc, or
``np.einsum`` for the column norms of a design of two columns or more, on
elementwise products, not BLAS, so results are bit-stable on a platform,
which ``tests/test_ols.py`` checks against column loops.
This module alone builds and factors a work array: one private function
copies the design's columns and y into a fresh one, for :func:`fit`,
:func:`fit_arrays` and the ADF regressions alike, and factors it in
place; the exact ADF lag search calls it directly.  Another builds the
same stacked copy for its Gram matrix, the one BLAS product here, whose
prefix SSRs it gives with a bound on their error and on the QR's; only
a lag choice that bound certifies reads them.  One private kernel
factors, solves and forms the residuals, the SSR and the standard
errors, of which only the diagonal of (X'X)^-1 is formed.  Only
:func:`fit_arrays` takes raw arrays, so only it checks that its inputs
are finite.  A fit keeps no n-vector but the residual series that
:func:`fit` sets.

One range rule covers every float: a regressor whose squares sum, or a
dependent whose largest magnitude, leaves a fixed band is fitted scaled
by an exact power of two, so a statistic without a unit keeps its bits.
Only printed fields in a unit are scaled back, at the end; one that
leaves the normal floats there is an input error naming it.

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
# The band of the range rule: largest magnitudes in [2^-_BAND, 2^_BAND).
_BAND = 256
# The unit roundoff of float64.
_U = 2.0**-53
# The constant c of one Householder reflection's backward error, c (d+3) u
# of a column's norm for inner products of depth d (Higham 2002, Lemma
# 19.3, whose constant is left as a small integer).
_QR_C = 8


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


def _scaled(values: np.ndarray) -> tuple[np.ndarray, int]:
    """``values`` and 0 in the band, else values * 2^-e and e, the largest then in [1/2, 1)."""
    e = math.frexp(max(-float(values.min()), float(values.max())))[1]
    return (values, 0) if -_BAND < e <= _BAND else (np.ldexp(values, -e), e)


def _scaled_back(value: float, e: int, field: str = "") -> float | None:
    """value * 2^e, exact; where that is neither 0 nor normal (frexp exponents -1021..1024),
    None, or with a printed ``field``, an error naming it."""
    if e and value and not -1021 <= math.frexp(value)[1] + e <= 1024:
        if field:
            raise InvalidArgumentError(f"{field} is outside the float range")
        return None
    return math.ldexp(value, e)


def _column_norms(x: np.ndarray, scratch: np.ndarray, names: Sequence[str]) -> tuple:
    """Euclidean norms of the columns of the (n, k) design ``x``, and their exponents.

    Each norm is one row-order fold down its column, so a transposed view
    of a work array gives the bits of the C-ordered design: the squares
    go into ``scratch`` C-ordered, a block of as many rows as it holds,
    and the running sums are added into each later block's first row
    (squares are never -0.0, so that changes no bit).  ``np.einsum``
    folds a block with one running sum per column down the strided rows,
    the bits of ``np.add.reduce(axis=0)`` at a quarter of its time at
    25,500 rows.  A single column is summed pairwise by ``np.add.reduce``
    like an (n, 1) design.  The range rule: a column whose squares sum
    outside [2^-2B, 2n 4^B], B the band, is scaled in place as
    :func:`_scaled` says, its exponent kept, and the design folded again;
    over its norm it keeps its bits.  A zero column is singular.
    """
    n, k = x.shape
    rows = scratch.size // k
    squares = scratch.reshape(-1)[: rows * k].reshape(rows, k)
    lo, hi, exps = 2.0 ** (-2 * _BAND), n * 2.0 ** (2 * _BAND + 1), [0] * k
    while True:  # at most twice: a scaled column's squares sum to [1/4, n]
        with np.errstate(over="ignore"):
            for top in range(0, n, rows):
                block = x[top : top + rows]
                sq = np.square(block, out=squares[: len(block)])
                if top:
                    sq[0] += sums
                sums = np.einsum("ij->j", sq) if k > 1 else np.add.reduce(sq, axis=0)
        listed = sums.tolist()
        if lo <= min(listed) and max(listed) <= hi:
            return np.sqrt(sums), exps
        for j in [j for j, total in enumerate(listed) if not lo <= total <= hi]:
            x[:, j], exps[j] = _scaled(x[:, j])
            if not exps[j]:
                raise SingularMatrixError(f"regressor '{names[j]}' is identically zero", column=j)


# A read-only column of ones as long as any float64 array, holding one float.
_ONES = np.broadcast_to(1.0, np.iinfo(np.intp).max // 8)


def _householder_qr(a: np.ndarray, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, list]:
    """Householder QR in place of the (k+1, n) work array: returns (R, norms, exps).

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
    magnitudes of R, which is only fair at unit column norms; it also
    runs on the columns before one that reduces to exact zeros.
    """
    k, n = a.shape[0] - 1, a.shape[1]
    group = max(1, _REFLECT_BYTES // (8 * n))
    scratch = np.empty((min(group, k), n))  # the norms' squares, then products
    norms, exps = _column_norms(a[:k].T, scratch, names)
    a[:k] /= norms[:, None]
    for j in range(k):
        v = a[j, j:]
        sq = np.multiply(v, v, out=scratch[0, j:])
        norm = math.sqrt(float(np.add.reduce(sq)))
        if norm == 0.0:
            _check_rank(np.abs(np.diagonal(a)[:j]))
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
    _check_rank(np.abs(np.diagonal(a)[:k]))
    return a[:k, :k].T, norms, exps


def _check_rank(diag: np.ndarray) -> None:
    """Name the first column whose |R_jj| is below the tolerance, if one is."""
    if float(diag.min()) < (tol := _RANK_RTOL * float(diag.max())):
        bad = int(np.argmax(diag < tol))
        raise SingularMatrixError(
            f"design matrix is rank deficient at column {bad} "
            f"(|R[{bad},{bad}]| = {diag[bad]:.3e})",
            column=bad,
        )


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
            names: Sequence[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
    """(R, Q'y, norms, exps) of the design, factored in place in a fresh work array."""
    a = np.array([*columns, y])  # the work array, the only copy of the design
    r, norms, exps = _householder_qr(a, names)
    return r, a[-1], norms, exps


def _gamma(m: int) -> float:
    """Higham's gamma_m = m*u / (1 - m*u), the error bound of m rounded operations."""
    return m * _U / (1.0 - m * _U)


def _gram_ssrs(y: np.ndarray, columns: Sequence[np.ndarray],
               first: int) -> tuple[list[float], list[float]] | None:
    """SSRs of y on the first p columns, p = first..k, from the Gram matrix: (SSRs, deltas).

    The stacked copy A = [X y] is built as the work array is, and one BLAS
    product gives G = A A', scaled to a unit diagonal S = D G D and
    factored S = L L'.  The last row and column of S are y's, so
    rho_p = sum_{i >= p} L[k, i]^2 is the SSR of y*d_y on the first p
    columns and SSR_p = G_yy * rho_p.  Each delta_p bounds the relative
    error of that SSR, and of the SSR that :func:`_factor`'s Q'y gives for
    the same prefix, against the exact one.

    The derivation.  In the unit-diagonal geometry each route's rho_p is
    the exact rho_p(M) = min_b w'Mw over w = (-b, 1) of a matrix M within
    F of S, entrywise |F_ij| <= eps.  Comparing each minimizer in the
    other's form, |rho_p(M) - rho_p(S)| <= eps * W^2, W a bound on
    ||w||_1 over both minimizers.  Per entry:
    - the Gram route: gamma_n for the dot products (G's diagonal in the
      range rule's band makes underflow negligible), 3u for the scaling,
      and the Cholesky backward error gamma_{k+2} |L||L'| <= gamma_{k+2}
      (Higham 2002, Theorem 10.3): eps_G = gamma_{n+5} + gamma_{k+3};
    - the QR search: each reflection moves a column by a backward error
      of at most c (d+3) u of its norm (Lemma 19.3, the inner products
      being numpy's pairwise sums of depth d <= 32 + log2 n), so k of
      them and the equilibration give g = gamma_{c k (d+3) + 1}, and the
      Gram matrix moves by eps_Q = 2g + g^2.
    The computed factor is exact for some M within eps_G of S.  Its
    minimizer b_p = L_p^-T L[k, :p] comes from L_k^-1, L_k the leading
    k x k block, formed explicitly: kappa = ||L_k^-1||_F^2 bounds
    ||C^-1||_2 of every leading block C, which its smallest pivot alone
    does not.  Where kappa * eta <= 1/4, eta = (k+1)(eps_G + eps_Q), every
    matrix in play has ||C^-1||_2 <= 2 kappa, so every minimizer lies
    within t ||w||_2 of the computed one, t = 4 kappa eta, and
    W = ||w||_1 + t sqrt(k) ||w||_2.  The QR's R then has no diagonal
    below sqrt(2 eta), far above its rank tolerance.  With
    g' = gamma_{k+5} for the sums of squares and the product by G_yy,
    delta_p = (max(eps_G, eps_Q) W^2 + g' rho_p) / (rho_p (1 - g') -
    max(eps_G, eps_Q) W^2).  Second-order terms are left to the caller's
    safety factor.

    None where no bound holds: a diagonal of G outside the range rule's
    band, where the QR scales a column or names a zero one; a failed
    Cholesky factorization; kappa * eta > 1/4; or a delta_p outside
    (0, 1/2].
    """
    k, n = len(columns), len(y)
    a = np.array([*columns, y])
    g = a @ a.T
    del a
    diag = np.diagonal(g)
    listed = diag.tolist()
    if not (2.0 ** (-2 * _BAND) <= min(listed) and max(listed) <= n * 2.0 ** (2 * _BAND + 1)):
        return None
    s = np.sqrt(diag)
    try:
        low = np.linalg.cholesky(g / np.multiply.outer(s, s))
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        inv = np.linalg.inv(low[:k, :k])
        kappa = float(np.add.reduce(np.square(inv), axis=None))
    eps_g = _gamma(n + 5) + _gamma(k + 3)
    depth = 32 + n.bit_length()  # of numpy's pairwise sum of n terms, generously
    qr = _gamma(_QR_C * k * (depth + 3) + 1)
    eps_q = 2.0 * qr + qr * qr
    eta = (k + 1) * (eps_g + eps_q)
    if not kappa * eta <= 0.25:  # an inf or nan kappa fails too
        return None
    betas = np.cumsum(inv * low[k, :k, None], axis=0)[first - 1 :]  # row p-1: b_p, zero-padded
    w1 = 1.0 + np.add.reduce(np.abs(betas), axis=1)
    w2 = np.sqrt(1.0 + np.add.reduce(np.square(betas), axis=1))
    shifts = (max(eps_g, eps_q) * np.square(w1 + 4.0 * kappa * eta * math.sqrt(k) * w2)).tolist()
    rhos = np.cumsum(np.square(low[k, first:])[::-1])[::-1].tolist()
    sums = _gamma(k + 5)
    deltas = []
    for rho, shift in zip(rhos, shifts):
        floor = rho * (1.0 - sums) - shift
        if not floor > 0.0 or (delta := (shift + sums * rho) / floor) > 0.5:
            return None
        deltas.append(delta)
    yy = listed[k]
    return [rho * yy for rho in rhos], deltas


def _solve(y: np.ndarray, columns: Sequence[np.ndarray],
           names: Sequence[str]) -> tuple[np.ndarray, list[float], float, np.ndarray, list]:
    """Fit y on the columns scaled by 2^-exps: (beta, standard errors, SSR, residuals, exps)."""
    r, qy, norms, exps = _factor(y, columns, names)
    beta_s, var_s = _solve_triangular(r, qy)
    del r, qy  # the work array goes before the residuals are formed
    beta = beta_s / norms
    if any(exps):
        columns = [np.ldexp(c, -e) if e else c for c, e in zip(columns, exps)]
    resid = _residuals(y, columns, beta)
    ssr = float(np.add.reduce(resid * resid))
    s2 = ssr / (len(y) - len(columns))
    se = [math.sqrt(s2 * v) for v in (var_s / (norms * norms)).tolist()]
    return beta, se, ssr, resid, exps


def _t_ratio(b: float, se: float) -> float:
    """b / se; a zero standard error leaves nan for b == 0, else +-inf."""
    if se > 0.0:
        return b / se
    return math.nan if b == 0.0 else math.copysign(math.inf, b)


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
    if reg_names is None:
        reg_names = [f"X{j}" for j in range(k)]
    elif len(reg_names) != k:
        raise InvalidArgumentError(
            f"got {len(reg_names)} regressor names for {k} columns"
        )
    # The only raw arrays: every other caller passes TimeSeries columns, finite when built.
    if not (np.isfinite(xv).all() and np.isfinite(yv).all()):
        raise InvalidArgumentError("regression inputs must be finite")
    return _fit(yv, xv.T, dep_name, reg_names, None)


def _fit(y: np.ndarray, columns: Sequence[np.ndarray], dep_name: str,
         reg_names: Sequence[str], dates: np.ndarray | None) -> OlsFit:
    """Fit y on the named columns; a fit given ``dates`` keeps its residual series."""
    n, k = len(y), len(columns)
    if n <= k:
        raise InsufficientDataError(
            f"need more observations than parameters, got n={n}, k={k}"
        )
    y, d = _scaled(y)
    beta, se, ssr, resid, exps = _solve(y, columns, reg_names)
    its = f"dependent '{dep_name}': its"  # names a printed field that leaves the float range
    ssr_back = _scaled_back(ssr, 2 * d, f"{its} sum of squared residuals")
    dw = float(np.add.reduce(np.square(np.diff(resid)))) / ssr if ssr else math.nan
    series = (None if dates is None
              else TimeSeries(_Frozen(dates), _Frozen(np.ldexp(resid, d) if d else resid), "RESID"))
    del resid

    mean_dep = float(np.add.reduce(y)) / n
    dev = y - mean_dep
    tss = float(np.add.reduce(dev * dev))
    r2 = 1.0 - ssr / tss if tss > 0.0 else math.nan
    df = n - k
    loglik = log_likelihood_from_ssr(ssr_back, n)

    rows = []
    for name, b, s, e in zip(reg_names, beta.tolist(), se, exps):
        t = _t_ratio(b, s)
        p = 2.0 * student_t_sf(abs(t), df)  # nan for a nan t, 0 for an infinite one
        b, s = (_scaled_back(v, d - e, f"{its} {field} on {name}")
                for v, field in ((b, "coefficient"), (s, "standard error")))
        rows.append(CoefRow(name=str(name), coef=b, std_err=s, t_stat=t, p_value=p))

    # R^2 < 0 (no constant) leaves no F test against the mean-only model.
    fstat = f_statistic_from_r2(r2, n, k) if r2 >= 0.0 else math.nan
    fprob = math.nan if math.isnan(fstat) else f_sf(fstat, k - 1, df)

    return OlsFit(
        dep_name=dep_name,
        coef_rows=tuple(rows),
        nobs=n,
        n_params=k,
        ssr=ssr_back,
        r_squared=r2,
        adj_r_squared=adj_r2_from_r2(r2, n, k) if not math.isnan(r2) else math.nan,
        se_regression=math.ldexp(se_regression_from_ssr(ssr, n, k), d),
        log_likelihood=loglik,
        aic=aic_from_loglik(loglik, n, k),
        schwarz=schwarz_from_loglik(loglik, n, k),
        hannan_quinn=hannan_quinn_from_loglik(loglik, n, k),
        f_statistic=fstat,
        f_prob=fprob,
        durbin_watson=dw,
        mean_dep=_scaled_back(mean_dep, d, f"{its} mean"),
        sd_dep=_scaled_back(math.sqrt(tss / (n - 1)), d, f"{its} standard deviation"),
        residual_series=series,
    )


def fit(dependent: TimeSeries, regressors: Sequence[TimeSeries]) -> OlsFit:
    """Align the series on their common dates and fit, constant (C) first."""
    if not regressors:
        raise InvalidArgumentError("at least one regressor series is required")
    dep_a, *regs_a = align(dependent, *regressors)
    names = ["C"] + [s.name or f"X{j}" for j, s in enumerate(regs_a, start=1)]
    columns = [_ONES[: len(dep_a)]] + [s.values for s in regs_a]
    return _fit(dep_a.values, columns, dependent.name or "Y", names, dep_a.dates)
