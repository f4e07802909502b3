"""Independent oracles for the regression tests.

Nothing here shares code with the package: the normal equations are
assembled with explicit Python loops and solved by Gaussian elimination
with partial pivoting, every diagnostic is recomputed from its textbook
definition, and tail probabilities come from scipy.  Agreement between
this path and the QR-based implementation is evidence that both are
right, since their failure modes are unrelated.  :func:`durbin_watson`
is the one bit reference: it sums in the order the fit sums, so a fit's
statistic must equal it exactly on the residuals the fit formed.
"""

import math

import numpy as np
from scipy import stats

from specloss.errors import InsufficientDataError


def gauss_solve(a, b):
    """Solve A x = b by Gaussian elimination with partial pivoting.

    ``a`` is a list of row lists and ``b`` a list; both are copied, plain
    Python floats throughout.
    """
    n = len(a)
    m = [[float(v) for v in row] + [float(b[i])] for i, row in enumerate(a)]
    for col in range(n):
        pivot = max(range(col, n), key=lambda r: abs(m[r][col]))
        if m[pivot][col] == 0.0:
            raise ZeroDivisionError(f"singular system at column {col}")
        m[col], m[pivot] = m[pivot], m[col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n + 1):
                m[r][c] -= factor * m[col][c]
    x = [0.0] * n
    for r in range(n - 1, -1, -1):
        acc = m[r][n]
        for c in range(r + 1, n):
            acc -= m[r][c] * x[c]
        x[r] = acc / m[r][r]
    return x


def durbin_watson(residuals):
    """Durbin-Watson statistic, sum of squared residual steps over SSR."""
    e = np.asarray(residuals, dtype=np.float64)
    if e.size < 2:
        raise InsufficientDataError("Durbin-Watson needs at least 2 residuals")
    denom = float(np.add.reduce(e * e))
    if denom == 0.0:
        return math.nan
    steps = e[1:] - e[:-1]
    return float(np.add.reduce(steps * steps)) / denom


def ols_oracle(y, cols):
    """Least-squares fit and diagnostics via the normal equations.

    ``y`` is a list of n floats, ``cols`` a list of k column lists (pass
    the constant column explicitly).  Returns a dict keyed like the
    OlsFit fields, with per-coefficient lists for the table columns.
    """
    n = len(y)
    k = len(cols)
    xtx = [
        [sum(cols[i][t] * cols[j][t] for t in range(n)) for j in range(k)]
        for i in range(k)
    ]
    xty = [sum(cols[i][t] * y[t] for t in range(n)) for i in range(k)]
    beta = gauss_solve(xtx, xty)
    inv_cols = [
        gauss_solve(xtx, [1.0 if i == j else 0.0 for i in range(k)])
        for j in range(k)
    ]
    resid = [y[t] - sum(beta[j] * cols[j][t] for j in range(k)) for t in range(n)]
    ssr = sum(e * e for e in resid)
    mean_dep = sum(y) / n
    tss = sum((v - mean_dep) ** 2 for v in y)
    r2 = 1.0 - ssr / tss
    df = n - k
    s2 = ssr / df
    std_errs = [math.sqrt(s2 * inv_cols[j][j]) for j in range(k)]
    t_stats = [beta[j] / std_errs[j] for j in range(k)]
    p_values = [2.0 * float(stats.t.sf(abs(t), df)) for t in t_stats]
    loglik = -0.5 * n * (1.0 + math.log(2.0 * math.pi) + math.log(ssr / n))
    if k > 1:
        f_stat = (r2 / (k - 1)) / ((1.0 - r2) / df)
        f_prob = float(stats.f.sf(f_stat, k - 1, df))
    else:
        f_stat = math.nan
        f_prob = math.nan
    dw = sum((resid[t] - resid[t - 1]) ** 2 for t in range(1, n)) / ssr
    return {
        "coefs": beta,
        "std_errs": std_errs,
        "t_stats": t_stats,
        "p_values": p_values,
        "ssr": ssr,
        "r_squared": r2,
        "adj_r_squared": 1.0 - (1.0 - r2) * (n - 1) / df,
        "se_regression": math.sqrt(s2),
        "log_likelihood": loglik,
        "aic": (-2.0 * loglik + 2.0 * k) / n,
        "schwarz": (-2.0 * loglik + k * math.log(n)) / n,
        "hannan_quinn": (-2.0 * loglik + 2.0 * k * math.log(math.log(n))) / n,
        "f_statistic": f_stat,
        "f_prob": f_prob,
        "durbin_watson": dw,
        "mean_dep": mean_dep,
        "sd_dep": math.sqrt(tss / (n - 1)),
    }


def lstsq_fit(y, x):
    """Coefficients, standard errors and t-statistics of y on the (n, k) columns of x.

    numpy's SVD solves the fit after y and each column are scaled by an
    exact power of two to a largest magnitude in [1/2, 1), so squares
    near the ends of the float range cannot overflow or underflow; the
    coefficients and standard errors are scaled back.  A t-statistic
    does not depend on the scaling.
    """
    x, y = np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64)
    n, k = x.shape
    ex = np.frexp(np.abs(x).max(axis=0))[1]
    ey = int(np.frexp(np.abs(y).max())[1])
    xs, ys = np.ldexp(x, -ex), np.ldexp(y, -ey)
    beta = np.linalg.lstsq(xs, ys, rcond=None)[0]
    resid = ys - xs @ beta
    _, sv, vt = np.linalg.svd(xs, full_matrices=False)
    se = np.sqrt(float(resid @ resid) / (n - k) * ((vt.T / sv) ** 2).sum(axis=1))
    return {"coefs": np.ldexp(beta, ey - ex), "std_errs": np.ldexp(se, ey - ex),
            "t_stats": beta / se}


def random_instance(rng, max_n=20, max_k=4):
    """One random well-scaled regression problem as (y, cols).

    The first column is a constant, the rest are independent normals
    under per-column scale factors spanning a few orders of magnitude.
    """
    k = int(rng.integers(1, max_k + 1))
    n = int(rng.integers(k + 4, max_n + 1))
    cols = [[1.0] * n]
    for _ in range(k - 1):
        scale = 10.0 ** rng.uniform(-2.0, 2.0)
        cols.append([float(v) for v in scale * rng.standard_normal(n)])
    beta = [float(v) for v in rng.uniform(-3.0, 3.0, size=k)]
    noise = rng.standard_normal(n)
    y = [
        sum(beta[j] * cols[j][t] for j in range(k)) + float(noise[t])
        for t in range(n)
    ]
    return y, cols
