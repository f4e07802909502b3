"""Independent checks of specloss outputs.

Nothing here imports specloss.  Every expected value is computed again
from the raw market CSV with numpy and scipy: u for both U variants, the
first-approach means, the stage-1 regressions through ``numpy.linalg.lstsq``,
the t and F tails through ``scipy.stats``, and each ADF row through a
Schwarz lag search refitted with ``lstsq``.  The generator check rebuilds
the ``I`` column from a plain-Python FNV-1a, splitmix64 and Box-Muller
reference that uses ``math.log``, ``math.cos`` and ``math.sin``.

Each check returns a list of problems; an empty list means the output
passed.
"""

from __future__ import annotations

import csv
import datetime
import io
import math

import numpy as np
from scipy import stats

__all__ = ["check_analysis", "check_synth_file", "invest_reference"]

# Rounding differences between the program's Householder QR and LAPACK's
# SVD-based lstsq stay near 1e-12 relative on these designs; a real fault
# moves results by many orders of magnitude more.
RTOL = 1e-9
# The program's continued-fraction tails agree with scipy to about 1e-12 at
# 250 degrees of freedom but only to about 1e-10 at 25,000.
RTOL_TAIL = 1e-8
# u and the first-approach means need only a different operation order.
RTOL_U = 1e-12
# Schwarz values closer than this are a tie that rounding may break
# either way, so either lag is accepted.
SIC_TIE = 1e-9

MARKET_HEADER = ["date", "i_mrub", "r_pct", "u_big_vol", "u_big_dep", "mean_price_rub"]


def _close(got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
    if math.isnan(got) or math.isnan(want):
        return math.isnan(got) and math.isnan(want)
    return abs(got - want) <= atol + rtol * max(abs(got), abs(want))


def read_market_columns(path: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """ISO date strings and float columns of a market CSV with prices."""
    with open(path, newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    if rows[0] != MARKET_HEADER:
        raise ValueError(f"{path}: unexpected header {rows[0]}")
    body = [row for row in rows[1:] if row]
    dates = [row[0] for row in body]
    cols = {
        name: np.array([float(row[i]) for row in body])
        for i, name in enumerate(MARKET_HEADER) if i > 0
    }
    return dates, cols


def parse_report_csv(text: str) -> dict[str, dict[str, str]]:
    out: dict[str, dict[str, str]] = {}
    reader = csv.reader(io.StringIO(text))
    if next(reader) != ["table", "field", "value"]:
        raise ValueError("report CSV lacks its table,field,value header")
    for table, field, value in reader:
        out.setdefault(table, {})[field] = value
    return out


def _lstsq(y: np.ndarray, x: np.ndarray) -> dict[str, np.ndarray | float]:
    """OLS through numpy.linalg.lstsq on a column-scaled design."""
    norms = np.sqrt((x * x).sum(axis=0))
    beta_s, *_ = np.linalg.lstsq(x / norms, y, rcond=None)
    beta = beta_s / norms
    resid = y - x @ beta
    n, k = x.shape
    ssr = float(resid @ resid)
    # diag((X'X)^-1) from the triangular factor, which keeps the
    # conditioning of X rather than squaring it.
    rinv = np.linalg.inv(np.linalg.qr(x / norms, mode="r"))
    se = np.sqrt(ssr / (n - k) * (rinv * rinv).sum(axis=1)) / norms
    dev = y - y.mean()
    r2 = 1.0 - ssr / float(dev @ dev)
    return {"beta": beta, "se": se, "resid": resid, "ssr": ssr, "r2": r2,
            "n": n, "k": k}


def _adf_design(y: np.ndarray, lag: int, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows t = start..N-1 of dy_t on [1, y_{t-1}, dy_{t-1}..dy_{t-lag}]."""
    n = y.shape[0]
    dy = np.diff(y)
    cols = [np.ones(n - start), y[start - 1:n - 1]]
    cols += [dy[start - 1 - i:n - 1 - i] for i in range(1, lag + 1)]
    return dy[start - 1:], np.column_stack(cols)


def adf_reference(y: np.ndarray, max_lag: int) -> tuple[set[int], dict[int, float]]:
    """Schwarz-minimising lags (ties kept) and the ADF t-statistic per lag.

    Candidates share the sample implied by ``max_lag``; each t-statistic
    comes from the refit at that lag on its own longest sample.
    """
    sic = []
    for lag in range(max_lag + 1):
        dep, x = _adf_design(y, lag, max_lag + 1)
        fit = _lstsq(dep, x)
        t = fit["n"]
        loglik = -0.5 * t * (1.0 + math.log(2.0 * math.pi) + math.log(fit["ssr"] / t))
        sic.append((-2.0 * loglik + fit["k"] * math.log(t)) / t)
    best = min(sic)
    lags = {lag for lag, value in enumerate(sic) if value - best <= SIC_TIE}
    tstats = {}
    for lag in lags:
        dep, x = _adf_design(y, lag, lag + 1)
        fit = _lstsq(dep, x)
        tstats[lag] = float(fit["beta"][1] / fit["se"][1])
    return lags, tstats


def _check_adf(table: str, row: dict[str, str], y: np.ndarray, max_lag: int,
               problems: list[str]) -> None:
    lags, tstats = adf_reference(y, max_lag)
    lag = int(row["lag"])
    if lag not in lags:
        problems.append(f"{table}: lag {lag}, Schwarz minimum at {sorted(lags)}")
        return
    t_rep = float(row["t_statistic"])
    if not _close(t_rep, tstats[lag], RTOL):
        problems.append(f"{table}: t_statistic {t_rep!r}, lstsq gives {tstats[lag]!r}")
    if int(row["effective_obs"]) != y.shape[0] - 1 - lag:
        problems.append(f"{table}: effective_obs {row['effective_obs']} for N={y.shape[0]}")
    cv1, cv5, cv10 = (float(row[f"cv_{level}"]) for level in (1, 5, 10))
    if not cv1 < cv5 < cv10 < 0.0:
        problems.append(f"{table}: critical values out of order {cv1}, {cv5}, {cv10}")


def _check_regression(table: str, row: dict[str, str], y: np.ndarray,
                      regressors: dict[str, np.ndarray], problems: list[str]) -> np.ndarray:
    names = ["C"] + list(regressors)
    x = np.column_stack([np.ones(y.shape[0])] + list(regressors.values()))
    fit = _lstsq(y, x)
    n, k = fit["n"], fit["k"]
    for j, name in enumerate(names):
        coef = float(row[f"coef.{name}"])
        want = float(fit["beta"][j])
        # A coefficient is judged on the scale of its standard error, so
        # one estimated near zero is not held to a relative tolerance.
        if abs(coef - want) > RTOL * (abs(want) + fit["se"][j]):
            problems.append(f"{table}: coef.{name} {coef!r}, lstsq gives {want!r}")
        t_rep = float(row[f"tstat.{name}"])
        p_want = float(2.0 * stats.t.sf(abs(t_rep), n - k))
        if not _close(float(row[f"prob.{name}"]), p_want, RTOL_TAIL, 1e-15):
            problems.append(f"{table}: prob.{name} {row[f'prob.{name}']}, scipy gives {p_want!r}")
    for field, want in (("ssr", fit["ssr"]), ("r_squared", fit["r2"])):
        if not _close(float(row[field]), want, RTOL):
            problems.append(f"{table}: {field} {row[field]}, lstsq gives {want!r}")
    e = fit["resid"]
    dw = float(np.diff(e) @ np.diff(e)) / float(e @ e)
    if not _close(float(row["durbin_watson"]), dw, RTOL):
        problems.append(f"{table}: durbin_watson {row['durbin_watson']}, lstsq gives {dw!r}")
    f_rep = float(row["f_statistic"])
    f_want = (fit["r2"] / (k - 1)) / ((1.0 - fit["r2"]) / (n - k))
    if not _close(f_rep, f_want, 1e-6):
        problems.append(f"{table}: f_statistic {f_rep!r}, lstsq gives {f_want!r}")
    p_want = float(stats.f.sf(f_rep, k - 1, n - k))
    if not _close(float(row["f_prob"]), p_want, RTOL_TAIL, 1e-15):
        problems.append(f"{table}: f_prob {row['f_prob']}, scipy gives {p_want!r}")
    return fit["resid"]


def check_analysis(market_path: str, report_csv: str) -> list[str]:
    """Problems in one ``analyze --format csv`` report of a market file."""
    problems: list[str] = []
    dates, c = read_market_columns(market_path)
    report = parse_report_csv(report_csv)
    run = report["run"]
    max_lag = int(run["max_lag"])
    if int(run["n_days"]) != len(dates):
        problems.append(f"run: n_days {run['n_days']}, file has {len(dates)}")
    i, r, uv, ud, price = (c[k] for k in MARKET_HEADER[1:])
    u = {
        "by_volume": i * r * 1e6 / (365.0 * uv),
        "by_deposit": i * r * 1e6 / (365.0 * ud),
    }
    before = np.array([d < run["break_date"] for d in dates])
    for key, series in u.items():
        brk = report[f"break.{key}"]
        for field, want in (("mean_before", float(series[before].mean())),
                            ("mean_after", float(series[~before].mean()))):
            if not _close(float(brk[field]), want, RTOL_U):
                problems.append(f"break.{key}: {field} {brk[field]}, expected {want!r}")
        con = report[f"constancy.{key}"]
        sd = float(series.std(ddof=1))
        threshold = float(price.mean())
        for field, want in (("mean", float(series.mean())), ("stddev", sd),
                            ("threshold", threshold)):
            if not _close(float(con[field]), want, RTOL_U):
                problems.append(f"constancy.{key}: {field} {con[field]}, expected {want!r}")
        if con["passes"] != ("true" if sd < threshold else "false"):
            problems.append(f"constancy.{key}: passes {con['passes']} with sd {sd!r}")
    cov = report["coverage"]
    for field, want in (("stock_utilization", float((uv / ud).mean())),
                        ("money_coverage", float((i * 1e6 / (ud * price)).mean()))):
        if not _close(float(cov[field]), want, RTOL_U):
            problems.append(f"coverage: {field} {cov[field]}, expected {want!r}")

    variables = {"U_SMALL_VOL": u["by_volume"], "U_SMALL_DEP": u["by_deposit"],
                 "I": i, "R": r, "U_BIG_VOL": uv, "U_BIG_DEP": ud}
    for name, y in variables.items():
        level = report[f"adf.{name}.level"]
        _check_adf(f"adf.{name}.level", level, y, max_lag, problems)
        # The ladder tests first differences only when the level test
        # fails to reject at 5%.
        needs_diff = float(level["t_statistic"]) >= float(level["cv_5"])
        if needs_diff != (f"adf.{name}.diff" in report):
            problems.append(f"adf.{name}: first-difference test present={not needs_diff}")
        elif needs_diff:
            _check_adf(f"adf.{name}.diff", report[f"adf.{name}.diff"], np.diff(y),
                       max_lag, problems)
    for key, u_big in (("by_volume", ("U_BIG_VOL", uv)), ("by_deposit", ("U_BIG_DEP", ud))):
        resid = _check_regression(f"ols.{key}", report[f"ols.{key}"], u[key],
                                  dict([u_big, ("R", r), ("I", i)]), problems)
        _check_adf(f"resid.{key}", report[f"resid.{key}"], resid, max_lag, problems)
    return problems


_MASK64 = (1 << 64) - 1


def invest_reference(seed: int, n: int, i0: float = 20000.0, drift: float = 0.0,
                     scale: float = 25.0) -> list[float]:
    """The ``I`` random walk of a generated market, one float per day.

    State: FNV-1a 64 of ``"invest:<seed>"``; steps: splitmix64; uniforms:
    top 53 bits plus half an ulp; normals: Box-Muller pairs, cosine first.
    The walk is reflected at zero.  Defaults are ``SynthConfig``'s.
    """
    state = 0xCBF29CE484222325
    for byte in f"invest:{seed}".encode("utf-8"):
        state = ((state ^ byte) * 0x100000001B3) & _MASK64

    def uniform() -> float:
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        return ((z >> 11) + 0.5) * 2.0**-53

    out = []
    level = i0
    spare = None
    while len(out) < n:
        if spare is None:
            radius = math.sqrt(-2.0 * math.log(uniform()))
            angle = 2.0 * math.pi * uniform()
            z, spare = radius * math.cos(angle), radius * math.sin(angle)
        else:
            z, spare = spare, None
        level = abs(level + drift + scale * z)
        out.append(level)
    return out


def check_synth_file(path: str, seed: int, n_days: int) -> list[str]:
    """Problems in a market CSV written by ``synth --seed S --days N``."""
    problems: list[str] = []
    dates, c = read_market_columns(path)
    if len(dates) != n_days:
        return [f"{path}: {len(dates)} rows, expected {n_days}"]
    day = datetime.date(2012, 1, 3)
    for text in dates:
        if text != day.isoformat():
            problems.append(f"{path}: date {text}, expected trading day {day}")
            break
        day += datetime.timedelta(days=3 if day.weekday() == 4 else 1)
    bad = np.flatnonzero(c["u_big_vol"] > c["u_big_dep"])
    if bad.size:
        problems.append(f"{path}: u_big_vol > u_big_dep on {bad.size} rows, first {dates[bad[0]]}")
    for name, col in c.items():
        if not (np.all(np.isfinite(col)) and np.all(col > 0)):
            problems.append(f"{path}: column {name} has non-positive or non-finite values")
    want = np.array(invest_reference(seed, n_days))
    diff = np.flatnonzero(c["i_mrub"] != want)
    if diff.size:
        k = diff[0]
        problems.append(f"{path}: I differs from the reference generator on {diff.size} "
                        f"rows, first {dates[k]}: {float(c['i_mrub'][k])!r} != {float(want[k])!r}")
    return problems
