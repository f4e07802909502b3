"""Command-line entry points.

Subcommands expose the pipeline stages: ``analyze`` runs the full
six-variable stationarity/cointegration report
(:func:`specloss.pipeline.build_analysis`), ``adf``/``ols``/``coint``
run one stage on CSV columns, passing the series straight to its function,
and ``synth`` writes the dataset that
:func:`specloss.synth.gen_market_days` makes from the flags given.
Every flag can also come from a ``--config`` key=value file; ``main``
merges it into the parsed flags once, before the subcommand runs.

Exit codes: 0 success, 1 data or validation error, 2 numerical failure
(singular design matrix), 3 usage error.
"""

from __future__ import annotations

import argparse
import datetime
import functools
import sys
from typing import Any, Sequence

from .cointegration import engle_granger
from .dataio import (
    _parse_date,
    load_market_csv,
    load_series_csv,
    parse_config_file,
    write_market_csv,
)
from .errors import CsvParseError, InvalidArgumentError, SingularMatrixError, SpeclossError
from .ols import fit
from .pipeline import build_analysis
from .report import (
    render_adf_block,
    render_analysis_csv,
    render_analysis_text,
    render_regression,
)
from .series import TimeSeries
from .synth import gen_market_days
from .unit_root import adf_test

__all__ = ["main"]

EXIT_OK = 0
EXIT_DATA = 1
EXIT_NUMERIC = 2
EXIT_USAGE = 3


class _UsageError(Exception):
    """Bad flag combination discovered after config merging."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage problems exit with code 3
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _iso_date(text: str) -> datetime.date:
    """``dataio._parse_date`` as an argparse type, so a bad flag prints its reason."""
    try:
        return _parse_date(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(exc) from None


def _merge_config(args: argparse.Namespace) -> None:
    """Set each ``--config`` value on ``args`` where its flag was not given.

    A key that is not a long flag of the subcommand is a usage error.  A
    value goes through its flag's own argparse ``type`` and must be one of
    its ``choices``, if it has them, so a bad value is reported before the
    subcommand checks or reads anything.
    """
    config_map = {} if args.config is None else parse_config_file(args.config)
    unknown = sorted(set(config_map) - set(args.config_keys))
    if unknown:
        raise _UsageError(f"unknown config key(s) for {args.command}: {', '.join(unknown)}")
    for key, text in config_map.items():
        dest, convert, choices = args.config_keys[key]
        if getattr(args, dest) is not None:  # flags win
            continue
        try:
            value = convert(text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise InvalidArgumentError(f"config key {key!r}: {exc}") from None
        if choices is not None and value not in choices:
            raise InvalidArgumentError(
                f"config key {key!r}: invalid choice: {value!r} "
                f"(choose from {', '.join(map(repr, choices))})"
            )
        setattr(args, dest, value)


def _required(value: Any, flag: str) -> Any:
    """``value``, which must have come from the command line or the config file."""
    if value is None:
        raise _UsageError(f"--{flag} is required")
    return value


def _given(**values: Any) -> dict[str, Any]:
    """``values`` without the None ones, so the callee's own default applies to those."""
    return {name: value for name, value in values.items() if value is not None}


def _require_series(series: Sequence[TimeSeries], name: str) -> TimeSeries:
    for s in series:
        if s.name == name:
            return s
    available = ", ".join(s.name for s in series)
    raise InvalidArgumentError(f"no column {name!r} in input (have: {available})")


def cmd_analyze(args: argparse.Namespace) -> int:
    if (args.input is None) == (args.synth_seed is None):
        raise _UsageError("exactly one of --input and --synth-seed is required")
    if args.input is not None:
        days = load_market_csv(args.input)
    else:
        days = gen_market_days(seed=args.synth_seed)
    report = build_analysis(days, **_given(max_lag=args.maxlag, break_date=args.break_date))
    render = render_analysis_csv if args.format == "csv" else render_analysis_text
    sys.stdout.write(render(report))
    return EXIT_OK


def cmd_adf(args: argparse.Namespace) -> int:
    input_path = _required(args.input, "input")
    column = _required(args.column, "column")
    series = _require_series(load_series_csv(input_path), column)
    result = adf_test(series, **_given(max_lag=args.maxlag))
    lines = render_adf_block(result)
    lines += ["", f"Verdict: {result.verdict.value}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _regression_spec_from_args(args: argparse.Namespace) -> tuple[TimeSeries, tuple[TimeSeries, ...]]:
    """The ``--dep`` series and the ``--regressors`` series, read from ``--input``."""
    input_path = _required(args.input, "input")
    dep_name = _required(args.dep, "dep")
    regs_text = _required(args.regressors, "regressors")
    names = [name.strip() for name in regs_text.split(",") if name.strip()]
    if not names:
        raise _UsageError("--regressors must list at least one column")
    series = load_series_csv(input_path)
    return (_require_series(series, dep_name),
            tuple(_require_series(series, name) for name in names))


def cmd_ols(args: argparse.Namespace) -> int:
    result = fit(*_regression_spec_from_args(args))
    sys.stdout.write("\n".join(render_regression(result)) + "\n")
    return EXIT_OK


def cmd_coint(args: argparse.Namespace) -> int:
    result = engle_granger(*_regression_spec_from_args(args), **_given(max_lag=args.maxlag))
    lines = render_regression(result.stage1)
    lines += ["", "ADF test results for residuals:", ""]
    lines += render_adf_block(result.residual_test,
                              dm_critical=result.critical_values_dm)
    lines += ["", f"Verdict: {result.verdict.value}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    out_path = _required(args.out, "out")
    days = gen_market_days(**_given(
        seed=args.seed, n_days=args.days, noise_scale=args.noise_scale,
        break_factor=args.break_factor, break_index=args.break_index,
    ))
    write_market_csv(days, out_path)
    sys.stdout.write(f"wrote {len(days)} days to {out_path}\n")
    return EXIT_OK


@functools.cache
def build_parser() -> _Parser:
    """The parser, built once per process for every ``main`` call; do not modify it."""
    parser = _Parser(
        prog="specloss",
        description="Speculative-loss time-series analysis "
                    "(mean daily loss per stock, unit roots, cointegration).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config", help="key=value config file; flags win")

    p = sub.add_parser("analyze", help="full six-variable pipeline report")
    common(p)
    p.add_argument("--input", help="market CSV (date,i_mrub,r_pct,u_big_vol,u_big_dep[,mean_price_rub])")
    p.add_argument("--synth-seed", type=int, help="generate data with this seed instead of reading a file")
    p.add_argument("--break-date", type=_iso_date, help="first-approach break date (default 2012-05-10)")
    p.add_argument("--maxlag", type=int, help="ADF maximum lag (default 5)")
    p.add_argument("--format", choices=("text", "csv"), help="output format (default text)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("adf", help="ADF unit-root test on one CSV column")
    common(p)
    p.add_argument("--input", help="series CSV (date plus named columns)")
    p.add_argument("--column", help="column to test")
    p.add_argument("--maxlag", type=int, help="ADF maximum lag (default 5)")
    p.set_defaults(func=cmd_adf)

    p = sub.add_parser("ols", help="least-squares regression on CSV columns")
    common(p)
    p.add_argument("--input", help="series CSV (date plus named columns)")
    p.add_argument("--dep", help="dependent column")
    p.add_argument("--regressors", help="comma-separated regressor columns")
    p.set_defaults(func=cmd_ols)

    p = sub.add_parser("coint", help="Engle-Granger cointegration test")
    common(p)
    p.add_argument("--input", help="series CSV (date plus named columns)")
    p.add_argument("--dep", help="dependent column")
    p.add_argument("--regressors", help="comma-separated regressor columns")
    p.add_argument("--maxlag", type=int, help="residual ADF maximum lag (default 5)")
    p.set_defaults(func=cmd_coint)

    p = sub.add_parser("synth", help="write a generated market CSV")
    common(p)
    p.add_argument("--seed", type=int, help="generator seed (default 0)")
    p.add_argument("--days", type=int, help="number of trading days (default 255)")
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--noise-scale", type=float, help="stationary-noise multiplier (default 1.0)")
    p.add_argument("--break-factor", type=float, help="multiply I from break-index on (default 1.0)")
    p.add_argument("--break-index", type=int, help="index of the I step change (default mid-sample)")
    p.set_defaults(func=cmd_synth)
    for p in sub.choices.values():  # a config file may set any long flag but --config
        keys = {opt[2:]: (action.dest, action.type or str, action.choices)
                for action in p._actions for opt in action.option_strings
                if opt.startswith("--")}
        del keys["config"], keys["help"]
        p.set_defaults(config_keys=keys)  # each allowed key with its flag's dest, type, choices
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularMatrixError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SpeclossError, OSError) as exc:
        line = exc.line if isinstance(exc, CsvParseError) else None
        where = "" if line is None else f"line {line}: "
        print(f"{parser.prog}: error: {where}{exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
