"""Command-line entry points.

Subcommands expose the pipeline stages: ``analyze`` runs the full
six-variable stationarity/cointegration report
(:func:`specloss.pipeline.build_analysis`), ``adf``/``ols``/``coint``
run one stage on CSV columns, and ``synth`` writes a generated dataset.
Every flag can also come from a ``--config`` key=value file; flags win,
and a key that is not a long flag of the subcommand is a usage error.

Exit codes: 0 success, 1 data or validation error, 2 numerical failure
(singular design matrix), 3 usage error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Any, Sequence

from .cointegration import engle_granger
from .dataio import (
    RunConfig,
    _parse_date,
    load_series_csv,
    parse_config_file,
    write_market_csv,
)
from .errors import InvalidArgumentError, SingularMatrixError, SpeclossError
from .ols import RegressionSpec, fit
from .pipeline import build_analysis
from .report import (
    render_adf_block,
    render_analysis_csv,
    render_analysis_text,
    render_regression,
)
from .series import TimeSeries
from .synth import SynthConfig, gen_market_days
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


def _resolve(args: argparse.Namespace, key: str) -> Any:
    """Flag value if given, else config-file value, else None.

    A config-file value goes through the flag's own argparse ``type``.
    """
    value = getattr(args, key.replace("-", "_"))
    if value is not None:
        return value
    config_map = args.config_map
    if key in config_map:
        try:
            return args.config_keys[key](config_map[key])
        except ValueError as exc:
            raise InvalidArgumentError(f"config key {key!r}: {exc}") from None
    return None


def _required(args: argparse.Namespace, key: str) -> str:
    """A string flag that must come from the command line or the config file."""
    value = _resolve(args, key)
    if value is None:
        raise _UsageError(f"--{key} is required")
    return value


def _given(args: argparse.Namespace, **flags: str) -> dict[str, Any]:
    """Keyword arguments ``field=value`` for the optional flags that were given.

    ``flags`` maps a config field to its flag.  A flag given neither on the
    command line nor in the config file is left out, so the config class's
    own default applies.
    """
    values = {name: _resolve(args, key) for name, key in flags.items()}
    return {name: value for name, value in values.items() if value is not None}


def _require_series(series: Sequence[TimeSeries], name: str) -> TimeSeries:
    for s in series:
        if s.name == name:
            return s
    available = ", ".join(s.name for s in series)
    raise InvalidArgumentError(f"no column {name!r} in input (have: {available})")


def cmd_analyze(args: argparse.Namespace) -> int:
    input_path = _resolve(args, "input")
    synth_seed = _resolve(args, "synth-seed")
    if (input_path is None) == (synth_seed is None):
        raise _UsageError("exactly one of --input and --synth-seed is required")
    config = RunConfig(
        input_path=input_path,
        synth_seed=synth_seed,
        **_given(args, i_scale="i-scale", r_scale="r-scale",
                 break_date="break-date", max_lag="maxlag", output_format="format"),
    )
    report = build_analysis(config)
    if config.output_format == "csv":
        sys.stdout.write(render_analysis_csv(report))
    else:
        sys.stdout.write(render_analysis_text(report))
    return EXIT_OK


def cmd_adf(args: argparse.Namespace) -> int:
    input_path = _required(args, "input")
    column = _required(args, "column")
    series = _require_series(load_series_csv(input_path), column)
    result = adf_test(series, **_given(args, max_lag="maxlag"))
    lines = render_adf_block(result)
    lines += ["", f"Verdict: {result.verdict.value}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _regression_spec_from_args(args: argparse.Namespace) -> RegressionSpec:
    input_path = _required(args, "input")
    dep_name = _required(args, "dep")
    regs_text = _required(args, "regressors")
    names = [name.strip() for name in regs_text.split(",") if name.strip()]
    if not names:
        raise _UsageError("--regressors must list at least one column")
    series = load_series_csv(input_path)
    return RegressionSpec(
        dependent=_require_series(series, dep_name),
        regressors=tuple(_require_series(series, name) for name in names),
    )


def cmd_ols(args: argparse.Namespace) -> int:
    result = fit(_regression_spec_from_args(args))
    sys.stdout.write("\n".join(render_regression(result)) + "\n")
    return EXIT_OK


def cmd_coint(args: argparse.Namespace) -> int:
    spec = _regression_spec_from_args(args)
    result = engle_granger(spec, **_given(args, max_lag="maxlag"))
    lines = render_regression(result.stage1)
    lines += ["", "ADF test results for residuals:", ""]
    lines += render_adf_block(result.residual_test,
                              dm_critical=result.critical_values_dm)
    lines += ["", f"Verdict: {result.verdict.value}"]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    out_path = _required(args, "out")
    config = SynthConfig(**_given(
        args, seed="seed", n_days="days", noise_scale="noise-scale",
        break_factor="break-factor", break_index="break-index",
    ))
    days = gen_market_days(config)
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
    p.add_argument("--break-date", type=_parse_date, help="first-approach break date (default 2012-05-10)")
    p.add_argument("--maxlag", type=int, help="ADF maximum lag (default 5)")
    p.add_argument("--format", choices=("text", "csv"), help="output format (default text)")
    p.add_argument("--i-scale", type=float, help="unit multiplier applied to I on load")
    p.add_argument("--r-scale", type=float, help="unit multiplier applied to R on load")
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
        keys = {opt[2:]: action.type or str for action in p._actions
                for opt in action.option_strings if opt.startswith("--")}
        del keys["config"], keys["help"]
        p.set_defaults(config_keys=keys)  # each allowed key with its flag's type
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_map = parse_config_file(args.config) if args.config else {}
        unknown = sorted(set(args.config_map) - set(args.config_keys))
        if unknown:
            raise _UsageError(
                f"unknown config key(s) for {args.command}: {', '.join(unknown)}"
            )
        return args.func(args)
    except _UsageError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SingularMatrixError as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (SpeclossError, OSError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
