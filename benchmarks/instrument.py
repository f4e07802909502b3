"""Per-layer tracing of specloss, installed from outside the package.

Each probe names one public function of a specloss module.  Installing
wraps that function at every name that binds it in a loaded ``specloss``
module (``from .ols import fit_arrays`` makes ``specloss.unit_root``
hold its own binding), so a call is timed whichever module makes it.
``TimeSeries.__init__`` is wrapped on the class.  A probe whose function
no longer exists is reported as absent and skipped.

:func:`layer_metrics` turns the recorded spans into the per-layer metrics
of ``BENCHMARK.json``: per-operation call counts, self and inclusive
times, and counts of rows, days and bytes, each the median over the
traced operations.
"""

from __future__ import annotations

import statistics
import sys
from dataclasses import dataclass
from typing import Any, Callable

from spans import Span, SpanRecorder, self_times

__all__ = ["Instrumentation", "install", "layer_metrics"]

AttrFn = Callable[[tuple, dict, Any], dict]


def _size(obj) -> int:
    try:
        return len(obj)
    except TypeError:
        return 0


def _rows_out(args, kwargs, result) -> dict:
    return {"rows": _size(result)}


def _rows_in(args, kwargs, result) -> dict:
    first = args[0] if args else next(iter(kwargs.values()), None)
    return {"rows": _size(first)}


def _bytes_out(args, kwargs, result) -> dict:
    return {"bytes": len(result.encode("utf-8")) if isinstance(result, str) else 0}


@dataclass(frozen=True)
class Probe:
    span: str        # span name, "<module>.<function>"
    module: str      # defining module
    attr: str        # function name, or "Class.method"
    attrs: AttrFn | None = None


PROBES = (
    Probe("cli.main", "specloss.cli", "main"),
    Probe("dataio.load_market_csv", "specloss.dataio", "load_market_csv", _rows_out),
    Probe("dataio.write_market_csv", "specloss.dataio", "write_market_csv", _rows_in),
    Probe("synth.gen_market_days", "specloss.synth", "gen_market_days", _rows_out),
    Probe("market.u_series", "specloss.market", "u_series"),
    Probe("market.constancy_check", "specloss.market", "constancy_check"),
    Probe("market.break_analysis", "specloss.market", "break_analysis"),
    Probe("market.coverage_ratios", "specloss.market", "coverage_ratios"),
    Probe("series.timeseries", "specloss.series", "TimeSeries.__init__"),
    Probe("series.align", "specloss.series", "align"),
    Probe("series.diff", "specloss.series", "diff"),
    Probe("ols.fit_arrays", "specloss.ols", "fit_arrays", _rows_in),
    Probe("special.student_t_sf", "specloss.special", "student_t_sf"),
    Probe("special.f_sf", "specloss.special", "f_sf"),
    Probe("unit_root.select_lag", "specloss.unit_root", "select_lag"),
    Probe("unit_root.adf_test", "specloss.unit_root", "adf_test"),
    Probe("cointegration.engle_granger", "specloss.cointegration", "engle_granger"),
    Probe("report.render_analysis_text", "specloss.report", "render_analysis_text", _bytes_out),
    Probe("report.render_analysis_csv", "specloss.report", "render_analysis_csv", _bytes_out),
)


def _wrap(fn: Callable, name: str, recorder: SpanRecorder, attrs: AttrFn | None) -> Callable:
    def traced(*args, **kwargs):
        sid = recorder.open(name)
        extra = None
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                extra = attrs(args, kwargs, result)
            return result
        finally:
            recorder.close(sid, extra)

    return traced


class Instrumentation:
    """Installed wrappers; :meth:`restore` puts the original bindings back."""

    def __init__(self) -> None:
        self.absent: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)


def install(recorder: SpanRecorder) -> Instrumentation:
    """Wrap every probe's function at each of its bindings."""
    inst = Instrumentation()
    modules = [mod for key, mod in list(sys.modules.items())
               if key == "specloss" or key.startswith("specloss.")]
    for probe in PROBES:
        owner = sys.modules.get(probe.module)
        *cls_path, attr = probe.attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        fn = owner.__dict__.get(attr) if owner is not None else None
        if not callable(fn):
            inst.absent.append(probe.span)
            continue
        wrapper = _wrap(fn, probe.span, recorder, probe.attrs)
        if cls_path:
            inst._set(owner, attr, wrapper)
            continue
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is fn:
                    inst._set(mod, name, wrapper)
    return inst


# Per-operation sums keyed "<span name>.<calls|total|self|attribute>".
_Totals = dict[str, float]


def _ms(*keys: str) -> Callable[[_Totals], float]:
    return lambda t: sum(t.get(key, 0.0) for key in keys) / 1e6


def _n(*keys: str) -> Callable[[_Totals], float]:
    return lambda t: sum(t.get(key, 0) for key in keys)


def _useful_ratio(t: _Totals) -> float:
    fits = t.get("ols.fit_arrays.calls", 0)
    return 1.0 - t.get("candidate_fits", 0) / fits if fits else 0.0


LAYER_METRICS: tuple[tuple[str, str, Callable[[_Totals], float]], ...] = (
    ("cli.main.self_ms", "ms", _ms("cli.main.self")),
    ("dataio.load_market_csv.ms", "ms", _ms("dataio.load_market_csv.total")),
    ("dataio.write_market_csv.ms", "ms", _ms("dataio.write_market_csv.total")),
    ("dataio.rows_read", "count", _n("dataio.load_market_csv.rows")),
    ("dataio.rows_written", "count", _n("dataio.write_market_csv.rows")),
    ("synth.gen_market_days.ms", "ms", _ms("synth.gen_market_days.total")),
    ("synth.days_generated", "count", _n("synth.gen_market_days.rows")),
    ("market.u_series.ms", "ms", _ms("market.u_series.total")),
    ("market.first_approach.ms", "ms", _ms("market.constancy_check.total",
                                           "market.break_analysis.total",
                                           "market.coverage_ratios.total")),
    ("series.timeseries.calls", "count", _n("series.timeseries.calls")),
    ("series.timeseries.self_ms", "ms", _ms("series.timeseries.self")),
    ("series.align.ms", "ms", _ms("series.align.total")),
    ("series.diff.ms", "ms", _ms("series.diff.total")),
    ("ols.fit_arrays.calls", "count", _n("ols.fit_arrays.calls")),
    ("ols.fit_arrays.self_ms", "ms", _ms("ols.fit_arrays.self")),
    ("ols.rows_fitted", "count", _n("ols.fit_arrays.rows")),
    ("special.student_t_sf.calls", "count", _n("special.student_t_sf.calls")),
    ("special.f_sf.calls", "count", _n("special.f_sf.calls")),
    ("special.tails.self_ms", "ms", _ms("special.student_t_sf.self", "special.f_sf.self")),
    ("unit_root.select_lag.calls", "count", _n("unit_root.select_lag.calls")),
    ("unit_root.select_lag.self_ms", "ms", _ms("unit_root.select_lag.self")),
    ("unit_root.adf_test.calls", "count", _n("unit_root.adf_test.calls")),
    ("unit_root.adf_test.self_ms", "ms", _ms("unit_root.adf_test.self")),
    ("unit_root.candidate_fits", "count", _n("candidate_fits")),
    ("unit_root.useful_fit_ratio", "ratio", _useful_ratio),
    ("cointegration.engle_granger.calls", "count", _n("cointegration.engle_granger.calls")),
    ("cointegration.engle_granger.self_ms", "ms", _ms("cointegration.engle_granger.self")),
    ("report.render.ms", "ms", _ms("report.render_analysis_text.total",
                                   "report.render_analysis_csv.total")),
    ("report.bytes", "bytes", _n("report.render_analysis_text.bytes",
                                 "report.render_analysis_csv.bytes")),
    ("trace.self_sum_ms", "ms", _ms("self_sum")),
)


def op_totals(spans: list[Span]) -> _Totals:
    """Per-operation sums by span name: calls, total, self and attributes.

    ``candidate_fits`` counts ``fit_arrays`` calls made inside
    ``select_lag``, whose results only rank lags and never reach the
    report; ``self_sum`` adds the self time of every span.
    """
    own = self_times(spans)
    by_id = {span.id: span for span in spans}
    totals: _Totals = {"candidate_fits": 0, "self_sum": float(sum(own.values()))}
    for span in spans:
        for key, value in (("calls", 1), ("total", span.duration_ns), ("self", own[span.id])):
            totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
        for key, value in span.attrs.items():
            totals[f"{span.name}.{key}"] = totals.get(f"{span.name}.{key}", 0) + value
        if span.name == "ols.fit_arrays":
            parent = span.parent
            while parent is not None and parent in by_id:
                if by_id[parent].name == "unit_root.select_lag":
                    totals["candidate_fits"] += 1
                    break
                parent = by_id[parent].parent
    return totals


def layer_metrics(recorder: SpanRecorder) -> dict[str, tuple[float, str]]:
    """Each per-layer metric as (median over traced operations, unit)."""
    per_op = [op_totals(spans) for op, spans in recorder.by_op().items() if op is not None]
    return {
        name: (statistics.median(fn(t) for t in per_op), unit)
        for name, unit, fn in LAYER_METRICS
    }
