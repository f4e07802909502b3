"""In-memory span recorder with self-time accounting.

A span is one timed call at a layer boundary: its name, start and end on
the ``time.perf_counter_ns`` clock, the span that was open when it started
(its parent) and the operation it belongs to.  Spans stay in memory while
the run is measured and are written out as JSON lines when it ends, so
the recorder adds no I/O to the timed calls.

The module depends on the standard library only.  A program-side
``--trace FILE`` can adopt :class:`SpanRecorder` unchanged, which leaves one
stage timer for both the program and this benchmark.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

__all__ = ["Span", "SpanRecorder", "self_times"]


@dataclass(slots=True)
class Span:
    """One timed call; ``end_ns`` is 0 while the span is still open."""

    id: int
    name: str
    start_ns: int
    parent: int | None
    op: int | None
    end_ns: int = 0
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns

    def to_json(self) -> str:
        return json.dumps({
            "op": self.op, "id": self.id, "parent": self.parent,
            "name": self.name, "start_ns": self.start_ns,
            "end_ns": self.end_ns, "attrs": self.attrs,
        })


class SpanRecorder:
    """Records nested spans of one single-threaded run.

    Call :meth:`begin_op` before each operation so its spans share an
    identifier.  Spans must close in the reverse order they opened, which
    holds for calls wrapped in ``try``/``finally``.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self.ops = 0
        self._open: list[int] = []

    def begin_op(self) -> int:
        self.op = self.ops
        self.ops += 1
        return self.op

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(sid, name, time.perf_counter_ns(), parent, self.op))
        self._open.append(sid)
        return sid

    def close(self, sid: int, attrs: dict[str, Any] | None = None) -> None:
        end = time.perf_counter_ns()
        if not self._open or self._open[-1] != sid:
            raise RuntimeError(f"span {sid} closed out of order")
        self._open.pop()
        span = self.spans[sid]
        span.end_ns = end
        if attrs:
            span.attrs.update(attrs)

    def by_op(self) -> dict[int | None, list[Span]]:
        out: dict[int | None, list[Span]] = {}
        for span in self.spans:
            out.setdefault(span.op, []).append(span)
        return out

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(span.to_json() + "\n")


def self_times(spans: Iterable[Span]) -> dict[int, int]:
    """Self time of each span: its duration minus its children's durations.

    Children of one parent never overlap in a single-threaded run, so the
    part of the parent covered by children is the sum of their durations.
    """
    spans = list(spans)
    own = {span.id: span.duration_ns for span in spans}
    for span in spans:
        if span.parent is not None and span.parent in own:
            own[span.parent] -= span.duration_ns
    return own
