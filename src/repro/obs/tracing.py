"""Span records and the tracer that collects them.

A *span* is one timed region of the pipeline — a whole fig-9 sweep, one
calibration, one simulation step.  Spans nest: the tracer maintains a
stack, so every finished :class:`SpanRecord` knows its parent and depth,
and wall-time accounting ("which children explain the root's time?") is
a pure post-processing step over the records.

This module holds only the passive data structures; the live ``span()``
/ ``timer()`` entry points — including the disabled-path fast exit —
live in :mod:`repro.obs.runtime`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

__all__ = ["MAX_SPAN_RECORDS", "SpanRecord", "Tracer"]

#: Finished spans a tracer keeps; older ones are dropped (counted in
#: :attr:`Tracer.dropped`), so a long traced session stays bounded.  A
#: span sink still receives every traced span.
MAX_SPAN_RECORDS = 10_000


@dataclass
class SpanRecord:
    """One finished span: identity, position in the tree, and timing.

    ``span_id``/``parent_id`` are process-local integers assigned by the
    tracer stack; the optional ``trace_*`` hex ids are the *causal*
    identity that survives serialization across process and network
    boundaries (see :mod:`repro.obs.context`).  Spans opened
    outside any trace context leave them ``None`` — the local tree still
    works, it just isn't part of a distributed trace.
    """

    span_id: int
    parent_id: Optional[int]
    name: str
    labels: Dict[str, str]
    start: float
    duration: float
    depth: int = 0
    trace_id: Optional[str] = None
    trace_span_id: Optional[str] = None
    trace_parent_id: Optional[str] = None
    events: List[Dict[str, object]] = field(default_factory=list)

    @property
    def end(self) -> float:
        """``start + duration`` on the perf-counter clock."""
        return self.start + self.duration


@dataclass
class _OpenSpan:
    span_id: int
    parent_id: Optional[int]
    name: str
    labels: Dict[str, str]
    start: float
    depth: int
    trace_id: Optional[str] = None
    trace_span_id: Optional[str] = None
    trace_parent_id: Optional[str] = None
    events: List[Dict[str, object]] = field(default_factory=list)


@dataclass
class Tracer:
    """Collects finished spans (the newest :data:`MAX_SPAN_RECORDS`)
    and tracks the currently-open stack."""

    _records: Deque[SpanRecord] = field(
        default_factory=lambda: deque(maxlen=MAX_SPAN_RECORDS)
    )
    _stack: List[_OpenSpan] = field(default_factory=list)
    _next_id: int = 0
    #: finished spans dropped by the retention cap
    dropped: int = field(default=0, init=False)

    @property
    def finished(self) -> List[SpanRecord]:
        """Retained finished spans, in completion order."""
        return list(self._records)

    def begin(
        self, name: str, labels: Dict[str, str], start: float, ctx=None
    ) -> None:
        """Open a span as a child of whatever is currently innermost.

        ``ctx`` (a :class:`~repro.obs.context.TraceContext`, duck-typed)
        stamps the span with its distributed identity.
        """
        parent = self._stack[-1].span_id if self._stack else None
        self._stack.append(
            _OpenSpan(
                self._next_id,
                parent,
                name,
                labels,
                start,
                len(self._stack),
                trace_id=ctx.trace_id if ctx is not None else None,
                trace_span_id=ctx.span_id if ctx is not None else None,
                trace_parent_id=ctx.parent_span_id if ctx is not None else None,
            )
        )
        self._next_id += 1

    def add_event(self, name: str, time: float, **attrs: object) -> None:
        """Annotate the innermost open span with a timestamped event."""
        if not self._stack:
            return
        event: Dict[str, object] = {"name": name, "time": time}
        event.update({k: str(v) for k, v in attrs.items()})
        self._stack[-1].events.append(event)

    def finish(self, end: float) -> SpanRecord:
        """Close the innermost span and store its record."""
        if not self._stack:
            raise RuntimeError("finish() with no open span")
        open_span = self._stack.pop()
        record = SpanRecord(
            span_id=open_span.span_id,
            parent_id=open_span.parent_id,
            name=open_span.name,
            labels=open_span.labels,
            start=open_span.start,
            duration=end - open_span.start,
            depth=open_span.depth,
            trace_id=open_span.trace_id,
            trace_span_id=open_span.trace_span_id,
            trace_parent_id=open_span.trace_parent_id,
            events=open_span.events,
        )
        records = self._records
        if len(records) == records.maxlen:
            self.dropped += 1
        records.append(record)
        return record

    def reset(self) -> None:
        """Drop all records and abandon any open spans."""
        self._records.clear()
        self._stack.clear()
        self._next_id = 0
        self.dropped = 0

    # -- tree queries --------------------------------------------------- #

    def find(self, name: str) -> List[SpanRecord]:
        """All finished spans with the given name."""
        return [r for r in self._records if r.name == name]

    def children(self, record: SpanRecord) -> List[SpanRecord]:
        """Direct children of ``record`` among the finished spans."""
        return [r for r in self._records if r.parent_id == record.span_id]

    def roots(self) -> List[SpanRecord]:
        """Finished spans with no parent."""
        return [r for r in self._records if r.parent_id is None]

    def total_time(self, name: str) -> float:
        """Summed duration of every finished span with ``name``."""
        return sum(r.duration for r in self._records if r.name == name)

    def coverage(self, record: SpanRecord) -> float:
        """Fraction of ``record``'s duration explained by direct children.

        The acceptance metric for "no large untraced gaps": 1.0 means
        the children tile the parent exactly.
        """
        if record.duration <= 0.0:
            return 1.0
        return sum(c.duration for c in self.children(record)) / record.duration
