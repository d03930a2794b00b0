"""Global observability state and the hot-path entry points.

The whole package reports through three module-level globals — the
``enabled`` flag, the active :class:`~repro.obs.registry.MetricsRegistry`
and the active :class:`~repro.obs.tracing.Tracer` — so instrumented code
pays a single module-attribute read when observability is off:

    from ..obs import runtime as _obs
    ...
    if _obs.enabled:
        _obs.registry.inc("core.calibration.cache_hits")

``span()``/``timer()`` follow the same discipline: the disabled path
checks the flag and returns one shared no-op context manager before any
allocation happens, so instrumenting a hot loop costs a branch, not an
object.

State is process-global and single-threaded by design (the simulation
and experiments are synchronous); :func:`activate` scopes enablement to
a ``with`` block and restores the previous state on exit, which is how
the experiment runners capture timings without permanently flipping the
global switch.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, NamedTuple, Optional

from .registry import MetricsRegistry
from .tracing import Tracer

__all__ = [
    "enabled",
    "registry",
    "tracer",
    "span_sink",
    "scraper",
    "flight_recorder",
    "is_enabled",
    "get_registry",
    "get_tracer",
    "enable",
    "disable",
    "activate",
    "span",
    "timer",
    "span_event",
    "ObsSession",
]

#: Master switch — instrumented modules check this before any other work.
enabled: bool = False

#: The active registry every metric lands in.
registry: MetricsRegistry = MetricsRegistry()

#: The active tracer every finished span lands in.
tracer: Tracer = Tracer()

#: The active span sink (a :class:`~repro.obs.context.SpanLog`), installed
#: by ``obs.tracing_session`` — ``None`` otherwise.  Only spans that carry
#: a trace context are written, so the sink never sees untraced noise.
#: Deliberately untyped to avoid importing context machinery here.
span_sink = None

#: The active :class:`~repro.obs.tsdb.MetricsScraper` — ``None`` unless a
#: runner installed one.  Serving loops call ``maybe_scrape()`` on it to
#: drive the wall-anchored cadence without a background thread.
scraper = None

#: The active :class:`~repro.obs.flightrec.FlightRecorder` — ``None``
#: unless installed (``obs.flight_recording``).  Traced span exits, the
#: resilience emit funnel, and opted-in event logs feed its rings.
flight_recorder = None


class ObsSession(NamedTuple):
    """The registry/tracer pair an :func:`activate` block writes into."""

    registry: MetricsRegistry
    tracer: Tracer


def is_enabled() -> bool:
    """Is observability currently collecting?"""
    return enabled


def get_registry() -> MetricsRegistry:
    """The currently active metrics registry."""
    return registry


def get_tracer() -> Tracer:
    """The currently active tracer."""
    return tracer


def enable(
    new_registry: Optional[MetricsRegistry] = None,
    new_tracer: Optional[Tracer] = None,
) -> ObsSession:
    """Turn collection on, optionally swapping in fresh sinks."""
    global enabled, registry, tracer
    if new_registry is not None:
        registry = new_registry
    if new_tracer is not None:
        tracer = new_tracer
    enabled = True
    return ObsSession(registry, tracer)


def disable() -> None:
    """Turn collection off (sinks keep their contents)."""
    global enabled
    enabled = False


@contextmanager
def activate(
    new_registry: Optional[MetricsRegistry] = None,
    new_tracer: Optional[Tracer] = None,
) -> Iterator[ObsSession]:
    """Collect within a ``with`` block, restoring prior state after.

    Fresh sinks are created unless explicitly passed, so a scoped
    capture never mixes its numbers into the ambient registry.
    """
    global enabled, registry, tracer
    saved = (enabled, registry, tracer)
    session = enable(
        new_registry if new_registry is not None else MetricsRegistry(),
        new_tracer if new_tracer is not None else Tracer(),
    )
    try:
        yield session
    finally:
        enabled, registry, tracer = saved


class _NoopSpan:
    """Shared do-nothing context manager returned when collection is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NOOP = _NoopSpan()


class _LiveSpan:
    """An open span; optionally doubles as a histogram timer.

    When a :class:`~repro.obs.context.TraceContext` is attached to the
    calling flow, the span runs under a fresh *child* context (stamped
    onto its record and visible to nested spans and resilience events);
    with no ambient context, no trace identity is minted — keeping the
    common untraced path free of uuid cost.
    """

    __slots__ = ("_name", "_labels", "_observe", "_token")

    def __init__(self, name: str, labels: Dict[str, str], observe: bool):
        self._name = name
        self._labels = labels
        self._observe = observe
        self._token = None

    def __enter__(self) -> "_LiveSpan":
        ctx = _context.current()
        if ctx is not None:
            ctx = _context.child_of(ctx)
            self._token = _context._CURRENT.set(ctx)
        tracer.begin(self._name, self._labels, time.perf_counter(), ctx)
        return self

    def __exit__(self, *exc_info) -> bool:
        record = tracer.finish(time.perf_counter())
        if self._token is not None:
            _context._CURRENT.reset(self._token)
        if self._observe:
            registry.histogram(self._name, **self._labels).observe(record.duration)
        if record.trace_id is not None:
            if span_sink is not None:
                span_sink.write(record)
            if flight_recorder is not None:
                flight_recorder.record_span(_context.span_to_dict(record))
        return False


def span(name: str, **labels: object):
    """A traced region; a shared no-op (no allocation) when disabled."""
    if not enabled:
        return _NOOP
    return _LiveSpan(name, {k: str(v) for k, v in labels.items()}, observe=False)


def timer(name: str, **labels: object):
    """Like :func:`span`, but also records the duration into the
    histogram ``name`` so mean/min/p95 aggregate across calls."""
    if not enabled:
        return _NOOP
    return _LiveSpan(name, {k: str(v) for k, v in labels.items()}, observe=True)


def span_event(name: str, **attrs: object) -> None:
    """Annotate the innermost open span with a timestamped event.

    A no-op when nothing is open or collection is off.
    """
    if enabled:
        tracer.add_event(name, time.perf_counter(), **attrs)


from . import context as _context  # noqa: E402  (cycle: context lazily imports us)
