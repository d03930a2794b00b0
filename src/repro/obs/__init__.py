"""repro.obs — metrics, tracing, and structured events for the pipeline.

One unified observability layer for the two-phase trust pipeline:

* **Metrics** — a process-local :class:`MetricsRegistry` of counters,
  gauges, and streaming histograms (p50/p95/p99 without storing
  samples), addressed by dotted name + labels;
* **Tracing** — :func:`span`/:func:`timer` context managers that nest
  and cost one branch (no allocation) when collection is disabled;
* **Events** — an append-only :class:`EventLog` with a JSONL sink and
  seeded-run metadata (seed, config hash, git revision);
* **Node attribution** — work wrapped in :func:`node_scope` stamps a
  ``node`` label on its metrics and events, so one run's event log,
  read through ``repro obs report``, shows every P2P and cluster node;
* **Exporters** — the aligned text rendering, span trees, and the
  ``BENCH_*.json`` benchmark-artifact format.

Collection is **off by default**; the instrumented hot paths in
``core``/``stats``/``simulation``/``p2p`` check one module-level flag
before doing anything.  Enable it globally with :func:`enable`, or for
one block with::

    from repro import obs

    with obs.activate() as session:
        assessor.assess(history)
    print(obs.render_text(session.registry))

See ``docs/OBSERVABILITY.md`` for the metric-name catalogue and label
conventions.
"""

from __future__ import annotations

import logging

from .audit import (
    AUDIT_SCHEMA_VERSION,
    AuditTrail,
    audit_session,
    disable_audit,
    enable_audit,
    explain_server,
    read_audit_jsonl,
    render_audit_summary,
    summarize_records,
    validate_audit_record,
)
from .bench import (
    BENCH_SCHEMA_VERSION,
    bench_payload,
    compare_bench_payloads,
    read_bench_json,
    render_bench_diff,
    validate_bench_payload,
    write_bench_json,
)
from .context import (
    SpanLog,
    TraceContext,
    child_of,
    current,
    new_root,
    read_span_jsonl,
    span_to_dict,
    tracing_session,
    use,
    wall_clock_of,
)
from .events import (
    EventLog,
    config_fingerprint,
    git_revision,
    read_events,
    run_metadata,
)
from .export import render_text, render_trace_tree, trace_ids
from .registry import Counter, Gauge, MetricSample, MetricsRegistry, StreamingHistogram
from .scope import current_node, node_scope
from .report import (
    artifact_kind,
    phase_table,
    render_artifact,
    render_bench,
    render_event_log,
    render_phase_table,
    validate_artifact,
)
from .runtime import (
    ObsSession,
    activate,
    disable,
    enable,
    get_registry,
    get_tracer,
    is_enabled,
    span,
    span_event,
    timer,
)
from .tracing import SpanRecord, Tracer

# Library logging etiquette: the package never configures the root
# logger; a NullHandler keeps "no handler" warnings away from users who
# have not opted into logging output.
logging.getLogger(__name__).addHandler(logging.NullHandler())


def configure_logging(level: str = "INFO", logger_name: str = "repro") -> None:
    """Opt the ``repro`` logger hierarchy into stderr output at ``level``.

    Used by the CLIs' ``--log-level`` flag; attaches a stream handler
    only once, so repeated calls just adjust the level.
    """
    logger = logging.getLogger(logger_name)
    numeric = getattr(logging, str(level).upper(), None)
    if not isinstance(numeric, int):
        raise ValueError(f"unknown log level {level!r}")
    logger.setLevel(numeric)
    if not any(isinstance(h, logging.StreamHandler) for h in logger.handlers):
        handler = logging.StreamHandler()
        handler.setFormatter(
            logging.Formatter("%(asctime)s %(levelname)s %(name)s: %(message)s")
        )
        logger.addHandler(handler)


__all__ = [
    "AUDIT_SCHEMA_VERSION",
    "AuditTrail",
    "audit_session",
    "disable_audit",
    "enable_audit",
    "explain_server",
    "read_audit_jsonl",
    "render_audit_summary",
    "summarize_records",
    "validate_audit_record",
    "BENCH_SCHEMA_VERSION",
    "bench_payload",
    "compare_bench_payloads",
    "read_bench_json",
    "render_bench_diff",
    "validate_bench_payload",
    "write_bench_json",
    "SpanLog",
    "TraceContext",
    "child_of",
    "current",
    "new_root",
    "read_span_jsonl",
    "span_to_dict",
    "tracing_session",
    "use",
    "wall_clock_of",
    "EventLog",
    "config_fingerprint",
    "git_revision",
    "read_events",
    "run_metadata",
    "render_text",
    "render_trace_tree",
    "trace_ids",
    "current_node",
    "node_scope",
    "Counter",
    "Gauge",
    "MetricSample",
    "MetricsRegistry",
    "StreamingHistogram",
    "artifact_kind",
    "render_artifact",
    "validate_artifact",
    "render_bench",
    "render_event_log",
    "phase_table",
    "render_phase_table",
    "ObsSession",
    "activate",
    "disable",
    "enable",
    "get_registry",
    "get_tracer",
    "is_enabled",
    "span",
    "span_event",
    "timer",
    "SpanRecord",
    "Tracer",
    "configure_logging",
]
