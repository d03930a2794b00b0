"""repro.obs — metrics, tracing, and structured events for the pipeline.

One unified observability layer for the two-phase trust pipeline:

* **Metrics** — a process-local :class:`MetricsRegistry` of counters,
  gauges, and streaming histograms (p50/p95/p99 without storing
  samples), addressed by dotted name + labels;
* **Tracing** — :func:`span`/:func:`timer` context managers that nest
  and cost one branch (no allocation) when collection is disabled;
* **Events** — an append-only :class:`EventLog` with a JSONL sink and
  seeded-run metadata (seed, config hash, git revision);
* **Exporters** — text and Prometheus renderings plus the
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
    bench_trend,
    compare_bench_payloads,
    load_bench_history,
    read_bench_json,
    render_bench_diff,
    render_bench_trend,
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
from .export import (
    render_prometheus,
    render_text,
    render_trace_tree,
    spans_to_otlp,
    trace_ids,
)
from .flightrec import (
    POSTMORTEM_SCHEMA_VERSION,
    FlightRecorder,
    flight_recording,
    read_postmortem,
    render_postmortem,
    validate_postmortem_bundle,
)
from .fleet import (
    FLEET_SCHEMA_VERSION,
    aggregate_snapshots,
    check_ring,
    default_fleet_slos,
    evaluate_fleet_slos,
    evaluation_rows,
    fleet_payload,
    fleet_to_bench_rows,
    gauge_table,
    node_bundle,
    read_fleet_json,
    render_fleet,
    topology_snapshot,
    validate_fleet_bench_payload,
    validate_fleet_payload,
    write_fleet_json,
)
from .monitor import (
    ProgressMonitor,
    read_events_lenient,
    render_dashboard,
    rss_bytes,
    tail_dashboard,
)
from .profile import (
    PROFILE_SCHEMA_VERSION,
    PhaseProfiler,
    PhaseStat,
    folded_path_for,
    profile_payload,
    profile_session,
    read_profile_json,
    render_folded,
    validate_profile_payload,
    write_folded,
    write_profile_json,
)
from .registry import Counter, Gauge, MetricSample, MetricsRegistry, StreamingHistogram
from .scope import (
    current_node,
    node_scope,
    node_snapshot,
    nodes_in,
    split_snapshot,
)
from .report import render_artifact, render_bench, render_event_log, render_profile
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
from .slo import (
    SloEngine,
    SloEvaluation,
    SloResult,
    SloSpec,
    default_serve_slos,
    evaluate_events,
    evaluation_to_bench_rows,
    render_slo_report,
    validate_slo_payload,
)
from .tracing import SpanRecord, Tracer
from .tsdb import (
    TSDB_SCHEMA_VERSION,
    AnomalyDetector,
    MetricsScraper,
    SeriesKey,
    TimeSeriesStore,
    render_series_table,
    render_sparkline,
    scraping_session,
)

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
    "bench_trend",
    "compare_bench_payloads",
    "load_bench_history",
    "read_bench_json",
    "render_bench_diff",
    "render_bench_trend",
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
    "render_prometheus",
    "render_text",
    "render_trace_tree",
    "spans_to_otlp",
    "trace_ids",
    "ProgressMonitor",
    "read_events_lenient",
    "render_dashboard",
    "rss_bytes",
    "tail_dashboard",
    "POSTMORTEM_SCHEMA_VERSION",
    "FlightRecorder",
    "flight_recording",
    "read_postmortem",
    "render_postmortem",
    "validate_postmortem_bundle",
    "FLEET_SCHEMA_VERSION",
    "aggregate_snapshots",
    "check_ring",
    "default_fleet_slos",
    "evaluate_fleet_slos",
    "evaluation_rows",
    "fleet_payload",
    "fleet_to_bench_rows",
    "gauge_table",
    "node_bundle",
    "read_fleet_json",
    "render_fleet",
    "topology_snapshot",
    "validate_fleet_bench_payload",
    "validate_fleet_payload",
    "write_fleet_json",
    "current_node",
    "node_scope",
    "node_snapshot",
    "nodes_in",
    "split_snapshot",
    "TSDB_SCHEMA_VERSION",
    "AnomalyDetector",
    "MetricsScraper",
    "SeriesKey",
    "TimeSeriesStore",
    "render_series_table",
    "render_sparkline",
    "scraping_session",
    "PROFILE_SCHEMA_VERSION",
    "PhaseProfiler",
    "PhaseStat",
    "folded_path_for",
    "profile_payload",
    "profile_session",
    "read_profile_json",
    "render_folded",
    "validate_profile_payload",
    "write_folded",
    "write_profile_json",
    "Counter",
    "Gauge",
    "MetricSample",
    "MetricsRegistry",
    "StreamingHistogram",
    "render_artifact",
    "render_bench",
    "render_event_log",
    "render_profile",
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
    "SloEngine",
    "SloEvaluation",
    "SloResult",
    "SloSpec",
    "default_serve_slos",
    "evaluate_events",
    "evaluation_to_bench_rows",
    "render_slo_report",
    "validate_slo_payload",
    "SpanRecord",
    "Tracer",
    "configure_logging",
]
