"""Exporters: registries as text/Prometheus, spans as OTLP JSON / trees.

The text form is what ``repro obs report`` prints and humans read; the
Prometheus form follows the text exposition conventions (sanitized
``snake_case`` names with a ``repro_`` prefix, ``_total`` on counters,
``_count``/``_sum`` plus ``quantile``-labelled samples for histograms,
``# HELP``/``# TYPE`` emitted once per metric family, label values
escaped per the spec) so a scrape-style pipeline can ingest run output
unchanged.

Span exports work off the JSONL span-sink lines
(:func:`repro.obs.context.read_span_jsonl`): :func:`spans_to_otlp`
produces the OTLP/JSON ``resourceSpans`` shape any OpenTelemetry
collector ingests, and :func:`render_trace_tree` is the human form
behind ``repro obs trace`` — the tree reassembled from hex span ids
(which survive process hops), with per-span timing bars and annotated
events inline.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

from .registry import MetricSample, MetricsRegistry

__all__ = [
    "render_text",
    "render_prometheus",
    "spans_to_otlp",
    "render_trace_tree",
    "trace_ids",
]

_NAME_SANITIZER = re.compile(r"[^a-zA-Z0-9_:]")
_HISTOGRAM_QUANTILES = (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99"))


def _prom_name(name: str) -> str:
    return "repro_" + _NAME_SANITIZER.sub("_", name)


def _escape_label_value(value: str) -> str:
    """Escape per the exposition format: backslash, quote, newline."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    """HELP text allows quotes but needs backslash/newline escaped."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _prom_labels(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label_value(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _text_labels(labels: Tuple[Tuple[str, str], ...]) -> str:
    if not labels:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in labels) + "}"


def render_text(registry: MetricsRegistry) -> str:
    """Human-readable listing: one aligned line per metric."""
    rows: List[Tuple[str, str]] = []
    for sample in registry.collect():
        label = f"{sample.name}{_text_labels(sample.labels)}"
        if sample.kind == "histogram":
            s = sample.summary or {}
            value = (
                f"count={s['count']:.0f} sum={s['sum']:.6g} mean={s['mean']:.6g} "
                f"min={s['min']:.6g} p50={s['p50']:.6g} p95={s['p95']:.6g} "
                f"p99={s['p99']:.6g} max={s['max']:.6g}"
            )
        else:
            value = f"{sample.value:.6g}"
        rows.append((label, value))
    if not rows:
        return "(no metrics recorded)"
    width = max(len(label) for label, _ in rows)
    return "\n".join(f"{label:<{width}}  {value}" for label, value in rows)


_PROM_KINDS = {"counter": "counter", "gauge": "gauge", "histogram": "summary"}


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text-exposition rendering of every metric.

    Samples are grouped into metric families first, so ``# HELP`` and
    ``# TYPE`` appear exactly once per family no matter how many label
    sets (series) a metric has, and every series of a family is emitted
    contiguously as the format requires.
    """
    families: Dict[str, Dict[str, object]] = {}
    for sample in registry.collect():
        base = _prom_name(sample.name)
        family_name = base + "_total" if sample.kind == "counter" else base
        family = families.setdefault(
            family_name,
            {"kind": _PROM_KINDS[sample.kind], "source": sample.name, "samples": []},
        )
        family["samples"].append(sample)  # type: ignore[union-attr]
    lines: List[str] = []
    for family_name, family in families.items():
        help_text = _escape_help(f"repro metric '{family['source']}'")
        lines.append(f"# HELP {family_name} {help_text}")
        lines.append(f"# TYPE {family_name} {family['kind']}")
        samples: List[MetricSample] = family["samples"]  # type: ignore[assignment]
        for sample in samples:
            if sample.kind in ("counter", "gauge"):
                lines.append(
                    f"{family_name}{_prom_labels(sample.labels)} "
                    f"{sample.value:.10g}"
                )
            else:  # histogram -> summary exposition
                s = sample.summary or {}
                for quantile, key in _HISTOGRAM_QUANTILES:
                    extra = 'quantile="%s"' % quantile
                    lines.append(
                        f"{family_name}{_prom_labels(sample.labels, extra)} "
                        f"{s[key]:.10g}"
                    )
                lines.append(
                    f"{family_name}_sum{_prom_labels(sample.labels)} "
                    f"{s['sum']:.10g}"
                )
                lines.append(
                    f"{family_name}_count{_prom_labels(sample.labels)} "
                    f"{s['count']:.10g}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------- #
# span exports (OTLP JSON and the CLI trace tree)


def _otlp_value(value: object) -> Dict[str, object]:
    if isinstance(value, bool):
        return {"boolValue": value}
    if isinstance(value, int):
        return {"intValue": str(value)}
    if isinstance(value, float):
        return {"doubleValue": value}
    return {"stringValue": str(value)}


def _otlp_attributes(mapping: Dict[str, object]) -> List[Dict[str, object]]:
    return [{"key": k, "value": _otlp_value(v)} for k, v in sorted(mapping.items())]


def spans_to_otlp(
    spans: Sequence[Dict[str, object]],
    *,
    service_name: str = "repro",
) -> Dict[str, object]:
    """Span-sink lines as an OTLP/JSON ``ExportTraceServiceRequest``.

    One resource (the repro service), one scope, one OTLP span per
    JSONL line: hex ids pass through unchanged, wall-anchored start
    times become ``startTimeUnixNano``, labels become attributes, and
    span events keep their in-span offsets.
    """
    otlp_spans = []
    for span in spans:
        start_ns = int(float(span["start_unix_s"]) * 1e9)
        end_ns = start_ns + int(float(span["duration_s"]) * 1e9)
        events = []
        for event in span.get("events") or []:
            attrs = {
                k: v for k, v in event.items() if k not in ("name", "offset_s")
            }
            events.append(
                {
                    "name": event.get("name"),
                    "timeUnixNano": str(
                        start_ns + int(float(event.get("offset_s", 0.0)) * 1e9)
                    ),
                    "attributes": _otlp_attributes(attrs),
                }
            )
        otlp: Dict[str, object] = {
            "traceId": span["trace_id"],
            "spanId": span["span_id"],
            "name": span["name"],
            "kind": 1,  # SPAN_KIND_INTERNAL
            "startTimeUnixNano": str(start_ns),
            "endTimeUnixNano": str(end_ns),
            "attributes": _otlp_attributes(dict(span.get("labels") or {})),
            "events": events,
        }
        if span.get("parent_span_id"):
            otlp["parentSpanId"] = span["parent_span_id"]
        otlp_spans.append(otlp)
    return {
        "resourceSpans": [
            {
                "resource": {
                    "attributes": _otlp_attributes({"service.name": service_name})
                },
                "scopeSpans": [
                    {"scope": {"name": "repro.obs"}, "spans": otlp_spans}
                ],
            }
        ]
    }


def trace_ids(spans: Sequence[Dict[str, object]]) -> List[str]:
    """Distinct trace ids in first-appearance order."""
    seen: Dict[str, None] = {}
    for span in spans:
        tid = span.get("trace_id")
        if isinstance(tid, str) and tid not in seen:
            seen[tid] = None
    return list(seen)


def _format_duration(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def render_trace_tree(
    spans: Sequence[Dict[str, object]],
    trace_id: str,
    *,
    prefix_match: bool = True,
) -> str:
    """One trace as an indented span tree with timings and events.

    Spans are matched by ``trace_id`` (a unique prefix suffices, like
    git revisions), parented by hex span id (so spans written by other
    processes slot under their request parent regardless of file order),
    and ordered by wall-anchored start time.  Spans whose parent never
    reached the sink (e.g. a crashed process) render as extra roots
    rather than disappearing.
    """
    if prefix_match:
        matches = sorted(
            {
                str(s["trace_id"])
                for s in spans
                if str(s.get("trace_id", "")).startswith(trace_id)
            }
        )
        if not matches:
            raise ValueError(f"no spans for trace {trace_id!r}")
        if len(matches) > 1:
            raise ValueError(
                f"trace prefix {trace_id!r} is ambiguous: {', '.join(matches)}"
            )
        trace_id = matches[0]
    mine = [s for s in spans if s.get("trace_id") == trace_id]
    if not mine:
        raise ValueError(f"no spans for trace {trace_id!r}")
    mine.sort(key=lambda s: float(s.get("start_unix_s", 0.0)))
    by_id = {str(s["span_id"]): s for s in mine}
    children: Dict[Optional[str], List[Dict[str, object]]] = {}
    for span in mine:
        parent = span.get("parent_span_id")
        key = str(parent) if parent is not None and str(parent) in by_id else None
        children.setdefault(key, []).append(span)
    origin = float(mine[0].get("start_unix_s", 0.0))
    lines = [f"trace {trace_id}  ({len(mine)} spans)"]

    def _walk(span: Dict[str, object], depth: int) -> None:
        offset = float(span.get("start_unix_s", 0.0)) - origin
        duration = float(span.get("duration_s", 0.0))
        labels = span.get("labels") or {}
        label_text = (
            " {" + ", ".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
            if labels
            else ""
        )
        indent = "  " * depth
        lines.append(
            f"{indent}+- {span['name']}{label_text}  "
            f"[{_format_duration(duration)} @ +{_format_duration(max(offset, 0.0))}]"
            f"  pid={span.get('pid', '?')}"
        )
        for event in span.get("events") or []:
            attrs = {
                k: v for k, v in event.items() if k not in ("name", "offset_s")
            }
            attr_text = (
                " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
                if attrs
                else ""
            )
            lines.append(
                f"{indent}   . {event.get('name')} "
                f"@ +{_format_duration(float(event.get('offset_s', 0.0)))}"
                f"{attr_text}"
            )
        for child in children.get(str(span["span_id"]), []):
            _walk(child, depth + 1)

    for root in children.get(None, []):
        _walk(root, 0)
    return "\n".join(lines)
