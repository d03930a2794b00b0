"""Exporters: registries as aligned text, spans as trace trees.

The text form is what ``repro obs report`` prints and humans read.
:func:`render_trace_tree` is the human form behind ``repro obs trace``,
working off the JSONL span-sink lines
(:func:`repro.obs.context.read_span_jsonl`): the tree reassembled from
hex span ids (which survive process hops), with per-span timing bars
and annotated events inline.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .registry import MetricsRegistry

__all__ = [
    "render_text",
    "render_trace_tree",
    "trace_ids",
]


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
