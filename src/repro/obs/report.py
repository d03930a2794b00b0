"""Recognise, render and validate observability artifacts.

Backs ``repro obs report`` and ``repro obs validate``: one classifier,
:func:`artifact_kind`, tells a bench JSON, a span log and a JSONL
event log apart by content, and both commands
dispatch on it.  A span log renders as its phase table, the one answer
to "where did the time go?".
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path
from typing import Dict, List, Tuple, Union

from .audit import (
    read_audit_jsonl,
    render_audit_summary,
    summarize_records,
    validate_audit_record,
)
from .bench import read_bench_json
from .context import read_span_jsonl
from .events import read_events

__all__ = [
    "render_bench",
    "render_event_log",
    "phase_table",
    "render_phase_table",
    "artifact_kind",
    "render_artifact",
    "validate_artifact",
]

PathLike = Union[str, Path]


def render_bench(payload: Dict[str, object]) -> str:
    """A validated bench payload as an aligned text table."""
    results: List[Dict[str, object]] = payload["results"]  # type: ignore[assignment]
    param_keys: List[str] = []
    for row in results:
        for key in row["params"]:  # type: ignore[union-attr]
            if key not in param_keys:
                param_keys.append(key)
    header = ["name", *param_keys, "mean_s", "min_s", "repeats"]
    table: List[List[str]] = [header]
    for row in results:
        stats: Dict[str, object] = row["stats"]  # type: ignore[assignment]
        params: Dict[str, object] = row["params"]  # type: ignore[assignment]
        table.append(
            [
                str(row["name"]),
                *(str(params.get(k, "-")) for k in param_keys),
                f"{float(stats['mean_s']):.6g}",
                f"{float(stats['min_s']):.6g}",
                f"{int(stats['repeats'])}",
            ]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    lines = [f"bench: {payload['bench']}  (schema v{payload['schema_version']})"]
    meta = payload.get("meta") or {}
    if meta:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"meta: {rendered}")
    for j, line in enumerate(table):
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(line)))
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def render_event_log(events: List[Dict[str, object]]) -> str:
    """Summarize a JSONL event log: run metadata, event counts (by name
    and by fault ``site``), metrics."""
    lines: List[str] = [f"{len(events)} events"]
    for event in events:
        if event.get("event") == "run_start":
            interesting = {
                k: v
                for k, v in event.items()
                if k not in ("event", "time") and v is not None
            }
            rendered = ", ".join(f"{k}={v}" for k, v in sorted(interesting.items()))
            lines.append(f"run_start: {rendered}")
            break
    counts = Counter(str(event.get("event")) for event in events)
    sites = Counter(str(event["site"]) for event in events if event.get("site"))
    blocks = [("event counts:", counts)] + ([("by site:", sites)] if sites else [])
    for title, table in blocks:
        width = max(map(len, table), default=0)
        lines.append(title)
        lines.extend(f"  {key:<{width}}  {table[key]}" for key in sorted(table))
    # the last metrics snapshot, if any, is the run's final word
    for event in reversed(events):
        metrics = event.get("metrics")
        if isinstance(metrics, dict):
            lines.append("final metrics snapshot:")
            for name in sorted(metrics):
                for entry in metrics[name]:
                    labels = entry.get("labels") or {}
                    label_text = (
                        "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                        if labels
                        else ""
                    )
                    if entry.get("kind") == "histogram":
                        summary = entry.get("summary") or {}
                        value = (
                            f"count={summary.get('count')} mean={summary.get('mean')}"
                        )
                    else:
                        value = str(entry.get("value"))
                    lines.append(f"  {name}{label_text}  {value}")
            break
    audit_records = [e for e in events if e.get("event") == "audit"]
    if audit_records:
        valid = []
        for record in audit_records:
            try:
                validate_audit_record(record)
            except ValueError:
                continue
            valid.append(record)
        if valid:
            lines.append(render_audit_summary(summarize_records(valid)))
        if len(valid) != len(audit_records):
            lines.append(
                f"warning: {len(audit_records) - len(valid)} malformed audit "
                "record(s) skipped (run `repro obs validate` for details)"
            )
    return "\n".join(lines)


def phase_table(spans: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Where the time went: calls, wall_s and self_s per span path.

    A span's path is the ``;``-joined names along its
    ``parent_span_id`` chain (a span whose parent is not in ``spans``
    starts a path).  ``self_s`` is a span's duration minus its direct
    children's; visits to the same path are summed.  Rows come in tree
    order: each path after its parent, siblings most wall time first.
    """
    by_id = {s["span_id"]: s for s in spans}
    child_s: Dict[object, float] = {}
    for s in spans:
        parent = s["parent_span_id"]
        if parent in by_id:
            child_s[parent] = child_s.get(parent, 0.0) + float(s["duration_s"])
    paths: Dict[object, str] = {}

    def path_of(span: Dict[str, object]) -> str:
        path = paths.get(span["span_id"])
        if path is None:
            name = str(span["name"])
            paths[span["span_id"]] = name  # ends a parent cycle in a corrupt log
            parent = by_id.get(span["parent_span_id"])
            path = name if parent is None else f"{path_of(parent)};{name}"
            paths[span["span_id"]] = path
        return path

    rows: Dict[str, Dict[str, object]] = {}
    for s in spans:
        path = path_of(s)
        row = rows.get(path)
        if row is None:
            row = rows[path] = {"path": path, "calls": 0, "wall_s": 0.0, "self_s": 0.0}
        duration = float(s["duration_s"])
        row["calls"] += 1
        row["wall_s"] += duration
        row["self_s"] += max(duration - child_s.get(s["span_id"], 0.0), 0.0)

    def tree_order(row: Dict[str, object]) -> List[Tuple[float, str]]:
        # depth first: each path sorts under its parent, siblings by wall time
        parts = str(row["path"]).split(";")
        prefixes = (";".join(parts[: i + 1]) for i in range(len(parts)))
        return [(-rows[p]["wall_s"] if p in rows else 0.0, p) for p in prefixes]

    return sorted(rows.values(), key=tree_order)


def render_phase_table(spans: List[Dict[str, object]]) -> str:
    """A span log's :func:`phase_table` as an aligned text table.

    The ``self_s`` column is where optimization effort should go.
    """
    phases = phase_table(spans)
    lines = [f"phases: {len(spans)} spans"]
    if not phases:
        lines.append("(no spans recorded)")
        return "\n".join(lines)
    header = ["phase", "calls", "wall_s", "self_s"]
    table = [header]
    for phase in phases:
        path = str(phase["path"])
        table.append(
            [
                "  " * path.count(";") + path.rsplit(";", 1)[-1],
                f"{int(phase['calls'])}",
                f"{float(phase['wall_s']):.6g}",
                f"{float(phase['self_s']):.6g}",
            ]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for j, line in enumerate(table):
        cells = [
            cell.ljust(widths[i]) if i == 0 else cell.rjust(widths[i])
            for i, cell in enumerate(line)
        ]
        lines.append("  ".join(cells).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def artifact_kind(path: PathLike) -> str:
    """Which artifact ``path`` holds: bench, spans or events.

    Decided by content, never by file name.  A JSONL file is an event
    log when its first record is an event (or it holds none) and a span
    log when that record is a span.  A JSON document is a bench
    artifact.
    """
    with open(path, encoding="utf-8") as handle:
        first = next((line for line in handle if line.strip()), None)
        if first is None:
            return "events"
        try:
            record = json.loads(first)
        except json.JSONDecodeError:
            handle.seek(0)  # a pretty-printed document, not a record line
            try:
                record = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: invalid JSON ({exc})") from None
    if isinstance(record, dict):
        if "event" in record:
            return "events"
        if "span_id" in record:
            return "spans"
    return "bench"


#: artifact kind -> (reader that loads and schema-checks it, renderer)
_ARTIFACTS = {
    "bench": (read_bench_json, render_bench),
    "spans": (read_span_jsonl, render_phase_table),
    "events": (read_events, render_event_log),
}


def render_artifact(path: PathLike) -> str:
    """Render any artifact :func:`artifact_kind` recognises.

    A directory renders every ``*.json`` / ``*.jsonl`` / ``*.ndjson``
    file in it, each by its content; pointing at a directory holding
    none is a clear error rather than a traceback.
    """
    path = Path(path)
    if path.is_dir():
        artifacts = sorted(
            p for ext in ("*.json", "*.jsonl", "*.ndjson") for p in path.glob(ext)
        )
        if not artifacts:
            raise ValueError(
                f"no observability artifacts (*.json or *.jsonl) in {path}"
            )
        return "\n\n".join(render_artifact(p) for p in artifacts)
    read, render = _ARTIFACTS[artifact_kind(path)]
    return render(read(path))


def validate_artifact(path: PathLike) -> str:
    """Schema-check every record of an artifact; returns a one-line verdict.

    Raises ``ValueError`` naming the first violation.  An event log
    passes only when it holds at least one audit record, and all of
    them are valid.
    """
    kind = artifact_kind(path)
    if kind == "events":
        records = read_audit_jsonl(path)
        if not records:
            raise ValueError(f"no audit records in {path}")
        return f"{len(records)} audit record(s), all valid"
    try:
        loaded = _ARTIFACTS[kind][0](path)
    except ValueError as exc:
        raise ValueError(f"{path} is not a valid {kind} artifact: {exc}") from None
    if kind == "spans":
        return f"{len(loaded)} span record(s), all valid"
    return f"valid {kind} artifact"
