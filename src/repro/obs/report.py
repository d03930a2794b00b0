"""Render observability artifacts (bench JSON, event logs) for humans.

Backs the ``repro obs report`` CLI: given a ``BENCH_*.json`` or a JSONL
event log it produces the aligned text a terminal wants, without the
producer process having to stay alive.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from .audit import render_audit_summary, summarize_records, validate_audit_record
from .bench import read_bench_json
from .events import read_events
from .profile import validate_profile_payload

__all__ = ["render_bench", "render_event_log", "render_profile", "render_artifact"]

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
    """Summarize a JSONL event log: run metadata, event counts, metrics."""
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
    counts: Dict[str, int] = {}
    for event in events:
        name = str(event.get("event"))
        counts[name] = counts.get(name, 0) + 1
    width = max(len(name) for name in counts) if counts else 0
    lines.append("event counts:")
    for name in sorted(counts):
        lines.append(f"  {name:<{width}}  {counts[name]}")
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


def render_profile(payload: Dict[str, object]) -> str:
    """A validated ``PROFILE_*.json`` payload as an aligned text table.

    Phases are listed by cumulative wall time (the artifact's order);
    the ``self`` column is where optimization effort should go, and the
    sampled folded stacks — when the profiler ran with sampling — are
    summarized by their hottest leaves.
    """
    validate_profile_payload(payload)
    phases: List[Dict[str, object]] = payload["phases"]  # type: ignore[assignment]
    lines = [
        f"profile: {payload['profile']}  (schema v{payload['schema_version']}, "
        f"sample_hz={payload.get('sample_hz', 0)})"
    ]
    meta = payload.get("meta") or {}
    if meta:
        rendered = ", ".join(f"{k}={v}" for k, v in sorted(meta.items()))
        lines.append(f"meta: {rendered}")
    if not phases:
        lines.append("(no phases recorded)")
        return "\n".join(lines)
    header = ["phase", "calls", "wall_s", "self_s", "samples"]
    table = [header]
    for phase in phases:
        depth = str(phase["path"]).count(";")
        leaf = str(phase["path"]).rsplit(";", 1)[-1]
        table.append(
            [
                "  " * depth + leaf,
                f"{int(phase['calls'])}",
                f"{float(phase['wall_s']):.6g}",
                f"{float(phase['self_s']):.6g}",
                f"{int(phase['samples'])}",
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
    folded: Dict[str, object] = payload.get("folded_samples") or {}  # type: ignore[assignment]
    if folded:
        top = sorted(folded.items(), key=lambda kv: (-int(kv[1]), kv[0]))[:10]
        lines.append("hottest sampled stacks:")
        for stack, count in top:
            lines.append(f"  {count:>6} {stack}")
    return "\n".join(lines)


def render_artifact(path: PathLike) -> str:
    """Render a bench/profile JSON or JSONL event log, inferring which.

    A directory is scanned for ``BENCH_*.json``, ``PROFILE_*.json`` and
    ``*.jsonl`` / ``*.ndjson`` artifacts; pointing at a directory
    holding none is a clear error rather than a traceback.
    """
    path = Path(path)
    if path.is_dir():
        artifacts = (
            sorted(path.glob("BENCH_*.json"))
            + sorted(path.glob("PROFILE_*.json"))
            + sorted(p for ext in ("*.jsonl", "*.ndjson") for p in path.glob(ext))
        )
        if not artifacts:
            raise ValueError(
                "no observability artifacts (BENCH_*.json, PROFILE_*.json "
                f"or *.jsonl) in {path}"
            )
        return "\n\n".join(render_artifact(p) for p in artifacts)
    if path.suffix.lower() in (".jsonl", ".ndjson"):
        return render_event_log(read_events(path))
    try:
        return render_bench(read_bench_json(path))
    except (ValueError, json.JSONDecodeError):
        pass
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        validate_profile_payload(payload)
    except (ValueError, json.JSONDecodeError):
        # neither bench nor profile; fall back to the event-log reader
        return render_event_log(read_events(path))
    return render_profile(payload)
