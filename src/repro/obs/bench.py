"""The ``BENCH_*.json`` machine-readable benchmark artifact format.

Every performance claim in this repository should leave behind a
schema-stable artifact a later PR (or CI) can diff against.  The shape:

.. code-block:: json

    {
      "bench": "fig9",
      "schema_version": 1,
      "meta": {"seed": 2008, "git_rev": "abc1234", "config_hash": "..."},
      "results": [
        {"name": "multi_optimized",
         "params": {"history_size": 100000},
         "stats": {"mean_s": 0.41, "min_s": 0.39, "repeats": 3}}
      ]
    }

``name`` is the measured scheme/variant, ``params`` the sweep point, and
``stats`` at least ``mean_s``/``min_s``/``repeats``.  The validator is
deliberately strict about this core so trajectory tooling can rely on
it, and silent about extra keys so future benches can extend it.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_payload",
    "validate_bench_payload",
    "write_bench_json",
    "read_bench_json",
    "compare_bench_payloads",
    "render_bench_diff",
    "load_bench_history",
    "bench_trend",
    "render_bench_trend",
]

BENCH_SCHEMA_VERSION = 1

PathLike = Union[str, Path]
_REQUIRED_STATS = ("mean_s", "min_s", "repeats")


def bench_payload(
    bench: str,
    results: List[Dict[str, object]],
    *,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Assemble (and validate) a benchmark artifact payload."""
    payload: Dict[str, object] = {
        "bench": bench,
        "schema_version": BENCH_SCHEMA_VERSION,
        "meta": dict(meta or {}),
        "results": list(results),
    }
    validate_bench_payload(payload)
    return payload


def validate_bench_payload(payload: object) -> None:
    """Raise ``ValueError`` unless ``payload`` is a valid bench artifact."""
    if not isinstance(payload, dict):
        raise ValueError("bench payload must be a JSON object")
    for key in ("bench", "schema_version", "meta", "results"):
        if key not in payload:
            raise ValueError(f"bench payload missing key {key!r}")
    if not isinstance(payload["bench"], str) or not payload["bench"]:
        raise ValueError("'bench' must be a non-empty string")
    if payload["schema_version"] != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported schema_version {payload['schema_version']!r}; "
            f"expected {BENCH_SCHEMA_VERSION}"
        )
    if not isinstance(payload["meta"], dict):
        raise ValueError("'meta' must be an object")
    results = payload["results"]
    if not isinstance(results, list) or not results:
        raise ValueError("'results' must be a non-empty list")
    for i, row in enumerate(results):
        if not isinstance(row, dict):
            raise ValueError(f"results[{i}] must be an object")
        if not isinstance(row.get("name"), str) or not row["name"]:
            raise ValueError(f"results[{i}].name must be a non-empty string")
        if not isinstance(row.get("params"), dict):
            raise ValueError(f"results[{i}].params must be an object")
        stats = row.get("stats")
        if not isinstance(stats, dict):
            raise ValueError(f"results[{i}].stats must be an object")
        for stat in _REQUIRED_STATS:
            value = stats.get(stat)
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"results[{i}].stats.{stat} must be a number, got {value!r}"
                )


def write_bench_json(
    path: PathLike,
    bench: str,
    results: List[Dict[str, object]],
    *,
    meta: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    """Validate and write a ``BENCH_<name>.json``; returns the payload."""
    payload = bench_payload(bench, results, meta=meta)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=repr)
        handle.write("\n")
    return payload


def read_bench_json(path: PathLike) -> Dict[str, object]:
    """Load and validate a benchmark artifact."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_bench_payload(payload)
    return payload


# ---------------------------------------------------------------------- #
# regression gating: diff two artifacts of the same bench

#: Which stat the regression gate compares, in preference order — tail
#: latency when the artifact carries it, mean otherwise.
_GATE_STATS = ("p95_s", "mean_s")


def _row_key(row: Dict[str, object]) -> str:
    return json.dumps(
        {"name": row["name"], "params": row["params"]}, sort_keys=True, default=repr
    )


def _ratio(candidate: float, baseline: float) -> float:
    """``candidate / baseline``; from a zero baseline, an unchanged zero
    is ``1.0`` and anything above it an unbounded ``inf``."""
    if baseline > 0:
        return candidate / baseline
    return 1.0 if candidate == 0 else float("inf")


def compare_bench_payloads(
    baseline: Dict[str, object],
    candidate: Dict[str, object],
    *,
    max_regression: float = 0.20,
) -> Dict[str, object]:
    """Diff two bench artifacts; flag rows regressing past the gate.

    Rows are matched on ``(name, params)``; the compared stat is the
    first of ``p95_s`` / ``mean_s`` present in *both* rows.  A row
    *regresses* when ``candidate > baseline * (1 + max_regression)``.
    Rows present on only one side are listed but never gate.
    """
    if max_regression < 0:
        raise ValueError(f"max_regression must be non-negative, got {max_regression}")
    validate_bench_payload(baseline)
    validate_bench_payload(candidate)
    if baseline["bench"] != candidate["bench"]:
        raise ValueError(
            f"cannot diff different benches: "
            f"{baseline['bench']!r} vs {candidate['bench']!r}"
        )
    base_rows = {_row_key(row): row for row in baseline["results"]}  # type: ignore[index]
    cand_rows = {_row_key(row): row for row in candidate["results"]}  # type: ignore[index]
    rows: List[Dict[str, object]] = []
    regressions: List[Dict[str, object]] = []
    for key in base_rows:
        if key not in cand_rows:
            continue
        base_stats: Dict[str, object] = base_rows[key]["stats"]  # type: ignore[index]
        cand_stats: Dict[str, object] = cand_rows[key]["stats"]  # type: ignore[index]
        stat = next(
            (s for s in _GATE_STATS if s in base_stats and s in cand_stats), None
        )
        if stat is None:
            continue
        base_value = float(base_stats[stat])  # type: ignore[arg-type]
        cand_value = float(cand_stats[stat])  # type: ignore[arg-type]
        ratio = _ratio(cand_value, base_value)
        entry = {
            "name": base_rows[key]["name"],
            "params": base_rows[key]["params"],
            "stat": stat,
            "baseline": base_value,
            "candidate": cand_value,
            "ratio": ratio,
            "regressed": ratio > 1.0 + max_regression,
        }
        rows.append(entry)
        if entry["regressed"]:
            regressions.append(entry)
    return {
        "bench": baseline["bench"],
        "max_regression": max_regression,
        "rows": rows,
        "regressions": regressions,
        "only_in_baseline": [
            json.loads(k) for k in sorted(base_rows) if k not in cand_rows
        ],
        "only_in_candidate": [
            json.loads(k) for k in sorted(cand_rows) if k not in base_rows
        ],
        "ok": not regressions,
    }


def render_bench_diff(diff: Dict[str, object]) -> str:
    """A :func:`compare_bench_payloads` result as an aligned text table."""
    rows: List[Dict[str, object]] = diff["rows"]  # type: ignore[assignment]
    header = ["name", "params", "stat", "baseline", "candidate", "ratio", ""]
    table = [header]
    for row in rows:
        params: Dict[str, object] = row["params"]  # type: ignore[assignment]
        table.append(
            [
                str(row["name"]),
                ",".join(f"{k}={v}" for k, v in sorted(params.items())) or "-",
                str(row["stat"]),
                f"{float(row['baseline']):.6g}",  # type: ignore[arg-type]
                f"{float(row['candidate']):.6g}",  # type: ignore[arg-type]
                f"{float(row['ratio']):.3f}x",  # type: ignore[arg-type]
                "REGRESSED" if row["regressed"] else "ok",
            ]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    threshold_pct = float(diff["max_regression"]) * 100  # type: ignore[arg-type]
    lines = [
        f"bench diff: {diff['bench']}  "
        f"(gate: >{threshold_pct:.0f}% regression fails)"
    ]
    for j, line in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    for side in ("only_in_baseline", "only_in_candidate"):
        extra: List[str] = diff.get(side) or []  # type: ignore[assignment]
        if extra:
            lines.append(f"{side.replace('_', ' ')}: {len(extra)} row(s) unmatched")
    regressions: List[Dict[str, object]] = diff["regressions"]  # type: ignore[assignment]
    if regressions:
        lines.append(
            f"FAIL: {len(regressions)} row(s) regressed past "
            f"{threshold_pct:.0f}%"
        )
    else:
        lines.append("OK: no regressions past the gate")
    return "\n".join(lines)


# ---------------------------------------------------------------------- #
# multi-run trend tracking: a directory of BENCH_*.json as time series


def load_bench_history(
    directory: PathLike, *, bench: Optional[str] = None
) -> List[Dict[str, object]]:
    """Every valid ``BENCH_*.json`` under ``directory``, oldest first.

    Artifacts are ordered by their ``meta.timestamp`` (file mtime when a
    payload carries none), so a directory accumulated across runs reads
    as a trajectory.  Files that fail schema validation are skipped —
    the trend report states how many — and ``bench=`` keeps only one
    bench's artifacts.  Each payload gains a ``_source`` key naming its
    file (stripped nowhere: trend output wants it).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ValueError(f"not a directory: {directory}")
    entries: List[Tuple[float, str, Dict[str, object]]] = []
    skipped = 0
    for path in sorted(directory.glob("BENCH_*.json")):
        try:
            payload = read_bench_json(path)
        except (OSError, ValueError, json.JSONDecodeError):
            skipped += 1
            continue
        if bench is not None and payload["bench"] != bench:
            continue
        meta = payload.get("meta") or {}
        timestamp = meta.get("timestamp") if isinstance(meta, dict) else None
        if not isinstance(timestamp, (int, float)) or isinstance(timestamp, bool):
            timestamp = path.stat().st_mtime
        payload["_source"] = path.name
        entries.append((float(timestamp), path.name, payload))
    entries.sort(key=lambda entry: (entry[0], entry[1]))
    payloads = [payload for _, _, payload in entries]
    if payloads:
        payloads[0].setdefault("_skipped", skipped)
    return payloads


def bench_trend(
    payloads: List[Dict[str, object]], *, max_regression: float = 0.20
) -> Dict[str, object]:
    """Per-(name, params) time series over a bench history, with flags.

    Each series tracks the gate stat (``p95_s`` preferred, ``mean_s``
    otherwise) across the payloads in order.  The latest point is
    compared against the *median* of all earlier points — robust to one
    noisy historical run — and flagged when it exceeds the median by
    more than ``max_regression``.

    Tolerant by design: schemas evolve, so older artifacts missing
    newly-added metric families (or carrying malformed rows) must stay
    comparable rather than abort the whole report.  Invalid payloads and
    unusable rows are skipped and *counted* (``invalid_payloads``,
    ``malformed_rows``); a series absent from the newest valid run is
    flagged **stale** (``stale=True`` with ``missing_runs``) and excluded
    from regression gating — its "latest" point is old data, and gating
    old data against older data mis-fires both ways.
    """
    if max_regression < 0:
        raise ValueError(f"max_regression must be non-negative, got {max_regression}")
    series: Dict[str, Dict[str, object]] = {}
    invalid_payloads = 0
    malformed_rows = 0
    run_index = -1
    for payload in payloads:
        try:
            validate_bench_payload(payload)
        except ValueError:
            invalid_payloads += 1
            continue
        run_index += 1
        meta = payload.get("meta") or {}
        for row in payload["results"]:  # type: ignore[union-attr]
            stats = row.get("stats") if isinstance(row, dict) else None
            if not isinstance(stats, dict):
                malformed_rows += 1
                continue
            stat = next((s for s in _GATE_STATS if s in stats), None)
            if stat is None:
                continue
            try:
                value = float(stats[stat])  # type: ignore[arg-type]
            except (TypeError, ValueError):
                malformed_rows += 1
                continue
            key = json.dumps(
                {"bench": payload["bench"], "name": row["name"], "params": row["params"]},
                sort_keys=True,
                default=repr,
            )
            entry = series.setdefault(
                key,
                {
                    "bench": payload["bench"],
                    "name": row["name"],
                    "params": row["params"],
                    "stat": stat,
                    "points": [],
                },
            )
            entry["stat"] = stat  # the latest payload's stat labels the series
            entry["points"].append(  # type: ignore[union-attr]
                {
                    "value": value,
                    "stat": stat,
                    "timestamp": meta.get("timestamp"),
                    "git_rev": meta.get("git_rev"),
                    "source": payload.get("_source"),
                    "run_index": run_index,
                }
            )
    n_valid_runs = run_index + 1
    rows: List[Dict[str, object]] = []
    regressions: List[Dict[str, object]] = []
    stale_series: List[Dict[str, object]] = []
    for key in sorted(series):
        entry = series[key]
        points: List[Dict[str, object]] = entry["points"]  # type: ignore[assignment]
        values = [p["value"] for p in points]
        latest = values[-1]
        earlier = values[:-1]
        last_seen = int(points[-1]["run_index"])  # type: ignore[arg-type]
        entry["stale"] = last_seen < n_valid_runs - 1
        entry["missing_runs"] = n_valid_runs - 1 - last_seen
        if earlier:
            baseline = float(statistics.median(earlier))
            ratio = _ratio(latest, baseline)
            entry["baseline_median"] = baseline
            entry["ratio"] = ratio
            # a stale series has no point in the newest run — nothing
            # current to gate; it is surfaced, not failed
            entry["regressed"] = not entry["stale"] and ratio > 1.0 + max_regression
        else:
            entry["baseline_median"] = None
            entry["ratio"] = None
            entry["regressed"] = False
        entry["latest"] = latest
        rows.append(entry)
        if entry["regressed"]:
            regressions.append(entry)
        if entry["stale"]:
            stale_series.append(entry)
    return {
        "max_regression": max_regression,
        "runs": len(payloads),
        "skipped": int(payloads[0].get("_skipped", 0)) if payloads else 0,
        "invalid_payloads": invalid_payloads,
        "malformed_rows": malformed_rows,
        "series": rows,
        "regressions": regressions,
        "stale": stale_series,
        "ok": not regressions,
    }


_SPARK_LEVELS = " .:-=+*#%@"


def _sparkline(values: List[float]) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK_LEVELS[1] * len(values)
    span = hi - lo
    top = len(_SPARK_LEVELS) - 1
    return "".join(
        _SPARK_LEVELS[max(1, int(round((v - lo) / span * top)))] for v in values
    )


def render_bench_trend(trend: Dict[str, object]) -> str:
    """A :func:`bench_trend` result as an aligned text report."""
    series: List[Dict[str, object]] = trend["series"]  # type: ignore[assignment]
    threshold_pct = float(trend["max_regression"]) * 100  # type: ignore[arg-type]
    lines = [
        f"bench trend: {trend['runs']} run(s)  "
        f"(gate: latest >{threshold_pct:.0f}% above median of history fails)"
    ]
    if trend.get("skipped"):
        lines.append(f"warning: {trend['skipped']} invalid artifact(s) skipped")
    if trend.get("invalid_payloads"):
        lines.append(
            f"warning: {trend['invalid_payloads']} payload(s) failed validation "
            "and were excluded"
        )
    if trend.get("malformed_rows"):
        lines.append(
            f"warning: {trend['malformed_rows']} malformed row(s) skipped"
        )
    if not series:
        lines.append("(no series found)")
        return "\n".join(lines)
    header = ["series", "stat", "n", "trend", "median", "latest", "ratio", ""]
    table = [header]
    for entry in series:
        params: Dict[str, object] = entry["params"]  # type: ignore[assignment]
        param_text = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
        name = f"{entry['bench']}/{entry['name']}"
        if param_text:
            name += "{" + param_text + "}"
        points: List[Dict[str, object]] = entry["points"]  # type: ignore[assignment]
        values = [float(p["value"]) for p in points]
        median = entry["baseline_median"]
        ratio = entry["ratio"]
        table.append(
            [
                name,
                str(entry["stat"]),
                str(len(values)),
                _sparkline(values),
                f"{float(median):.6g}" if median is not None else "-",
                f"{values[-1]:.6g}",
                f"{float(ratio):.3f}x" if ratio is not None else "-",
                "REGRESSED"
                if entry["regressed"]
                else (
                    f"STALE(-{entry.get('missing_runs', 0)})"
                    if entry.get("stale")
                    else "ok"
                ),
            ]
        )
    widths = [max(len(line[i]) for line in table) for i in range(len(header))]
    for j, line in enumerate(table):
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip()
        )
        if j == 0:
            lines.append("  ".join("-" * w for w in widths))
    stale: List[Dict[str, object]] = trend.get("stale") or []  # type: ignore[assignment]
    if stale:
        lines.append(
            f"note: {len(stale)} series missing from the latest run(s) "
            "(flagged STALE, not gated)"
        )
    regressions: List[Dict[str, object]] = trend["regressions"]  # type: ignore[assignment]
    if regressions:
        lines.append(
            f"FAIL: {len(regressions)} series regressed past {threshold_pct:.0f}%"
        )
    else:
        lines.append("OK: no series regressed past the gate")
    return "\n".join(lines)
