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
deliberately strict about this core so the diff gate can rely on
it, and silent about extra keys so future benches can extend it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "bench_payload",
    "validate_bench_payload",
    "write_bench_json",
    "read_bench_json",
    "compare_bench_payloads",
    "render_bench_diff",
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
