"""Fleet view: cross-node aggregation, ring consistency, and artifacts.

The scope layer (:mod:`repro.obs.scope`) makes the *node* the unit of
observation; this module rolls nodes back up into a fleet:

* :func:`aggregate_snapshots` — merge per-node registry snapshots into
  one fleet snapshot: counters sum, histograms merge exactly (the
  :meth:`~repro.obs.registry.StreamingHistogram.merge` algebra), gauges
  keep their ``node`` label so last-written values are not averaged
  away.  The result is registry-snapshot shaped, so the SLO engine and
  exporters consume it unchanged.
* :func:`check_ring` / :func:`topology_snapshot` — structural health of
  a :class:`~repro.p2p.chord.ChordRing` (duck-typed; no import cycle):
  successor/predecessor agreement against the sorted-id ground truth,
  orphaned-key detection, replication deficits.
* :func:`default_fleet_slos` — fleet objectives over the aggregated
  snapshot, evaluated by the existing
  :class:`~repro.obs.slo.SloEngine`.
* :func:`node_bundle` — a node-scoped slice of a flight recorder's
  rings (events/spans filtered by node attribution) with the topology
  snapshot embedded, still a valid post-mortem bundle.
* ``FLEET_*.json`` artifact (write/read/validate) and the
  ``BENCH_fleet.json`` bridge (base bench schema + per-row ``fleet``
  extension block, mirroring the SLO artifact), plus
  :func:`render_fleet` — the text behind ``repro obs fleet``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .flightrec import validate_postmortem_bundle
from .registry import StreamingHistogram
from .scope import NODE_LABEL
from .slo import SloEngine, SloEvaluation, SloSpec

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "aggregate_snapshots",
    "gauge_table",
    "check_ring",
    "topology_snapshot",
    "default_fleet_slos",
    "evaluation_rows",
    "fleet_payload",
    "write_fleet_json",
    "read_fleet_json",
    "validate_fleet_payload",
    "fleet_to_bench_rows",
    "validate_fleet_bench_payload",
    "node_bundle",
    "render_fleet",
    "evaluate_fleet_slos",
]

FLEET_SCHEMA_VERSION = 1

Snapshot = Dict[str, List[Dict[str, Any]]]


def _labels_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


# ---------------------------------------------------------------------- #
# cross-node aggregation


def aggregate_snapshots(per_node: Dict[str, Snapshot]) -> Snapshot:
    """Merge per-node snapshots (``node`` label stripped) into one.

    Counters with identical remaining labels sum; histograms merge with
    the exact :meth:`StreamingHistogram.merge` algebra (count/sum/min/
    max and per-bucket counts add); gauges are *not* merged — a gauge is
    a last-written value, so each keeps its ``node`` label and the
    fleet snapshot carries one entry per node (see :func:`gauge_table`).
    """
    counters: Dict[Tuple[str, Tuple], float] = {}
    histograms: Dict[Tuple[str, Tuple], StreamingHistogram] = {}
    label_sets: Dict[Tuple[str, Tuple], Dict[str, Any]] = {}
    gauges: Dict[str, List[Dict[str, Any]]] = {}
    for node in sorted(per_node):
        for name, entries in per_node[node].items():
            for entry in entries:
                labels = dict(entry.get("labels") or {})
                kind = entry.get("kind")
                if kind == "gauge":
                    labelled = dict(labels)
                    labelled[NODE_LABEL] = node
                    gauges.setdefault(name, []).append(
                        {
                            "labels": labelled,
                            "kind": "gauge",
                            "value": entry.get("value"),
                        }
                    )
                    continue
                key = (name, _labels_key(labels))
                label_sets.setdefault(key, labels)
                if kind == "histogram":
                    merged = histograms.setdefault(key, StreamingHistogram())
                    merged.merge_serialized(
                        entry.get("summary") or {}, entry.get("buckets") or {}
                    )
                else:
                    value = entry.get("value")
                    if isinstance(value, (int, float)):
                        counters[key] = counters.get(key, 0.0) + value
    out: Snapshot = {}
    for (name, _), value in counters.items():
        out.setdefault(name, []).append(
            {
                "labels": label_sets[(name, _)],
                "kind": "counter",
                "value": value,
            }
        )
    for (name, _), histogram in histograms.items():
        out.setdefault(name, []).append(
            {
                "labels": label_sets[(name, _)],
                "kind": "histogram",
                "summary": histogram.summary(),
                "buckets": histogram.bucket_counts(),
            }
        )
    for name, entries in gauges.items():
        out.setdefault(name, []).extend(entries)
    return out


def gauge_table(per_node: Dict[str, Snapshot]) -> Dict[str, Dict[str, float]]:
    """Per-node gauge values: ``rendered-gauge-name -> {node: value}``."""
    table: Dict[str, Dict[str, float]] = {}
    for node in sorted(per_node):
        for name, entries in per_node[node].items():
            for entry in entries:
                if entry.get("kind") != "gauge":
                    continue
                labels = dict(entry.get("labels") or {})
                rendered = name
                if labels:
                    rendered += (
                        "{"
                        + ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
                        + "}"
                    )
                value = entry.get("value")
                if isinstance(value, (int, float)):
                    table.setdefault(rendered, {})[node] = float(value)
    return table


# ---------------------------------------------------------------------- #
# ring structure: topology snapshot + consistency checker


def topology_snapshot(ring) -> Dict[str, Any]:
    """A JSON-safe structural snapshot of a ChordRing (duck-typed)."""
    nodes = []
    for name in sorted(ring.nodes, key=lambda n: ring.nodes[n].node_id):
        node = ring.nodes[name]
        nodes.append(
            {
                "name": name,
                "id": node.node_id,
                "successor": node.successor,
                "successors": list(node.successors),
                "predecessor": node.predecessor,
                "n_keys": len(node.storage),
                "n_values": sum(len(v) for v in node.storage.values()),
            }
        )
    return {
        "m_bits": ring._m,
        "replicas": ring._replicas,
        "n_nodes": len(nodes),
        "nodes": nodes,
    }


def check_ring(ring) -> Dict[str, Any]:
    """Structural consistency of a ChordRing against central ground truth.

    Checks, with the sorted node ids as the reference ring:

    * **successor agreement** — each node's successor pointer names the
      next node clockwise;
    * **predecessor agreement** — each node's predecessor pointer names
      the previous node (``None`` is tolerated only on a 1-node ring);
    * **orphaned keys** — a key stored *somewhere* must also be stored
      at its responsible node, else lookups route to an empty owner;
    * **replication deficits** — each owned key should be held by
      ``min(replicas, n_nodes)`` nodes.

    ``ok`` is True only when every list is empty — the CI gate.
    """
    names = sorted(ring.nodes, key=lambda n: ring.nodes[n].node_id)
    n = len(names)
    successor_errors: List[Dict[str, Any]] = []
    predecessor_errors: List[Dict[str, Any]] = []
    orphaned_keys: List[Dict[str, Any]] = []
    under_replicated: List[Dict[str, Any]] = []
    ids = [ring.nodes[name].node_id for name in names]

    def owner_of(key: int) -> str:
        for node_id, name in zip(ids, names):
            if node_id >= key:
                return name
        return names[0]

    for i, name in enumerate(names):
        node = ring.nodes[name]
        expected_succ = names[(i + 1) % n]
        if node.successor != expected_succ:
            successor_errors.append(
                {"node": name, "expected": expected_succ, "actual": node.successor}
            )
        expected_pred = names[(i - 1) % n]
        if n == 1:
            continue  # a lone node's predecessor may legitimately be None
        if node.predecessor != expected_pred:
            predecessor_errors.append(
                {"node": name, "expected": expected_pred, "actual": node.predecessor}
            )

    # key placement: every key seen anywhere must live at its owner,
    # replicated min(replicas, n) ways (replica copies double as the
    # hand-over trail, so extra copies are fine — deficits are not)
    expected_copies = min(ring._replicas, n)
    holders: Dict[int, List[str]] = {}
    for name in names:
        for key in ring.nodes[name].storage:
            if ring.nodes[name].storage[key]:
                holders.setdefault(key, []).append(name)
    for key in sorted(holders):
        owner = owner_of(key)
        if owner not in holders[key]:
            orphaned_keys.append(
                {"key": key, "owner": owner, "holders": sorted(holders[key])}
            )
        elif len(holders[key]) < expected_copies:
            under_replicated.append(
                {
                    "key": key,
                    "copies": len(holders[key]),
                    "expected": expected_copies,
                }
            )

    return {
        "ok": not (
            successor_errors
            or predecessor_errors
            or orphaned_keys
            or under_replicated
        ),
        "n_nodes": n,
        "n_keys": len(holders),
        "successor_errors": successor_errors,
        "predecessor_errors": predecessor_errors,
        "orphaned_keys": orphaned_keys,
        "under_replicated": under_replicated,
    }


# ---------------------------------------------------------------------- #
# fleet SLOs


def default_fleet_slos(
    *,
    delivery_objective: float = 0.95,
    hops_objective: float = 0.95,
    hops_threshold: float = 16.0,
    retry_objective: float = 0.90,
) -> List[SloSpec]:
    """Fleet objectives over the *aggregated* snapshot.

    The hop-count SLO rides the latency kind — ``threshold_s`` is a hop
    budget rather than seconds, which the engine never interprets.
    """
    return [
        SloSpec(
            name="fleet.delivery",
            kind="ratio",
            objective=delivery_objective,
            bad_metric="p2p.network.drops",
            total_metric="p2p.network.messages",
            description=(
                f"message drops under {1 - delivery_objective:.0%} fleet-wide"
            ),
        ),
        SloSpec(
            name="fleet.lookup_hops",
            kind="latency",
            objective=hops_objective,
            metric="p2p.chord.lookup_hops",
            threshold_s=hops_threshold,
            description=(
                f"{hops_objective:.0%} of lookups within "
                f"{hops_threshold:g} hops"
            ),
        ),
        SloSpec(
            name="fleet.retries",
            kind="ratio",
            objective=retry_objective,
            bad_metric="p2p.network.retries",
            total_metric="p2p.network.messages",
            description=(
                f"retried sends under {1 - retry_objective:.0%} fleet-wide"
            ),
        ),
    ]


def evaluation_rows(evaluation: SloEvaluation) -> List[Dict[str, Any]]:
    """An evaluation as the JSON-safe rows the FLEET artifact embeds."""
    rows = []
    for result in evaluation.results:
        consumed = result.budget_consumed
        rows.append(
            {
                "name": result.spec.name,
                "kind": result.spec.kind,
                "total": result.total,
                "bad": result.bad,
                "budget": result.spec.budget,
                "budget_consumed": None if math.isnan(consumed) else consumed,
                "burning": result.burning,
                "description": result.spec.description,
            }
        )
    return rows


# ---------------------------------------------------------------------- #
# the FLEET_*.json artifact


def fleet_payload(
    *,
    topology: Dict[str, Any],
    per_node: Dict[str, Snapshot],
    consistency: Dict[str, Any],
    aggregate: Optional[Snapshot] = None,
    slo: Optional[List[Dict[str, Any]]] = None,
    meta: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble and validate one fleet artifact payload."""
    payload = {
        "fleet": FLEET_SCHEMA_VERSION,
        "meta": meta or {},
        "topology": topology,
        "nodes": per_node,
        "aggregate": aggregate if aggregate is not None else aggregate_snapshots(per_node),
        "consistency": consistency,
        "slo": slo,
    }
    validate_fleet_payload(payload)
    return payload


def validate_fleet_payload(payload: Any) -> None:
    """Schema check for FLEET_*.json; raises ValueError on drift."""
    if not isinstance(payload, dict):
        raise ValueError("fleet payload must be an object")
    if payload.get("fleet") != FLEET_SCHEMA_VERSION:
        raise ValueError(
            f"fleet schema version must be {FLEET_SCHEMA_VERSION}, "
            f"got {payload.get('fleet')!r}"
        )
    if not isinstance(payload.get("meta"), dict):
        raise ValueError("meta: expected an object")
    topology = payload.get("topology")
    if not isinstance(topology, dict) or not isinstance(topology.get("nodes"), list):
        raise ValueError("topology: expected an object with a nodes list")
    nodes = payload.get("nodes")
    if not isinstance(nodes, dict):
        raise ValueError("nodes: expected an object of per-node snapshots")
    for node, snapshot in nodes.items():
        if not isinstance(snapshot, dict):
            raise ValueError(f"nodes[{node!r}]: expected a snapshot object")
    if not isinstance(payload.get("aggregate"), dict):
        raise ValueError("aggregate: expected a snapshot object")
    consistency = payload.get("consistency")
    if not isinstance(consistency, dict) or not isinstance(
        consistency.get("ok"), bool
    ):
        raise ValueError("consistency: expected an object with an ok bool")
    slo = payload.get("slo")
    if slo is not None:
        if not isinstance(slo, list):
            raise ValueError("slo: expected a list or null")
        for i, row in enumerate(slo):
            if not isinstance(row, dict) or "name" not in row or "burning" not in row:
                raise ValueError(f"slo[{i}]: expected an object with name/burning")


def write_fleet_json(path, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Validate and write a ``FLEET_*.json``; returns the payload."""
    validate_fleet_payload(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=repr)
        handle.write("\n")
    return payload


def read_fleet_json(path) -> Dict[str, Any]:
    """Load and validate a fleet artifact."""
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    validate_fleet_payload(payload)
    return payload


# ---------------------------------------------------------------------- #
# BENCH_fleet.json bridge (base bench schema + "fleet" extension block)


def _family_total(snapshot: Snapshot, name: str) -> float:
    total = 0.0
    for entry in snapshot.get(name, []):
        value = entry.get("value")
        if isinstance(value, (int, float)):
            total += value
    return total


def _family_histogram(snapshot: Snapshot, name: str) -> Optional[StreamingHistogram]:
    merged = StreamingHistogram()
    seen = False
    for entry in snapshot.get(name, []):
        if entry.get("kind") != "histogram":
            continue
        seen = True
        merged.merge_serialized(
            entry.get("summary") or {}, entry.get("buckets") or {}
        )
    return merged if seen else None


def fleet_to_bench_rows(payload: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Render a fleet payload as BENCH-schema rows.

    One ``fleet.node`` row per node (``mean_s``/``min_s`` carry the
    node's message count — "bigger is load", which the standard diff
    gate can trend) plus one ``fleet.consistency`` row whose value is
    the total issue count, so a regression gate flags a ring that
    stopped converging.
    """
    rows: List[Dict[str, Any]] = []
    for node in sorted(payload["nodes"]):
        snapshot = payload["nodes"][node]
        messages = _family_total(snapshot, "p2p.network.messages")
        drops = _family_total(snapshot, "p2p.network.drops")
        retries = _family_total(snapshot, "p2p.network.retries")
        hops = _family_histogram(snapshot, "p2p.chord.lookup_hops")
        rows.append(
            {
                "name": "fleet.node",
                "params": {"node": node},
                "stats": {
                    "mean_s": messages,
                    "min_s": messages,
                    "repeats": 1,
                },
                "fleet": {
                    "messages": messages,
                    "drops": drops,
                    "retries": retries,
                    "lookups": 0.0 if hops is None else float(hops.count),
                    "hops_p95": None if hops is None else hops.p95,
                },
            }
        )
    consistency = payload["consistency"]
    issues = (
        len(consistency.get("successor_errors", []))
        + len(consistency.get("predecessor_errors", []))
        + len(consistency.get("orphaned_keys", []))
        + len(consistency.get("under_replicated", []))
    )
    rows.append(
        {
            "name": "fleet.consistency",
            "params": {"n_nodes": consistency.get("n_nodes", 0)},
            "stats": {"mean_s": float(issues), "min_s": float(issues), "repeats": 1},
            "fleet": {
                "ok": bool(consistency.get("ok")),
                "issues": issues,
                "successor_errors": len(consistency.get("successor_errors", [])),
                "predecessor_errors": len(
                    consistency.get("predecessor_errors", [])
                ),
                "orphaned_keys": len(consistency.get("orphaned_keys", [])),
                "under_replicated": len(consistency.get("under_replicated", [])),
            },
        }
    )
    return rows


def validate_fleet_bench_payload(payload: Dict[str, Any]) -> None:
    """Schema check for BENCH_fleet.json beyond the base bench schema."""
    from .bench import validate_bench_payload

    validate_bench_payload(payload)
    if payload.get("bench") != "fleet":
        raise ValueError(f"bench field must be 'fleet', got {payload.get('bench')!r}")
    for i, row in enumerate(payload["results"]):
        fleet = row.get("fleet")
        if not isinstance(fleet, dict):
            raise ValueError(f"results[{i}]: missing fleet extension block")
        if row["name"] == "fleet.consistency":
            if not isinstance(fleet.get("ok"), bool):
                raise ValueError(f"results[{i}].fleet.ok: expected a bool")
        else:
            for key in ("messages", "drops", "retries"):
                if not isinstance(fleet.get(key), (int, float)) or isinstance(
                    fleet.get(key), bool
                ):
                    raise ValueError(f"results[{i}].fleet.{key}: expected a number")


# ---------------------------------------------------------------------- #
# node-scoped flight-recorder bundles


def node_bundle(
    recorder,
    node: str,
    *,
    topology: Optional[Dict[str, Any]] = None,
    reason: str = "fleet_node",
) -> Dict[str, Any]:
    """A flight-recorder bundle narrowed to one node's activity.

    Events are kept when their ``node`` field (stamped by the resilience
    emit funnel under a node scope) matches; spans are kept when their
    labels carry the node or their trace_id appears in a kept event —
    so one lookup's trace links its per-link hops to the node's events.
    The topology snapshot rides in the bundle's info block, and the
    result still passes :func:`validate_postmortem_bundle`.
    """
    bundle = recorder.bundle(reason=reason, node=node)
    wanted = str(node)
    events = [
        event
        for event in bundle.get("events", [])
        if str(event.get("node")) == wanted
    ]
    trace_ids = {
        event.get("trace_id") for event in events if event.get("trace_id")
    }
    spans = []
    for span in bundle.get("spans", []):
        labels = span.get("labels") or {}
        if str(labels.get(NODE_LABEL)) == wanted:
            spans.append(span)
        elif span.get("trace_id") and span["trace_id"] in trace_ids:
            spans.append(span)
    bundle["events"] = events
    bundle["spans"] = spans
    if topology is not None:
        bundle.setdefault("info", {})["topology"] = topology
    bundle.setdefault("info", {})["node"] = wanted
    validate_postmortem_bundle(bundle)
    return bundle


# ---------------------------------------------------------------------- #
# rendering (the text behind ``repro obs fleet``)


def render_fleet(payload: Dict[str, Any]) -> str:
    """Topology table, per-node metrics, consistency report, SLO lines."""
    topology = payload["topology"]
    consistency = payload["consistency"]
    lines = [
        f"fleet: {topology.get('n_nodes', 0)} nodes "
        f"(m_bits={topology.get('m_bits')}, replicas={topology.get('replicas')})"
    ]
    lines.append("topology:")
    lines.append(
        f"  {'node':<12} {'id':>8} {'successor':<12} "
        f"{'predecessor':<12} {'keys':>5} {'values':>7}"
    )
    for row in topology.get("nodes", []):
        lines.append(
            f"  {str(row.get('name')):<12} {row.get('id', 0):>8} "
            f"{str(row.get('successor')):<12} {str(row.get('predecessor')):<12} "
            f"{row.get('n_keys', 0):>5} {row.get('n_values', 0):>7}"
        )
    lines.append("per-node metrics:")
    lines.append(
        f"  {'node':<12} {'messages':>9} {'drops':>6} {'retries':>8} "
        f"{'lookups':>8} {'hops p95':>9}"
    )
    for node in sorted(payload["nodes"]):
        snapshot = payload["nodes"][node]
        messages = _family_total(snapshot, "p2p.network.messages")
        drops = _family_total(snapshot, "p2p.network.drops")
        retries = _family_total(snapshot, "p2p.network.retries")
        hops = _family_histogram(snapshot, "p2p.chord.lookup_hops")
        lookups = 0 if hops is None else int(hops.count)
        hops_p95 = "-" if hops is None or not hops.count else f"{hops.p95:.1f}"
        lines.append(
            f"  {node:<12} {messages:>9.0f} {drops:>6.0f} {retries:>8.0f} "
            f"{lookups:>8} {hops_p95:>9}"
        )
    aggregate = payload.get("aggregate") or {}
    total_messages = _family_total(aggregate, "p2p.network.messages")
    total_drops = _family_total(aggregate, "p2p.network.drops")
    hops = _family_histogram(aggregate, "p2p.chord.lookup_hops")
    lines.append(
        f"aggregate: messages={total_messages:.0f} drops={total_drops:.0f}"
        + (
            f" lookup hops p50/p95/p99 = "
            f"{hops.p50:.1f}/{hops.p95:.1f}/{hops.p99:.1f}"
            if hops is not None and hops.count
            else ""
        )
    )
    n_issues = (
        len(consistency.get("successor_errors", []))
        + len(consistency.get("predecessor_errors", []))
        + len(consistency.get("orphaned_keys", []))
        + len(consistency.get("under_replicated", []))
    )
    lines.append(
        "ring consistency: "
        + ("OK" if consistency.get("ok") else f"{n_issues} issue(s)")
    )
    for error in consistency.get("successor_errors", []):
        lines.append(
            f"  successor: {error['node']} expected {error['expected']} "
            f"got {error['actual']}"
        )
    for error in consistency.get("predecessor_errors", []):
        lines.append(
            f"  predecessor: {error['node']} expected {error['expected']} "
            f"got {error['actual']}"
        )
    for orphan in consistency.get("orphaned_keys", []):
        lines.append(
            f"  orphaned key {orphan['key']} (owner {orphan['owner']}, "
            f"held by {', '.join(orphan['holders'])})"
        )
    for deficit in consistency.get("under_replicated", []):
        lines.append(
            f"  under-replicated key {deficit['key']}: "
            f"{deficit['copies']}/{deficit['expected']} copies"
        )
    slo = payload.get("slo")
    if slo:
        lines.append("fleet SLOs:")
        for row in slo:
            status = "BURN" if row.get("burning") else "ok"
            consumed = row.get("budget_consumed")
            body = (
                "no traffic"
                if consumed is None
                else f"bad {row.get('bad', 0):g}/{row.get('total', 0):g} "
                f"consumed {consumed:.0%}"
            )
            lines.append(f"  {row['name']:<20} [{status:>4}] {body}")
    return "\n".join(lines)


def evaluate_fleet_slos(
    aggregate: Snapshot, specs: Optional[Sequence[SloSpec]] = None
) -> SloEvaluation:
    """Evaluate fleet SLOs over an aggregated snapshot."""
    engine = SloEngine(list(specs) if specs is not None else default_fleet_slos())
    return engine.evaluate(aggregate)
