"""Process-wide resilience health: breakers, quarantines, retries.

Every :class:`~repro.resilience.breaker.CircuitBreaker`,
:class:`~repro.resilience.quarantine.Quarantine`, and
:class:`~repro.resilience.retry.RetryPolicy` registers itself (by weak
reference — the registry never keeps serving objects alive) into
:data:`GLOBAL_HEALTH`; :func:`health_report` aggregates their live
state and :func:`render_health` renders it.  For post-hoc analysis
(``repro health <events.jsonl>``), :func:`summarize_events` folds a structured-event stream (the
``resilience.*`` events a chaos run wrote to JSONL) into the same
shape.
"""

from __future__ import annotations

import weakref
from collections import Counter
from typing import Dict, Iterable, List, Optional

__all__ = [
    "HealthRegistry",
    "GLOBAL_HEALTH",
    "health_report",
    "render_health",
    "summarize_events",
    "render_event_summary",
    "RESILIENCE_EVENTS",
    "P2P_EVENTS",
    "CLUSTER_EVENTS",
]

#: Event names the resilience layer emits (see runtime.emit call sites).
RESILIENCE_EVENTS = (
    "fault_injected",
    "quarantined",
    "retry",
    "retry_exhausted",
    "breaker_open",
    "breaker_half_open",
    "breaker_closed",
    "cache_load_failed",
    "calibration_degraded",
)

#: Event names the P2P overlay emits through the same funnel (see
#: repro.p2p.chord) — counted by :func:`summarize_events` so chaos/fleet
#: event logs summarize ring repair alongside resilience activity.
P2P_EVENTS = (
    "chord_lookup",
    "chord_successor_rebuild",
    "chord_key_handover",
    "chord_node_leave",
)

#: Event names the sharded assessment cluster emits (see repro.cluster)
#: — quorum reads, read-repair, hinted handoff, anti-entropy, and the
#: node-kill fault site all land in the same event funnel.
CLUSTER_EVENTS = (
    "node_killed",
    "cluster_rpc_failed",
    "cluster_hint_stored",
    "cluster_hint_replayed",
    "cluster_hint_lost",
    "cluster_read_repair",
    "cluster_quorum_lost",
    "cluster_degraded_verdict",
    "cluster_anti_entropy",
    "cluster_snapshot_shipped",
    "cluster_node_recovered",
)


class HealthRegistry:
    """Weak registry of the process's live resilience components."""

    def __init__(self) -> None:
        self._breakers: List[weakref.ref] = []
        self._quarantines: List[weakref.ref] = []
        self._retries: List[weakref.ref] = []
        self._networks: List[weakref.ref] = []
        self._clusters: List[weakref.ref] = []

    def register_breaker(self, breaker) -> None:
        """Track a :class:`~repro.resilience.breaker.CircuitBreaker`."""
        self._breakers.append(weakref.ref(breaker))

    def register_quarantine(self, quarantine) -> None:
        """Track a :class:`~repro.resilience.quarantine.Quarantine`."""
        self._quarantines.append(weakref.ref(quarantine))

    def register_retry(self, policy) -> None:
        """Track a :class:`~repro.resilience.retry.RetryPolicy`."""
        self._retries.append(weakref.ref(policy))

    def register_network(self, network) -> None:
        """Track a :class:`~repro.p2p.network.SimulatedNetwork`."""
        self._networks.append(weakref.ref(network))

    def register_cluster(self, cluster) -> None:
        """Track a :class:`~repro.cluster.ClusterAssessmentService`."""
        self._clusters.append(weakref.ref(cluster))

    @staticmethod
    def _alive(refs: List[weakref.ref]) -> Iterable:
        live = []
        for ref in refs:
            obj = ref()
            if obj is not None:
                live.append(obj)
        refs[:] = [weakref.ref(obj) for obj in live]
        return live

    def report(self) -> Dict[str, object]:
        """Aggregate live state of every registered component."""
        breakers = [b.stats() for b in self._alive(self._breakers)]
        quarantines = [q.stats() for q in self._alive(self._quarantines)]
        retries = [r.stats() for r in self._alive(self._retries)]
        networks = [n.stats_report() for n in self._alive(self._networks)]
        clusters = [c.stats_report() for c in self._alive(self._clusters)]
        return {
            "breakers": breakers,
            "quarantines": quarantines,
            "retries": retries,
            "networks": networks,
            "clusters": clusters,
            "open_breakers": sum(1 for b in breakers if b["state"] != "closed"),
            "quarantine_depth": sum(q["depth"] for q in quarantines),
            "total_retries": sum(r["retries"] for r in retries),
            "network_messages": sum(n["messages"] for n in networks),
            "network_drops": sum(n["drops"] for n in networks),
            "network_retries": sum(n["retries"] for n in networks),
            "open_hints": sum(c["open_hints"] for c in clusters),
        }

    def clear(self) -> None:
        """Drop every registration (test isolation)."""
        self._breakers.clear()
        self._quarantines.clear()
        self._retries.clear()
        self._networks.clear()
        self._clusters.clear()


#: The process-wide registry :func:`health_report` reports on.
GLOBAL_HEALTH = HealthRegistry()


def health_report(registry: Optional[HealthRegistry] = None) -> Dict[str, object]:
    """The live health report (of ``registry`` or the global one)."""
    return (registry or GLOBAL_HEALTH).report()


def render_health(report: Dict[str, object]) -> str:
    """Human-readable rendering of a health report."""
    lines = ["resilience health"]
    lines.append(
        f"  breakers: {len(report['breakers'])} "
        f"({report['open_breakers']} not closed)"
    )
    for stats in report["breakers"]:
        lines.append(
            f"    {stats['name']:<28s} {stats['state']:<9s} "
            f"failures={stats['failures']} rejections={stats['rejections']} "
            f"opens={stats['opens']}"
        )
    lines.append(
        f"  quarantines: {len(report['quarantines'])} "
        f"(depth {report['quarantine_depth']})"
    )
    for stats in report["quarantines"]:
        lines.append(
            f"    {stats['name']:<28s} depth={stats['depth']}/{stats['capacity']} "
            f"quarantined={stats['quarantined']} dropped={stats['dropped']}"
        )
    lines.append(
        f"  retry policies: {len(report['retries'])} "
        f"(total retries {report['total_retries']})"
    )
    for stats in report["retries"]:
        lines.append(
            f"    {stats['name']:<28s} calls={stats['calls']} "
            f"retries={stats['retries']} exhausted={stats['exhausted']}"
        )
    networks = report.get("networks", [])
    lines.append(
        f"  networks: {len(networks)} "
        f"(messages {report.get('network_messages', 0)}, "
        f"drops {report.get('network_drops', 0)}, "
        f"retries {report.get('network_retries', 0)})"
    )
    for stats in networks:
        lines.append(
            f"    {stats['name']:<28s} nodes={stats['nodes']} "
            f"messages={stats['messages']} drops={stats['drops']} "
            f"retries={stats['retries']}"
        )
        by_type = stats.get("by_type") or {}
        if by_type:
            ranked = sorted(by_type.items(), key=lambda kv: (-kv[1], kv[0]))
            rendered = " ".join(f"{name}={count}" for name, count in ranked)
            lines.append(f"      by type: {rendered}")
    clusters = report.get("clusters", [])
    if clusters:
        lines.append(
            f"  clusters: {len(clusters)} "
            f"(open hints {report.get('open_hints', 0)})"
        )
    for stats in clusters:
        replication = stats.get("replication", {})
        lines.append(
            f"    {stats['name']:<28s} nodes={stats['alive']}/{stats['nodes']} "
            f"rf={stats['replicas']} quorum={stats['read_quorum']} "
            f"servers={stats['servers']} hints={stats['open_hints']}"
        )
        lines.append(
            f"      replication: satisfied={replication.get('satisfied', 0)} "
            f"violated={replication.get('violated', 0)}"
        )
        ownership = stats.get("ownership") or {}
        if ownership:
            rendered = " ".join(
                f"{node}={count}" for node, count in sorted(ownership.items())
            )
            lines.append(f"      ownership: {rendered}")
    return "\n".join(lines)


def summarize_events(events: Iterable[Dict[str, object]]) -> Dict[str, object]:
    """Fold a structured-event stream into a resilience summary.

    Accepts the dict records of :func:`repro.obs.read_events`; events
    outside the resilience vocabulary are ignored, so a full run log
    can be passed as-is.
    """
    counts: Counter = Counter()
    by_site: Counter = Counter()
    for record in events:
        name = record.get("event")
        if (
            name not in RESILIENCE_EVENTS
            and name not in P2P_EVENTS
            and name not in CLUSTER_EVENTS
        ):
            continue
        counts[str(name)] += 1
        site = record.get("site")
        if site:
            by_site[str(site)] += 1
    return {"events": dict(counts), "by_site": dict(by_site)}


def render_event_summary(summary: Dict[str, object]) -> str:
    """Human-readable rendering of :func:`summarize_events` output."""
    lines = ["resilience events"]
    if not summary["events"]:
        lines.append("  (no resilience events in this log)")
        return "\n".join(lines)
    for name, count in sorted(summary["events"].items()):
        lines.append(f"  {name:<24s} {count}")
    if summary["by_site"]:
        lines.append("  by site:")
        for site, count in sorted(summary["by_site"].items()):
            lines.append(f"    {site:<24s} {count}")
    return "\n".join(lines)
