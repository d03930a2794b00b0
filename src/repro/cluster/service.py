"""Replicated sharded assessment: the cluster facade.

:class:`ClusterAssessmentService` presents the single-node
:class:`~repro.serve.AssessmentService` surface (``record_batch`` /
``assess_many``) over a fleet of :class:`~repro.cluster.node.ClusterNode`
shards.  Servers are consistent-hashed onto an identifier circle
built from the member list (:class:`~repro.cluster.partition.HashRingView`,
the cluster's only ring: no overlay runs between the shards) and
replicated on the K-member successor set of their owner; the facade is
the coordinator:

* **writes** go to all K replicas of a server's preference list; an
  unreachable replica's share is parked on a *hint holder* (the first
  alive member past the preference list) and replayed when the replica
  recovers — hinted handoff;
* **reads** are quorum reads: replicas are asked in successor order
  until R of K answer; divergent replica digests trigger *read repair*
  before the verdict is returned; fewer than R answers degrade the
  verdict (``Assessment.degraded=True``), zero answers yield the
  fail-safe UNTRUSTED verdict rather than an exception;
* **anti-entropy** asks every alive replica of a preference group for
  its per-server content digests and repairs exactly the servers whose
  digests differ;
* **membership changes** repair every server whose preference list
  moved, across its reachable old and new replicas.

Repair is one path for all three: pull every reachable replica's copy
(``cluster_pull``), merge by event digest in ``(time, digest)`` order,
and reset each replica whose digest differs (``cluster_reset``).  A
replica that joins therefore holds the union of every reachable copy.

Every inter-shard RPC runs under the resilience stack: a shared
:class:`~repro.resilience.retry.RetryPolicy` absorbs message loss, a
per-peer :class:`~repro.resilience.breaker.CircuitBreaker` stops
hammering dead members, and every hop carries the ambient
:class:`~repro.obs.context.TraceContext` so cluster traffic lands in
the span log alongside single-node serving.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.calibration import ThresholdCalibrator
from ..core.config import AssessorConfig
from ..core.verdict import Assessment, AssessmentStatus
from ..feedback.records import Feedback
from ..obs import context as _ctx
from ..obs import runtime as _obs
from ..p2p.network import NodeUnreachable, SimulatedNetwork
from ..resilience import runtime as _res
from ..resilience.breaker import CircuitBreaker
from ..resilience.retry import RetryExhausted, RetryPolicy
from .node import ClusterNode, event_digest, rolling_digest
from .partition import HashRingView

__all__ = ["ClusterAssessmentService", "PeerUnavailable"]


class PeerUnavailable(RuntimeError):
    """A request to a cluster peer timed out (retryable)."""


class ClusterAssessmentService:
    """Assessment over N shards with K-way replication and R-quorum reads."""

    def __init__(
        self,
        config: AssessorConfig,
        *,
        calibrator: Optional[ThresholdCalibrator] = None,
        n_nodes: int = 4,
        replicas: int = 3,
        read_quorum: int = 2,
        network: Optional[SimulatedNetwork] = None,
        m_bits: int = 32,
        node_prefix: str = "shard",
        name: str = "cluster",
        retry_policy: Optional[RetryPolicy] = None,
    ):
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if not 1 <= read_quorum <= replicas:
            raise ValueError(
                f"read_quorum must lie in [1, {replicas}], got {read_quorum}"
            )
        self.name = name
        self._config = config
        # One calibrator across every shard, for its cache: each ε
        # threshold is a pure function of its key and the seed, so any
        # calibrator with the same settings and seed (a single-node
        # reference, say) gives the same verdicts.
        self._calibrator = calibrator or ThresholdCalibrator(
            confidence=config.test_config.confidence,
            n_sets=config.test_config.calibration_sets,
            distance=config.test_config.distance,
            p_quantum=config.test_config.p_quantum,
        )
        self._network = network or SimulatedNetwork(name=f"{name}-net")
        self._m_bits = m_bits
        self._replicas = replicas
        self.read_quorum = read_quorum
        self._retry = retry_policy or RetryPolicy(
            max_attempts=3,
            base_delay=0.0,
            retry_on=(PeerUnavailable,),
            name=f"{name}.rpc",
        )
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._members: Dict[str, ClusterNode] = {}
        self._dead: set = set()
        #: every server ever recorded, in first-appearance order (the
        #: default assess_many batch, and the anti-entropy sweep domain)
        self._servers: Dict[str, None] = {}
        for i in range(n_nodes):
            self._spawn(f"{node_prefix}-{i:02d}")
        self._ring = self._build_ring()

    # ------------------------------------------------------------------ #
    # membership plumbing

    def _spawn(self, name: str) -> None:
        self._members[name] = ClusterNode(
            name, self._network, config=self._config, calibrator=self._calibrator
        )

    def _build_ring(self) -> HashRingView:
        return HashRingView(
            self._members, m_bits=self._m_bits, replicas=self._replicas
        )

    def _alive_members(self) -> List[str]:
        return [
            name
            for name in self._members
            if name not in self._dead and self._network.is_alive(name)
        ]

    @property
    def network(self) -> SimulatedNetwork:
        return self._network

    @property
    def members(self) -> List[str]:
        return list(self._members)

    @property
    def servers(self) -> List[str]:
        return list(self._servers)

    # ------------------------------------------------------------------ #
    # the RPC layer: retry + per-peer breaker + timeout semantics

    def _breaker(self, peer: str) -> CircuitBreaker:
        breaker = self._breakers.get(peer)
        if breaker is None:
            breaker = self._breakers[peer] = CircuitBreaker(
                name=f"{self.name}.peer.{peer}"
            )
        return breaker

    def _send_once(self, dst: str, message_type: str, payload: Dict[str, Any]):
        reply = self._network.send(dst, message_type, payload)
        if reply is None:
            # dropped request or reply: retryable timeout.
            # NodeUnreachable propagates — a dead peer does not come
            # back because we ask again; the breaker handles it.
            raise PeerUnavailable(dst)
        return reply

    def _call(
        self, dst: str, message_type: str, payload: Dict[str, Any]
    ) -> Optional[Any]:
        """One guarded RPC; ``None`` means the peer could not serve it."""
        breaker = self._breaker(dst)
        if not breaker.allow():
            _res.emit(
                "cluster_rpc_failed",
                node=dst,
                type=message_type,
                reason="breaker_open",
            )
            return None
        try:
            reply = self._retry.call(self._send_once, dst, message_type, payload)
        except (RetryExhausted, NodeUnreachable) as exc:
            breaker.record_failure()
            _res.emit(
                "cluster_rpc_failed",
                node=dst,
                type=message_type,
                reason=type(exc).__name__,
            )
            if _obs.enabled:
                _obs.registry.inc("cluster.rpc.failed", type=message_type)
            return None
        breaker.record_success()
        return reply

    # ------------------------------------------------------------------ #
    # write path

    def record_batch(self, feedbacks: Iterable[Feedback]) -> Dict[str, int]:
        """Route a feedback batch to every replica of each server.

        Returns ``{"events", "servers", "replica_writes", "hinted",
        "skipped"}``.  ``replica_writes`` counts the replica replies that
        stored at least one event; ``skipped`` sums the replicas' skips
        by reason (``below_watermark``, ``duplicate_digest``), so an
        event every replica dropped does not pass for a write.  An unreachable
        replica never loses its share: the events park on a hint holder
        and replay on recovery (or, failing even that, the loss is
        emitted as ``cluster_hint_lost`` — surviving replicas still hold
        the data, anti-entropy restores the factor later).
        """
        feedbacks = list(feedbacks)
        servers = list(dict.fromkeys(fb.server for fb in feedbacks))
        self._servers.update(dict.fromkeys(servers))
        ctx = _ctx.current()
        if ctx is None and _obs.enabled:
            ctx = _ctx.new_root(op="cluster_record_batch")
        writes = hinted = 0
        skipped = {"below_watermark": 0, "duplicate_digest": 0}
        with _ctx.use(ctx):
            with _obs.span("cluster.record_batch", servers=len(servers)):
                # one message per preference list, in arrival order
                messages: Dict[Tuple[str, ...], List[Feedback]] = {}
                route: Dict[str, List[Feedback]] = {}
                for pref, group in self._ring.partition(servers).items():
                    message = messages[pref] = []
                    for server in group:
                        route[server] = message
                for feedback in feedbacks:
                    route[feedback.server].append(feedback)
                for pref, events in messages.items():
                    for member in pref:
                        reply = self._call(
                            member, "cluster_record", {"events": events}
                        )
                        if reply is None:
                            hinted += self._hint(member, pref, events)
                            continue
                        if reply["applied"]:
                            writes += 1
                        for reason, count in reply["skipped"].items():
                            skipped[reason] += count
        return {
            "events": len(feedbacks),
            "servers": len(servers),
            "replica_writes": writes,
            "hinted": hinted,
            "skipped": skipped,
        }

    def _hint(
        self, target: str, pref: Tuple[str, ...], events: List[Feedback]
    ) -> int:
        """Park a failed replica write on the first member past ``pref``."""
        holder = self._hint_holder(pref)
        reply = None
        if holder is not None:
            reply = self._call(
                holder, "cluster_hint_store", {"target": target, "events": events}
            )
        if reply is None:
            _res.emit(
                "cluster_hint_lost", target=target, events=len(events)
            )
            return 0
        _res.emit(
            "cluster_hint_stored",
            holder=holder,
            target=target,
            events=len(events),
        )
        return len(events)

    def _hint_holder(self, pref: Tuple[str, ...]) -> Optional[str]:
        members = self._ring.members  # ring order
        start = members.index(pref[0])
        n = len(members)
        for i in range(1, n):
            candidate = members[(start + i) % n]
            if candidate in pref or candidate in self._dead:
                continue
            if self._network.is_alive(candidate):
                return candidate
        return None

    # ------------------------------------------------------------------ #
    # read path

    def assess_many(
        self, server_ids: Optional[Iterable[str]] = None
    ) -> Dict[str, Assessment]:
        """Quorum-read assessments for a batch (default: every server).

        Healthy cluster: verdicts are bit-identical to a single-node
        service sharing this cluster's calibrator.  Replicas lost below
        the read quorum degrade the verdict; a server with *no* reachable
        replica gets the fail-safe UNTRUSTED verdict — never an
        exception.  Unknown servers raise :class:`KeyError`.
        """
        ids = list(server_ids) if server_ids is not None else list(self._servers)
        unknown = [s for s in ids if s not in self._servers]
        if unknown:
            raise KeyError(f"unknown servers {unknown[:3]!r}")
        ctx = _ctx.current()
        if ctx is None and _obs.enabled:
            ctx = _ctx.new_root(op="cluster_assess_many")
        results: Dict[str, Assessment] = {}
        with _ctx.use(ctx):
            if _obs.enabled:
                _obs.registry.inc("cluster.requests")
            with _obs.span("cluster.assess_many", batch=len(ids)):
                for pref, group in self._ring.partition(ids).items():
                    results.update(self._assess_group(pref, group))
        return {s: results[s] for s in ids}

    def _assess_group(
        self, pref: Tuple[str, ...], servers: List[str]
    ) -> Dict[str, Assessment]:
        answers: Dict[str, List[Tuple[str, Dict[str, Any]]]] = {
            s: [] for s in servers
        }
        # pass 1 — the preference list in successor order, asking each
        # replica only about the servers still short of quorum; once a
        # server has an assessment, later replicas send only their
        # digest, which is all the quorum compares
        for member in pref:
            needed = [s for s in servers if len(answers[s]) < self.read_quorum]
            if not needed:
                break
            reply = self._call(
                member,
                "cluster_assess",
                {
                    "servers": needed,
                    "digest_only": [s for s in needed if answers[s]],
                },
            )
            if reply is None:
                continue
            for server, result in reply["results"].items():
                if result["n"] > 0:
                    answers[server].append((member, result))
        # pass 2 — servers with no answer at all: scan members outside
        # the preference list (stale copies from an older ring layout
        # beat a fail-safe verdict)
        orphans = [s for s in servers if not answers[s]]
        if orphans:
            for member in self._ring.members:
                if member in pref or member in self._dead:
                    continue
                still = [s for s in orphans if not answers[s]]
                if not still:
                    break
                reply = self._call(member, "cluster_assess", {"servers": still})
                if reply is None:
                    continue
                for server, result in reply["results"].items():
                    if result["n"] > 0:
                        answers[server].append((member, result))
        return {
            s: self._finalize(s, pref, answers[s]) for s in servers
        }

    def _finalize(
        self,
        server: str,
        pref: Tuple[str, ...],
        answers: List[Tuple[str, Dict[str, Any]]],
    ) -> Assessment:
        if not answers:
            _res.emit("cluster_quorum_lost", server=server)
            if _obs.enabled:
                _obs.registry.inc("cluster.quorum_lost")
            return Assessment(
                status=AssessmentStatus.UNTRUSTED,
                trust_value=None,
                behavior=None,
                server=server,
                degraded=True,
            )
        digests = {result["digest"] for _, result in answers}
        assessment: Optional[Assessment] = answers[0][1]["assessment"]
        if len(digests) > 1:
            repaired = self._read_repair(server, pref)
            if repaired is not None:
                assessment = repaired
        if assessment is None:
            # divergence we could not reconcile — fall back to the
            # first respondent's answer, degraded below
            assessment = answers[0][1]["assessment"]
        if len(answers) < self.read_quorum:
            _res.emit(
                "cluster_degraded_verdict", server=server, answers=len(answers)
            )
            if _obs.enabled:
                _obs.registry.inc("cluster.degraded_verdicts")
            assessment = replace(assessment, degraded=True)
        return assessment

    def _reconcile(
        self, server: str, sources: Sequence[str], targets: Sequence[str]
    ) -> Optional[Tuple[Dict[str, int], List[str]]]:
        """Merge every reachable copy of ``server``; reset the stragglers.

        Pulls ``server`` from each reachable member of ``sources``,
        unions the streams by event digest in ``(time, digest)`` order,
        and resets each pulled member of ``targets`` whose digest
        differs from the merged stream's.  Returns the counts and the
        targets that now hold the merged digest (``None`` if no source
        answered).
        """
        pulls: List[Tuple[str, Dict[str, Any]]] = []
        for member in sources:
            if member in self._dead:
                continue
            reply = self._call(member, "cluster_pull", {"server": server})
            if reply is not None:
                pulls.append((member, reply))
        if not pulls:
            return None
        merged: Dict[int, Feedback] = {}
        for _, reply in pulls:
            for feedback in reply["events"]:
                merged[event_digest(feedback)] = feedback
        keyed = sorted(merged.items(), key=lambda item: (item[1].time, item[0]))
        ordered = [feedback for _, feedback in keyed]
        expected = rolling_digest(digest for digest, _ in keyed)
        holders: List[str] = []
        reset = 0
        for member, reply in pulls:
            if member not in targets:
                continue
            if reply["digest"] != expected:
                if self._call(
                    member, "cluster_reset", {"server": server, "events": ordered}
                ) is None:
                    continue
                reset += 1
            holders.append(member)
        counts = {"replicas": len(pulls), "reset": reset, "events": len(ordered)}
        return counts, holders

    def _repair(self, server: str, pref: Sequence[str]) -> Optional[str]:
        """Reconcile ``server``'s preference list; a replica holding the
        merged stream, or ``None``."""
        repair = self._reconcile(server, pref, pref)
        if repair is None:
            return None
        counts, holders = repair
        _res.emit("cluster_read_repair", server=server, **counts)
        if _obs.enabled:
            _obs.registry.inc("cluster.read_repairs")
        return holders[0] if holders else None

    def _read_repair(
        self, server: str, pref: Sequence[str]
    ) -> Optional[Assessment]:
        """Repair ``server`` and re-assess it on a repaired replica
        (``None`` if no replica holds the merged stream)."""
        holder = self._repair(server, pref)
        if holder is None:
            return None
        reply = self._call(holder, "cluster_assess", {"servers": [server]})
        if reply is None:
            return None
        result = reply["results"][server]
        return result["assessment"] if result["n"] > 0 else None

    # ------------------------------------------------------------------ #
    # anti-entropy

    def anti_entropy(self) -> Dict[str, int]:
        """Compare every replica group's digests; repair divergent servers.

        Each alive replica of a preference group answers one digest-only
        ``cluster_assess`` for the whole group; the servers whose
        digests differ are repaired.  A group is ``synced`` when every
        alive replica answered and agreed, ``skipped`` when fewer than
        two are alive or one did not answer.
        """
        ctx = _ctx.current()
        if ctx is None and _obs.enabled:
            ctx = _ctx.new_root(op="cluster_anti_entropy")
        summary = {"groups": 0, "synced": 0, "diverged": 0, "repaired": 0, "skipped": 0}
        with _ctx.use(ctx):
            with _obs.span("cluster.anti_entropy"):
                for pref, group in self._ring.partition(list(self._servers)).items():
                    summary["groups"] += 1
                    alive = [
                        m
                        for m in pref
                        if m not in self._dead and self._network.is_alive(m)
                    ]
                    if len(alive) < 2:
                        summary["skipped"] += 1
                        continue
                    reference: Optional[Dict[str, Dict[str, Any]]] = None
                    divergent: set = set()
                    answered = 0
                    for member in alive:
                        reply = self._call(
                            member,
                            "cluster_assess",
                            {"servers": group, "digest_only": group},
                        )
                        if reply is None:
                            continue
                        answered += 1
                        results = reply["results"]
                        if reference is None:
                            reference = results
                            continue
                        divergent.update(
                            s
                            for s in group
                            if results[s]["digest"] != reference[s]["digest"]
                        )
                    if not divergent:
                        summary["synced" if answered == len(alive) else "skipped"] += 1
                        continue
                    summary["diverged"] += 1
                    for server in sorted(divergent):
                        if self._repair(server, pref) is not None:
                            summary["repaired"] += 1
        _res.emit("cluster_anti_entropy", **summary)
        return summary

    # ------------------------------------------------------------------ #
    # membership operations

    def add_node(self, name: str) -> None:
        """Join a node and repair every server it now replicates."""
        if name in self._members:
            raise ValueError(f"node {name!r} already in the cluster")
        old_ring = self._ring
        self._spawn(name)
        self._ring = self._build_ring()
        self._rebalance(name, old_ring, self._ring)

    def remove_node(self, name: str) -> None:
        """Retire a member after repairing the servers it replicated; it
        is a source while alive (a crash is ``kill``, then this)."""
        if name not in self._members:
            raise KeyError(f"node {name!r} not in the cluster")
        new_members = [m for m in self._members if m != name]
        if not new_members:
            raise ValueError("cannot remove the last cluster member")
        new_ring = HashRingView(
            new_members, m_bits=self._m_bits, replicas=self._replicas
        )
        self._rebalance(name, self._ring, new_ring)
        if self._network.is_alive(name):
            self._network.unregister(name)
        del self._members[name]
        self._dead.discard(name)
        self._breakers.pop(name, None)
        self._ring = new_ring

    def _rebalance(
        self, name: str, old_ring: HashRingView, new_ring: HashRingView
    ) -> None:
        """Reconcile each server whose preference list ``name`` enters
        or leaves, across its reachable old and new replicas."""
        moved = reset = events = 0
        for server in self._servers:
            old = old_ring.preference_list(server)
            new = new_ring.preference_list(server)
            if name not in old and name not in new:
                continue
            moved += 1
            repair = self._reconcile(server, list(dict.fromkeys(old + new)), new)
            if repair is not None:
                reset += repair[0]["reset"]
                events += repair[0]["events"]
        _res.emit(
            "cluster_rebalanced", node=name, servers=moved, reset=reset, events=events
        )

    # ------------------------------------------------------------------ #
    # failure and recovery

    def kill(self, name: str) -> None:
        """Crash a member (keeps its ring position; hints will queue)."""
        if name not in self._members:
            raise KeyError(f"node {name!r} not in the cluster")
        if self._network.is_alive(name):
            self._network.unregister(name)
            _res.emit("node_killed", node=name, site="cluster.kill")
        self._dead.add(name)

    def recover(self, name: str) -> int:
        """Bring a crashed member back and replay its queued hints.

        Returns the number of hinted events replayed onto the node.
        """
        if name not in self._members:
            raise KeyError(f"node {name!r} not in the cluster")
        self._dead.discard(name)
        if not self._network.is_alive(name):
            self._members[name].rejoin()
        self._breaker(name).reset()
        replayed = 0
        for member in self._alive_members():
            if member == name:
                continue
            if not self._members[member].hints.get(name):
                continue
            reply = self._call(member, "cluster_hint_replay", {"target": name})
            if reply is not None:
                replayed += reply["replayed"]
        if replayed:
            _res.emit("cluster_hint_replayed", node=name, events=replayed)
        _res.emit("cluster_node_recovered", node=name, replayed=replayed)
        return replayed

    # ------------------------------------------------------------------ #
    # health

    def open_hints(self) -> int:
        """Hinted events currently parked anywhere in the cluster."""
        return sum(node.open_hints() for node in self._members.values())

    def stats_report(self) -> Dict[str, Any]:
        """Shard ownership and replication of the live membership."""
        alive = set(self._alive_members())
        ownership: Counter = Counter()
        satisfied = violated = 0
        required = min(self._replicas, len(alive)) if alive else 0
        for server in self._servers:
            pref = self._ring.preference_list(server)
            ownership[pref[0]] += 1
            holders = sum(
                1
                for m in pref
                if m in alive and server in self._members[m].shards
            )
            if holders >= required and required > 0:
                satisfied += 1
            else:
                violated += 1
        return {
            "name": self.name,
            "nodes": len(self._members),
            "alive": len(alive),
            "replicas": self._replicas,
            "read_quorum": self.read_quorum,
            "servers": len(self._servers),
            "open_hints": self.open_hints(),
            "ownership": dict(ownership),
            "replication": {"satisfied": satisfied, "violated": violated},
        }
