"""One cluster member: a Chord overlay node plus an assessment shard.

A :class:`ClusterNode` wraps a :class:`~repro.p2p.chord.ChordNode` (ring
maintenance, O(log n) lookups) and adds the assessment data plane: a
private :class:`~repro.feedback.ledger.FeedbackLedger` holding this
replica's copy of every server assigned to it, an
:class:`~repro.serve.AssessmentService` folding that ledger
incrementally, and per-server :class:`ShardState` bookkeeping (event
count, high-water timestamp, rolling content digest) that makes
duplicate suppression O(1) and replica comparison O(1) per server.

The simulated network allows one handler per name, so the cluster node
*multiplexes*: it takes over the chord node's registration and routes
``cluster_*`` message types to its own dispatch (attributed to this node
in the fleet view via ``node_scope``), delegating everything else to the
chord protocol unchanged.

Write-path semantics: ``cluster_record`` is the in-order ingest path —
events at or below a server's high-water mark are treated as duplicate
deliveries and skipped (exact re-sends from retries, hint replays, and
tail replays collapse idempotently).  Each skip is counted as
``cluster.shard.events_skipped`` with a ``reason`` label:
``below_watermark`` (earlier than the mark: a replay and a late event
look the same there) or ``duplicate_digest`` (at the mark, already
applied).  Divergence *repair* never goes through it: read-repair and
anti-entropy install a merged stream via ``cluster_reset``, which
rebuilds the server's ledger history, serving state, and shard digest
from scratch.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Tuple

from ..core.config import AssessorConfig
from ..core.two_phase import Assessor
from ..feedback.binlog import pack_feedbacks, unpack_feedbacks
from ..feedback.ledger import FeedbackLedger
from ..feedback.records import Feedback
from ..obs import runtime as _obs
from ..obs import scope as _scope
from ..p2p.chord import ChordNode
from ..p2p.network import SimulatedNetwork
from ..serve import AssessmentService
from .antientropy import MerkleTree

__all__ = ["ClusterNode", "ShardState", "event_digest"]


def event_digest(feedback: Feedback) -> str:
    """Content digest of one feedback event (the dedup/merge key).

    Two events with identical ``(time, server, client, rating, category,
    authentic)`` are indistinguishable under at-least-once delivery and
    collapse into one — the standard trade-off.
    """
    canonical = (
        f"{feedback.time!r}|{feedback.server}|{feedback.client}|"
        f"{int(feedback.rating)}|{feedback.category}|{int(feedback.authentic)}"
    )
    return hashlib.sha1(canonical.encode("utf-8")).hexdigest()[:16]


class ShardState:
    """Per-server replica bookkeeping: dedup watermark + content digest."""

    __slots__ = ("n", "last_time", "tie_digests", "content_hash")

    def __init__(self) -> None:
        self.n = 0
        self.last_time = float("-inf")
        #: digests of the events at exactly ``last_time`` — the only
        #: region where time alone cannot distinguish new from replayed
        self.tie_digests: set = set()
        self.content_hash = ""

    def skip_reason(self, feedback: Feedback, digest: str) -> Optional[str]:
        """Why ``feedback`` must not be applied, or ``None`` to apply it.

        Below the watermark the shard cannot tell a replay from a late
        event, so the reason names the position, not a diagnosis.
        """
        if feedback.time < self.last_time:
            return "below_watermark"
        if feedback.time == self.last_time and digest in self.tie_digests:
            return "duplicate_digest"
        return None

    def applied(self, feedback: Feedback, digest: str) -> None:
        if feedback.time > self.last_time:
            self.last_time = feedback.time
            self.tie_digests = {digest}
        else:
            self.tie_digests.add(digest)
        self.n += 1
        self.content_hash = hashlib.sha1(
            (self.content_hash + digest).encode("utf-8")
        ).hexdigest()


class ClusterNode:
    """One member of the assessment cluster (overlay node + shard)."""

    def __init__(
        self,
        name: str,
        network: SimulatedNetwork,
        *,
        m_bits: int,
        replicas: int,
        config: AssessorConfig,
        calibrator=None,
    ):
        self.name = name
        self._network = network
        self._config = config
        self.chord = ChordNode(name, network, m_bits, replicas)
        # take over the registration: one handler per name, so the
        # cluster vocabulary and the chord protocol share the wire
        network.unregister(name)
        network.register(name, self._handle)
        self.ledger = FeedbackLedger(backend="memory")
        self.service = AssessmentService(
            assessor=Assessor.from_config(config, calibrator=calibrator),
            ledger=self.ledger,
        )
        self.shards: Dict[str, ShardState] = {}
        #: hinted writes held for unreachable ring positions:
        #: target node name -> time-ordered event list
        self.hints: Dict[str, List[Feedback]] = {}
        #: bumped on every applied/reset event; versions the merkle cache
        self.state_version = 0
        self._merkle_cache: Dict[Tuple[str, int], MerkleTree] = {}

    # ------------------------------------------------------------------ #
    # lifecycle

    def rejoin(self, bootstrap: Optional[str]) -> None:
        """Re-register after a crash and rejoin the overlay.

        Shard state survives the crash (a restarted node reloads its
        ledger); what it missed while dark arrives through hint replay
        and the next anti-entropy sweep.
        """
        self._network.register(self.name, self._handle)
        if bootstrap is not None and bootstrap != self.name:
            self.chord.join(bootstrap)

    # ------------------------------------------------------------------ #
    # data plane

    def apply_events(self, events: List[Feedback]) -> int:
        """Fold events into this shard, skipping (and, when observed,
        counting by reason) events at or below its watermark."""
        applied = 0
        for feedback in events:
            state = self.shards.get(feedback.server)
            if state is None:
                state = self.shards[feedback.server] = ShardState()
            digest = event_digest(feedback)
            reason = state.skip_reason(feedback, digest)
            if reason is not None:
                if _obs.enabled:
                    _obs.registry.inc("cluster.shard.events_skipped", reason=reason)
                continue
            self.ledger.record(feedback)
            state.applied(feedback, digest)
            applied += 1
        if applied:
            self.state_version += 1
            if _obs.enabled:
                _obs.registry.inc("cluster.shard.events_applied", applied)
        return applied

    def reset_server(self, server: str, events: List[Feedback]) -> str:
        """Install a reconciled stream for ``server`` from scratch."""
        ordered = sorted(events, key=lambda fb: (fb.time, event_digest(fb)))
        self.ledger.reset_server(server, ordered)
        state = ShardState()
        for feedback in ordered:
            state.applied(feedback, event_digest(feedback))
        if ordered:
            self.shards[server] = state
            self.service.replace_server(self.ledger.history(server))
        else:
            self.shards.pop(server, None)
        self.state_version += 1
        if _obs.enabled:
            _obs.registry.inc("cluster.shard.resets")
        return state.content_hash

    def digest_of(self, server: str) -> str:
        """The replica's content digest for ``server`` ("" when unknown)."""
        state = self.shards.get(server)
        return state.content_hash if state is not None else ""

    def events_of(self, server: str) -> List[Feedback]:
        """This replica's copy of ``server``'s event stream."""
        return self.ledger.feedbacks_for_server(server)

    # ------------------------------------------------------------------ #
    # RPC handling

    def _scoped(self):
        if _obs.enabled:
            return _scope.node_scope(self.name)
        return _scope.NOOP

    def _handle(self, message_type: str, payload: Dict[str, Any]) -> Any:
        if not message_type.startswith("cluster_"):
            return self.chord._handle(message_type, payload)
        with self._scoped():
            return self._dispatch(message_type, payload)

    def _dispatch(self, message_type: str, payload: Dict[str, Any]) -> Any:
        if message_type == "cluster_record":
            return {"applied": self.apply_events(payload["events"])}
        if message_type == "cluster_assess":
            return {"node": self.name, "results": self._assess(payload["servers"])}
        if message_type == "cluster_pull":
            server = payload["server"]
            return {
                "events": self.events_of(server),
                "digest": self.digest_of(server),
            }
        if message_type == "cluster_reset":
            return {
                "digest": self.reset_server(payload["server"], payload["events"])
            }
        if message_type == "cluster_merkle":
            tree = self._merkle_tree(payload["servers"])
            return tree.node(payload.get("path", ()))
        if message_type == "cluster_snapshot":
            return self._snapshot(payload["servers"])
        if message_type == "cluster_install":
            return self._install(payload["payload"])
        if message_type == "cluster_tail":
            events = self.events_of(payload["server"])
            return {"events": events[int(payload.get("after", 0)) :]}
        if message_type == "cluster_hint_store":
            target = payload["target"]
            self.hints.setdefault(target, []).extend(payload["events"])
            if _obs.enabled:
                _obs.registry.inc("cluster.hints.stored", len(payload["events"]))
            return {"held": len(self.hints[target])}
        if message_type == "cluster_hint_replay":
            return self._replay_hints(payload["target"])
        if message_type == "cluster_stats":
            return self.shard_stats()
        raise ValueError(f"unknown message type {message_type!r}")

    # ------------------------------------------------------------------ #
    # handler bodies

    def _assess(self, servers: List[str]) -> Dict[str, Dict[str, Any]]:
        """Per-server assessment + replica digest for a quorum read.

        Servers this replica has no data for answer ``n == 0`` with no
        assessment — the coordinator treats that as a non-answer, not as
        a verdict.
        """
        known = [s for s in servers if s in self.shards]
        assessments = self.service.assess_many(known) if known else {}
        results: Dict[str, Dict[str, Any]] = {}
        for server in servers:
            state = self.shards.get(server)
            if state is None:
                results[server] = {"assessment": None, "digest": "", "n": 0}
            else:
                results[server] = {
                    "assessment": assessments[server],
                    "digest": state.content_hash,
                    "n": state.n,
                }
        return results

    def _merkle_tree(self, servers: List[str]) -> MerkleTree:
        group_key = hashlib.sha1(
            "\n".join(sorted(servers)).encode("utf-8")
        ).hexdigest()
        cached = self._merkle_cache.get((group_key, self.state_version))
        if cached is None:
            cached = MerkleTree(
                [(server, self.digest_of(server)) for server in servers]
            )
            # one live version per group is enough; stale versions drop
            self._merkle_cache = {(group_key, self.state_version): cached}
        return cached

    def _snapshot(self, servers: List[str]) -> Dict[str, Any]:
        """Binlog-packed snapshot of the requested servers (join/leave)."""
        events: List[Feedback] = []
        counts: Dict[str, int] = {}
        for server in servers:
            copy = self.events_of(server)
            if copy:
                counts[server] = len(copy)
                events.extend(copy)
        return {"payload": pack_feedbacks(events), "counts": counts}

    def _install(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        """Unpack a snapshot and fold it through the dedup path."""
        events = unpack_feedbacks(payload)
        by_server: Dict[str, List[Feedback]] = {}
        for feedback in events:
            by_server.setdefault(feedback.server, []).append(feedback)
        applied = 0
        for stream in by_server.values():
            stream.sort(key=lambda fb: (fb.time, event_digest(fb)))
            applied += self.apply_events(stream)
        return {"applied": applied, "servers": len(by_server)}

    def _replay_hints(self, target: str) -> Dict[str, int]:
        """Push held hints to their recovered target (cluster_record)."""
        events = self.hints.pop(target, [])
        if not events:
            return {"replayed": 0, "remaining": 0}
        try:
            reply = self._network.send(
                target, "cluster_record", {"events": events}
            )
        except Exception:
            reply = None
        if reply is None:
            # target still unreachable (or the replay was dropped):
            # keep holding, the next recovery pass tries again
            self.hints[target] = events + self.hints.pop(target, [])
            return {"replayed": 0, "remaining": len(self.hints[target])}
        if _obs.enabled:
            _obs.registry.inc("cluster.hints.replayed", len(events))
        return {"replayed": len(events), "remaining": 0}

    # ------------------------------------------------------------------ #
    # introspection

    def open_hints(self) -> int:
        """Total hinted events currently held for unreachable targets."""
        return sum(len(events) for events in self.hints.values())

    def shard_stats(self) -> Dict[str, Any]:
        return {
            "node": self.name,
            "servers": len(self.shards),
            "events": sum(state.n for state in self.shards.values()),
            "open_hints": self.open_hints(),
            "hint_targets": sorted(self.hints),
            "state_version": self.state_version,
        }
