"""One cluster member: an assessment shard on the simulated network.

A :class:`ClusterNode` registers one handler for the ``cluster_*``
message vocabulary (its metrics and events carry this node's ``node``
label via ``node_scope``) and holds the assessment data plane: a private
:class:`~repro.feedback.ledger.FeedbackLedger` holding this replica's
copy of every server assigned to it, an
:class:`~repro.serve.AssessmentService` folding that ledger
incrementally, and per-server :class:`ShardState` bookkeeping (event
count, high-water timestamp, rolling content digest) that makes
duplicate suppression O(1) and replica comparison O(1) per server.
Placement is not the node's business: the coordinator routes by
:class:`~repro.cluster.partition.HashRingView`.

Write-path semantics: ``cluster_record`` is the in-order ingest path —
events at or below a server's high-water mark are treated as duplicate
deliveries and skipped (exact re-sends from retries and hint replays
collapse idempotently).  Each skip is counted with a reason, in the
reply and as ``cluster.shard.events_skipped``:
``below_watermark`` (earlier than the mark: a replay and a late event
look the same there) or ``duplicate_digest`` (at the mark, already
applied).  A message is folded per server run: the run's events, in
arrival order, take one watermark pass (:meth:`ShardState.admit`), the
admitted events of the whole message one ledger append, and each run
one digest update (:meth:`ShardState.applied`).  An armed fault plan
needs per-event fault sequencing, so it takes the event-at-a-time
path, which the batched one reproduces exactly.  Divergence *repair*
never goes through it: read repair, anti-entropy and membership changes
all pull the replicas' copies (``cluster_pull``) and install the merged
stream via ``cluster_reset``, which rebuilds the server's ledger
history, serving state, and shard digest from scratch.

Digests are 64-bit integers.  An event's digest hashes memoised
blake2b keys of its ids together with the bits of its time, its rating
and its flags, so it is stable across processes (no salted ``str``
hash).  A server's content digest rolls the event digests in fold
order, ``acc = acc * P + d (mod 2**64)``.  It is deliberately order
dependent: two replicas holding the same tied events in a different
order can cut different windows, so their verdicts may differ, and the
differing digests are what sends them to read repair.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..core.config import AssessorConfig
from ..core.two_phase import Assessor
from ..feedback.ledger import FeedbackLedger
from ..feedback.records import Feedback
from ..obs import runtime as _obs
from ..obs import scope as _scope
from ..p2p.network import SimulatedNetwork
from ..resilience import runtime as _res
from ..serve import AssessmentService

__all__ = ["ClusterNode", "ShardState", "event_digest", "rolling_digest"]

_MASK = (1 << 64) - 1
#: multiplier of the rolling digest; odd and 3 mod 4, so swapping two
#: different event digests changes the result
_ROLL = 0x100000001B3
_double = struct.Struct("<d").pack
#: entity id -> 64-bit key; bounded by the ids the ledgers already hold
_KEYS: Dict[str, int] = {}


def _key(text: Optional[str]) -> int:
    """The memoised 64-bit blake2b key of an id (0 for ``None``)."""
    if text is None:
        return 0
    key = _KEYS.get(text)
    if key is None:
        key = _KEYS[text] = int.from_bytes(
            hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "little"
        )
    return key


def _digest(server_key: int, feedback: Feedback) -> int:
    client_key = _KEYS.get(feedback.client)
    if client_key is None:
        client_key = _key(feedback.client)
    # a tuple of ints hashes without the salted str hash; the rating
    # is an IntEnum, which hashes as its int value
    return hash(
        (
            server_key,
            client_key,
            int.from_bytes(_double(feedback.time), "little"),
            feedback.rating,
            _key(feedback.category),
            feedback.authentic,
        )
    ) & _MASK


def event_digest(feedback: Feedback) -> int:
    """Content digest of one feedback event (the dedup/merge key).

    Two events with identical ``(time, server, client, rating, category,
    authentic)`` are indistinguishable under at-least-once delivery and
    collapse into one — the standard trade-off.
    """
    return _digest(_key(feedback.server), feedback)


def rolling_digest(digests: Iterable[int], acc: int = 0) -> int:
    """Fold event digests, in order, into a content digest."""
    for digest in digests:
        acc = (acc * _ROLL + digest) & _MASK
    return acc


def _skip_counts() -> Dict[str, int]:
    return {"below_watermark": 0, "duplicate_digest": 0}


def _arrival_order(
    events: List[Feedback], partial: Dict[str, List[Feedback]]
) -> List[Feedback]:
    """``events`` without the ones their server's run skipped.

    ``partial`` maps each server whose run skipped something to the
    events it admitted.  They are matched by identity, in order: a
    record delivered twice is admitted at most once, at its first
    delivery, so the first match is the right one.
    """
    cursors = {server: [admitted, 0] for server, admitted in partial.items()}
    ordered = []
    for feedback in events:
        cursor = cursors.get(feedback.server)
        if cursor is None:
            ordered.append(feedback)
            continue
        admitted, i = cursor
        if i < len(admitted) and admitted[i] is feedback:
            ordered.append(feedback)
            cursor[1] = i + 1
    return ordered


class ShardState:
    """Per-server replica bookkeeping: dedup watermark + content digest."""

    __slots__ = ("n", "last_time", "tie_digests", "content_hash")

    def __init__(self) -> None:
        self.n = 0
        self.last_time = float("-inf")
        #: digests of the events at exactly ``last_time`` — the only
        #: region where time alone cannot distinguish new from replayed
        self.tie_digests: set = set()
        self.content_hash = 0

    def admit(
        self, run: List[Feedback], skipped: Dict[str, int]
    ) -> Tuple[List[Feedback], List[int]]:
        """The events of one server's run that folding them one at a
        time would apply, with their digests.

        Counts each skipped event into ``skipped`` by reason.  Below
        the watermark a replay and a late event look the same, so that
        reason names the position, not a diagnosis.  The state itself
        is not changed; :meth:`applied` does that once the admitted
        events are stored.
        """
        server_key = _key(run[0].server)
        last, ties = self.last_time, self.tie_digests
        admitted: List[Feedback] = []
        digests: List[int] = []
        tied_from = 0  # digests[tied_from:] are of events at ``last``
        for feedback in run:
            time = feedback.time
            if time < last:
                skipped["below_watermark"] += 1
                continue
            digest = _digest(server_key, feedback)
            if time > last:
                last, ties, tied_from = time, (), len(digests)
            elif digest in ties or digest in digests[tied_from:]:
                skipped["duplicate_digest"] += 1
                continue
            admitted.append(feedback)
            digests.append(digest)
        return admitted, digests

    def applied(self, feedbacks: List[Feedback], digests: List[int]) -> None:
        """Account a stored run: time-ordered, none below the watermark."""
        if not feedbacks:
            return
        last = feedbacks[-1].time
        if last > self.last_time:
            self.last_time = last
            self.tie_digests.clear()
        i = len(feedbacks) - 1
        while i >= 0 and feedbacks[i].time == last:
            self.tie_digests.add(digests[i])
            i -= 1
        self.n += len(feedbacks)
        self.content_hash = rolling_digest(digests, self.content_hash)


class ClusterNode:
    """One member of the assessment cluster (one shard)."""

    def __init__(
        self,
        name: str,
        network: SimulatedNetwork,
        *,
        config: AssessorConfig,
        calibrator=None,
    ):
        self.name = name
        self._network = network
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

    # ------------------------------------------------------------------ #
    # lifecycle

    def rejoin(self) -> None:
        """Re-register after a crash.

        Shard state survives the crash (a restarted node reloads its
        ledger); what it missed while dark arrives through hint replay
        and the next anti-entropy sweep.
        """
        self._network.register(self.name, self._handle)

    # ------------------------------------------------------------------ #
    # data plane

    def apply_events(
        self, events: List[Feedback], skipped: Optional[Dict[str, int]] = None
    ) -> int:
        """Fold events into this shard, skipping events at or below its
        watermark; returns how many were applied.

        Skips are counted by reason into ``skipped`` when given, and
        into ``cluster.shard.events_skipped`` when observed.
        """
        counts = _skip_counts()
        if _res.armed:
            applied = self._apply_each(events, counts)
        else:
            applied = self._apply_runs(events, counts)
        if skipped is not None:
            for reason, count in counts.items():
                skipped[reason] = skipped.get(reason, 0) + count
        if _obs.enabled:
            for reason, count in counts.items():
                if count:
                    _obs.registry.inc(
                        "cluster.shard.events_skipped", count, reason=reason
                    )
        if applied and _obs.enabled:
            _obs.registry.inc("cluster.shard.events_applied", applied)
        return applied

    def _apply_runs(self, events: List[Feedback], skipped: Dict[str, int]) -> int:
        """The batched fold: per server run, one watermark pass and one
        digest update; then one ledger append of the admitted events,
        in arrival order.  Accounting the runs before the append is
        safe: a run admits only events at or above its watermark, in
        time order, and the watermark is the ledger history's last
        time, so the append cannot refuse them."""
        runs: Dict[str, List[Feedback]] = {}
        for feedback in events:
            run = runs.get(feedback.server)
            if run is None:
                runs[feedback.server] = [feedback]
            else:
                run.append(feedback)
        applied = 0
        partial: Dict[str, List[Feedback]] = {}
        for server, run in runs.items():
            state = self.shards.get(server)
            if state is None:
                state = self.shards[server] = ShardState()
            admitted, digests = state.admit(run, skipped)
            if admitted:
                state.applied(admitted, digests)
                applied += len(admitted)
            if len(admitted) < len(run):
                partial[server] = admitted
        if partial:
            events = _arrival_order(events, partial)
        if applied:
            self.ledger.record_batch(events)
        return applied

    def _apply_each(self, events: List[Feedback], skipped: Dict[str, int]) -> int:
        """One event at a time, so an armed fault plan sees every
        ledger fold in order."""
        applied = 0
        for feedback in events:
            state = self.shards.get(feedback.server)
            if state is None:
                state = self.shards[feedback.server] = ShardState()
            admitted, digests = state.admit([feedback], skipped)
            if admitted:
                self.ledger.record(feedback)
                state.applied(admitted, digests)
                applied += 1
        return applied

    def reset_server(self, server: str, events: List[Feedback]) -> int:
        """Install a reconciled stream for ``server`` from scratch."""
        keyed = sorted(
            ((event_digest(fb), fb) for fb in events),
            key=lambda item: (item[1].time, item[0]),
        )
        ordered = [fb for _, fb in keyed]
        self.ledger.reset_server(server, ordered)
        state = ShardState()
        state.applied(ordered, [digest for digest, _ in keyed])
        if ordered:
            self.shards[server] = state
            self.service.replace_server(self.ledger.history(server))
        else:
            self.shards.pop(server, None)
        if _obs.enabled:
            _obs.registry.inc("cluster.shard.resets")
        return state.content_hash

    def digest_of(self, server: str) -> int:
        """The replica's content digest for ``server`` (0 when unknown)."""
        state = self.shards.get(server)
        return state.content_hash if state is not None else 0

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
        with self._scoped():
            return self._dispatch(message_type, payload)

    def _dispatch(self, message_type: str, payload: Dict[str, Any]) -> Any:
        if message_type == "cluster_record":
            skipped = _skip_counts()
            applied = self.apply_events(payload["events"], skipped)
            return {"applied": applied, "skipped": skipped}
        if message_type == "cluster_assess":
            results = self._assess(payload["servers"], payload.get("digest_only", ()))
            return {"node": self.name, "results": results}
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
        if message_type == "cluster_hint_store":
            target = payload["target"]
            self.hints.setdefault(target, []).extend(payload["events"])
            if _obs.enabled:
                _obs.registry.inc("cluster.hints.stored", len(payload["events"]))
            return {"held": len(self.hints[target])}
        if message_type == "cluster_hint_replay":
            return self._replay_hints(payload["target"])
        raise ValueError(f"unknown message type {message_type!r}")

    # ------------------------------------------------------------------ #
    # handler bodies

    def _assess(
        self, servers: List[str], digest_only: Iterable[str] = ()
    ) -> Dict[str, Dict[str, Any]]:
        """Per-server assessment + replica digest for a quorum read.

        Servers this replica has no data for answer ``n == 0`` with no
        assessment — the coordinator treats that as a non-answer, not as
        a verdict.  Servers in ``digest_only`` answer with their digest
        and count but no assessment: another replica already gave one.
        """
        skip = set(digest_only)
        known = [s for s in servers if s in self.shards and s not in skip]
        assessments = self.service.assess_many(known) if known else {}
        results: Dict[str, Dict[str, Any]] = {}
        for server in servers:
            state = self.shards.get(server)
            if state is None:
                results[server] = {"assessment": None, "digest": 0, "n": 0}
            else:
                results[server] = {
                    "assessment": assessments.get(server),
                    "digest": state.content_hash,
                    "n": state.n,
                }
        return results

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
