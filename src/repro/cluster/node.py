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
applied).

A message is a :class:`ReplicaBatch`: columns the coordinator built once
per client batch (:meth:`ReplicaBatch.split`), with the event digests
and the per-server runs already computed, so a replica hashes no id
and computes no digest.  It is folded with numpy: a run that starts
above its server's watermark, never goes back in time and repeats no
``(time, digest)`` is admitted whole; only the other runs take the
scalar watermark pass (:meth:`ShardState.admit`).  All admitted runs
take one state update (:meth:`ShardState.applied`, one
``np.add.reduceat`` for every content digest) and the whole message
one columnar ledger append.  An armed fault plan needs per-event fault
sequencing, so it takes the event-at-a-time path, which the columnar
one reproduces exactly.  Divergence *repair* never goes through it:
read repair, anti-entropy and membership changes all pull the
replicas' copies (``cluster_pull``) and install the merged stream via
``cluster_reset``, which rebuilds the server's ledger history, serving
state, and shard digest from scratch.

Digests are 64-bit integers.  An event's digest chains five words —
memoised blake2b keys of its server and client, the bits of its time,
the key of its category and its rating and authenticity flags — as
``acc = (acc ^ word) * P (mod 2**64)``: :func:`event_digest` for one
event, :func:`event_digests` for a batch, bit for bit alike and stable
across processes (no salted ``str`` hash).  A server's content digest
rolls the event digests in fold order, ``acc = acc * P + d (mod
2**64)``.  It is deliberately order dependent: two replicas holding the
same tied events in a different order can cut different windows, so
their verdicts may differ, and the differing digests are what sends
them to read repair.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.config import AssessorConfig
from ..core.two_phase import Assessor
from ..feedback.ledger import FeedbackLedger
from ..feedback.records import Feedback
from ..feedback.store import FeedbackBatch, ServerRuns, group_ids
from ..obs import runtime as _obs
from ..obs import scope as _scope
from ..p2p.network import SimulatedNetwork
from ..resilience import runtime as _res
from ..serve import AssessmentService

__all__ = [
    "ClusterNode",
    "ReplicaBatch",
    "ShardState",
    "event_digest",
    "event_digests",
    "rolling_digest",
]

_MASK = (1 << 64) - 1
#: multiplier of the rolling digest and of the event digest's word
#: chain; odd and 3 mod 4, so swapping two different event digests
#: changes the result
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


def event_digest(feedback: Feedback) -> int:
    """Content digest of one feedback event (the dedup/merge key).

    Two events with identical ``(time, server, client, rating, category,
    authentic)`` are indistinguishable under at-least-once delivery and
    collapse into one — the standard trade-off.  The scalar twin of
    :func:`event_digests`, bit for bit.
    """
    words = (
        _key(feedback.server),
        _key(feedback.client),
        int.from_bytes(_double(feedback.time), "little"),
        _key(feedback.category),
        int(feedback.rating) | (2 if feedback.authentic else 0),
    )
    acc = 0
    for word in words:
        acc = ((acc ^ word) * _ROLL) & _MASK
    return acc


def _keys(ids: np.ndarray) -> np.ndarray:
    """The memoised keys of an object array of ids."""
    texts = ids.tolist()
    try:
        return np.array(list(map(_KEYS.__getitem__, texts)), dtype=np.uint64)
    except KeyError:  # an id seen for the first time
        return np.array([_key(text) for text in texts], dtype=np.uint64)


_U_ROLL = np.uint64(_ROLL)


def event_digests(batch: FeedbackBatch) -> np.ndarray:
    """:func:`event_digest` of every row of a grouped batch, as ``uint64``.

    The id keys are looked up once per distinct id; the words are
    chained with numpy's wrapping ``uint64`` arithmetic.
    """
    server_ids, servers = batch.server_groups
    client_ids, clients = batch.client_groups
    # the first step of the chain, (0 ^ key) * P, once per server
    acc = (_keys(server_ids) * _U_ROLL)[servers]
    acc ^= _keys(client_ids)[clients]
    acc *= _U_ROLL
    acc ^= np.ascontiguousarray(batch.times, dtype="<f8").view("<u8")
    acc *= _U_ROLL
    if batch.categories is not None:
        acc ^= np.array([_key(c) for c in batch.categories], dtype=np.uint64)
    acc *= _U_ROLL
    flags = batch.ratings | (
        np.uint8(2) if batch.authentic is None else batch.authentic.view(np.uint8) << 1
    )
    acc ^= flags
    acc *= _U_ROLL
    return acc


def rolling_digest(digests: Iterable[int], acc: int = 0) -> int:
    """Fold event digests, in order, into a content digest."""
    for digest in digests:
        acc = (acc * _ROLL + digest) & _MASK
    return acc


#: _ROLL ** k and _ROLL ** -k (mod 2**64; _ROLL is odd, so invertible)
#: for k = 0, 1, ...; grown on demand
_POWERS: Tuple[np.ndarray, np.ndarray] = (np.ones(1, np.uint64), np.ones(1, np.uint64))


def _powers(k: int) -> Tuple[np.ndarray, np.ndarray]:
    """At least ``_ROLL ** 0 .. _ROLL ** k`` and their inverses."""
    global _POWERS
    have = _POWERS[0].size
    if k >= have:
        grow = max(k + 1, 2 * have, 4096) - have
        steps = (
            np.multiply.accumulate(np.full(grow, base, dtype=np.uint64))
            for base in (_ROLL, pow(_ROLL, -1, 1 << 64))
        )
        _POWERS = tuple(
            np.append(table, table[-1] * step) for table, step in zip(_POWERS, steps)
        )
    return _POWERS


class DigestRuns:
    """Stored runs to account: ``times`` and ``digests`` (``uint64``)
    with run ``r`` spanning rows ``bounds[r]:bounds[r + 1]``, each run
    non-empty and time-ordered.

    :meth:`rolled` derives, once, everything :meth:`ShardState.applied`
    needs that does not depend on the states the runs are accounted
    to, so the replicas of one message share it.
    """

    __slots__ = ("times", "digests", "bounds", "_rolled", "_within")

    def __init__(
        self,
        times: np.ndarray,
        digests: np.ndarray,
        bounds: np.ndarray,
        within: Optional[Tuple["DigestRuns", int, int]] = None,
    ):
        self.times = times
        self.digests = digests
        self.bounds = bounds
        self._rolled: Optional[tuple] = None
        #: ``(whole, first, last)`` when these are runs ``first:last`` of
        #: ``whole``, whose :meth:`rolled` these then slice
        self._within = within

    def rolled(self) -> tuple:
        """``(counts, P**counts, sums, lasts, tails, ties)``: each run's
        length, the multiplier and the addend that roll a content digest
        over it (``acc * P**k + sums``), its last time, its last
        digest, and the ``(run, digest)`` of every other event tied with
        its run's last one.

        The sum over a run ending at row ``e`` is ``P**e * sum(d[i] *
        P**-i)`` — ``P`` is odd, so invertible — one ``np.add.reduceat``
        for every run (``uint64`` wrap-around is the ``mod 2**64``).
        """
        if self._rolled is None and self._within is not None:
            # the sums do not depend on where the runs sit in the array:
            # P**e * P**-i only sees the distance from a row to its run's end
            whole, first, last = self._within
            counts, multipliers, sums, lasts, tails, ties = whole.rolled()
            self._rolled = (
                counts[first:last],
                multipliers[first:last],
                sums[first:last],
                lasts[first:last],
                tails[first:last],
                [(r - first, d) for r, d in ties if first <= r < last],
            )
        if self._rolled is None:
            times, digests, bounds = self.times, self.digests, self.bounds
            starts, ends = bounds[:-1], bounds[1:] - 1
            counts = bounds[1:] - starts
            powers, inverses = _powers(times.size)
            sums = powers[ends] * np.add.reduceat(
                digests * inverses[: times.size], starts
            )
            lasts = times[ends]
            ties: List[Tuple[int, int]] = []
            tied = times[1:] == times[:-1]
            tied[ends[:-1]] = False  # a step from one run to the next
            if tied.any():
                run = np.arange(starts.size).repeat(counts)
                at = (times == lasts[run]).nonzero()[0]
                ties = list(zip(run[at].tolist(), digests[at].tolist()))
            self._rolled = (
                counts.tolist(),
                powers[counts].tolist(),
                sums.tolist(),
                lasts.tolist(),
                digests[ends].tolist(),
                ties,
            )
        return self._rolled


@dataclass
class ReplicaBatch(FeedbackBatch):
    """One replica write message: a grouped feedback batch plus its
    event-digest column (:func:`event_digests`).

    The coordinator columnarizes each client batch once and sends each
    preference group a slice of it (:meth:`split`), so no replica
    groups an id or computes a digest again.  A list of records given
    to :meth:`ClusterNode.apply_events` is columnarized on arrival.
    """

    digests: Optional[np.ndarray] = None
    _admission: Optional[Tuple[DigestRuns, Optional[np.ndarray]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    @classmethod
    def from_feedbacks(
        cls,
        feedbacks: Sequence[Feedback],
        *,
        server_ids: Optional[Sequence[str]] = None,
    ) -> "ReplicaBatch":
        batch = super().from_feedbacks(feedbacks, server_ids=server_ids)
        batch.digests = event_digests(batch)
        return batch

    def take(self, rows: np.ndarray) -> "ReplicaBatch":
        batch = super().take(rows)
        batch._admission = None
        batch.digests = self.digests[rows]
        return batch

    def run_digests(self) -> Tuple[DigestRuns, Optional[np.ndarray]]:
        """The batch's :meth:`server_runs` as :class:`DigestRuns`, and
        the runs that go back in time or repeat a ``(time, digest)``
        (``None`` when none does) — what admission needs besides each
        replica's watermarks, computed once per message."""
        if self._admission is None:
            runs = self.server_runs()
            digests = self.digests[runs.order]
            irregular = runs.backward
            times = runs.times
            tied = times[1:] == times[:-1]
            tied[runs.bounds[1:-1] - 1] = False  # a step from one run to the next
            if tied.any():
                groups = runs.inverse[runs.order]
                ranked = np.lexsort((digests, times, groups))
                g, t, d = groups[ranked], times[ranked], digests[ranked]
                repeat = (g[1:] == g[:-1]) & (t[1:] == t[:-1]) & (d[1:] == d[:-1])
                if repeat.any():
                    irregular = (
                        np.zeros(len(runs.ids), dtype=bool)
                        if irregular is None
                        else irregular.copy()
                    )
                    irregular[g[1:][repeat]] = True
            self._admission = (DigestRuns(times, digests, runs.bounds), irregular)
        return self._admission

    @classmethod
    def split(
        cls, feedbacks: Sequence[Feedback], groups: Sequence[Sequence[str]]
    ) -> List["ReplicaBatch"]:
        """Columnarize a client batch once and cut it into one message
        per server group (every server of ``feedbacks`` in exactly one
        group), each in arrival order.

        The rows are columnarized in message order, so each message's
        columns are views, and each message's :meth:`server_runs` and
        :meth:`run_digests` come sliced from the whole batch's: digests,
        grouping and sorting happen once per client batch, not once per
        message or replica.
        """
        slot = {server: m for m, group in enumerate(groups) for server in group}
        row_message = np.array([slot[fb.server] for fb in feedbacks], dtype=np.intp)
        rows = row_message.argsort(kind="stable").tolist()
        batch = cls.from_feedbacks(
            list(map(feedbacks.__getitem__, rows)),
            server_ids=[server for group in groups for server in group],
        )
        runs = batch.server_runs()
        stored, irregular = batch.run_digests()
        ratings, goods, run_bounds, lasts = batch.run_outcomes(runs)
        client_ids, client_inverse = batch.client_groups
        row_bounds = np.bincount(row_message, minlength=len(groups)).cumsum().tolist()
        messages = []
        lo = glo = 0
        for group, hi in zip(groups, row_bounds):
            ghi = glo + len(group)
            part = object.__new__(cls)
            part.__dict__.update(batch.__dict__)
            part.times = batch.times[lo:hi]
            part.servers = batch.servers[lo:hi]
            part.clients = batch.clients[lo:hi]
            part.ratings = batch.ratings[lo:hi]
            if batch.categories is not None:
                part.categories = batch.categories[lo:hi]
            if batch.authentic is not None:
                part.authentic = batch.authentic[lo:hi]
            part.digests = batch.digests[lo:hi]
            inverse = runs.inverse[lo:hi] - glo
            part.server_groups = (runs.ids[glo:ghi], inverse)
            # the batch's client ids for every message: a replica interns
            # a few ids it holds no row of (invisible to every query),
            # which costs less than narrowing the ids once per message
            part.client_groups = (client_ids, client_inverse[lo:hi])
            bounds = runs.bounds[glo : ghi + 1] - lo
            backward = None if runs.backward is None else runs.backward[glo:ghi]
            part._runs = ServerRuns(
                runs.ids[glo:ghi],
                runs.servers[glo:ghi],
                inverse,
                runs.order[lo:hi] - lo,
                bounds,
                runs.times[lo:hi],
                runs.firsts[glo:ghi],
                runs.lasts[glo:ghi],
                None if backward is None or not backward.any() else backward,
            )
            flagged = None if irregular is None else irregular[glo:ghi]
            part._admission = (
                DigestRuns(
                    runs.times[lo:hi],
                    stored.digests[lo:hi],
                    bounds,
                    (stored, glo, ghi),
                ),
                None if flagged is None or not flagged.any() else flagged,
            )
            part._outcomes = (
                ratings[lo:hi],
                goods[glo:ghi],
                [b - lo for b in run_bounds[glo : ghi + 1]],
                lasts[glo:ghi],
            )
            messages.append(part)
            lo, glo = hi, ghi
        return messages

    @classmethod
    def concat(cls, batches: Sequence["ReplicaBatch"]) -> "ReplicaBatch":
        """One batch of ``batches``' rows, in order (a hint replay)."""
        if len(batches) == 1:
            return batches[0]
        servers = np.concatenate([b.servers for b in batches])
        clients = np.concatenate([b.clients for b in batches])
        categories = None
        if any(b.categories is not None for b in batches):
            categories = np.concatenate(
                [
                    np.full(len(b), None, dtype=object)
                    if b.categories is None
                    else np.asarray(b.categories, dtype=object)
                    for b in batches
                ]
            )
        return cls(
            times=np.concatenate([b.times for b in batches]),
            servers=servers,
            clients=clients,
            ratings=np.concatenate([b.ratings for b in batches]),
            categories=categories,
            authentic=np.concatenate(
                [
                    np.ones(len(b), dtype=bool) if b.authentic is None else b.authentic
                    for b in batches
                ]
            ),
            server_groups=group_ids(servers.tolist()),
            client_groups=group_ids(clients.tolist()),
            digests=np.concatenate([b.digests for b in batches]),
        )


def _replica_batch(events) -> ReplicaBatch:
    if isinstance(events, ReplicaBatch):
        return events
    return ReplicaBatch.from_feedbacks(events)


def _skip_counts() -> Dict[str, int]:
    return {"below_watermark": 0, "duplicate_digest": 0}


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
        self, times: Sequence[float], digests: Sequence[int], skipped: Dict[str, int]
    ) -> List[int]:
        """The positions, in one server's run of events (their times
        and digests, in arrival order), of the events folding them one
        at a time would apply.

        Counts each skipped event into ``skipped`` by reason.  Below
        the watermark a replay and a late event look the same, so that
        reason names the position, not a diagnosis.  The state itself
        is not changed; :meth:`applied` does that once the admitted
        events are stored.
        """
        last, ties = self.last_time, self.tie_digests
        admitted: List[int] = []
        tied: List[int] = []  # digests admitted at ``last`` in this run
        for i, (time, digest) in enumerate(zip(times, digests)):
            if time < last:
                skipped["below_watermark"] += 1
                continue
            if time > last:
                last, ties, tied = time, (), []
            elif digest in ties or digest in tied:
                skipped["duplicate_digest"] += 1
                continue
            admitted.append(i)
            tied.append(digest)
        return admitted

    @staticmethod
    def applied(states: Sequence["ShardState"], runs: DigestRuns) -> None:
        """Account stored runs: run ``r`` of ``runs`` holds nothing
        below the watermark of ``states[r]``.

        Each content digest rolls as :func:`rolling_digest` would over
        its run, for every run at once (:meth:`DigestRuns.rolled`).
        """
        counts, multipliers, sums, lasts, tails, ties = runs.rolled()
        for state, count, last, multiplier, addend, tail in zip(
            states, counts, lasts, multipliers, sums, tails
        ):
            state.n += count
            state.content_hash = (state.content_hash * multiplier + addend) & _MASK
            if last > state.last_time:
                state.last_time = last
                state.tie_digests.clear()
            state.tie_digests.add(tail)
        for r, digest in ties:
            states[r].tie_digests.add(digest)


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
        self.ledger = FeedbackLedger(backend="columnar")
        self.service = AssessmentService(
            assessor=Assessor.from_config(config, calibrator=calibrator),
            ledger=self.ledger,
        )
        self.shards: Dict[str, ShardState] = {}
        #: hinted writes held for unreachable ring positions:
        #: target node name -> the messages, in arrival order
        self.hints: Dict[str, List[ReplicaBatch]] = {}

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
        self, events, skipped: Optional[Dict[str, int]] = None
    ) -> int:
        """Fold a message — a :class:`ReplicaBatch`, or feedback records,
        which are columnarized first — into this shard, skipping events
        at or below its watermark; returns how many were applied.

        Skips are counted by reason into ``skipped`` when given, and
        into ``cluster.shard.events_skipped`` when observed.
        """
        batch = _replica_batch(events)
        counts = _skip_counts()
        if not len(batch):
            applied = 0
        elif _res.armed:
            applied = self._apply_each(batch, counts)
        else:
            applied = self._apply_columns(batch, counts)
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

    def _states(
        self, servers: List[str], firsts: List[float]
    ) -> Tuple[List[ShardState], List[int]]:
        """Each server's state (created on first sight), and the runs
        that start at or below their server's watermark."""
        shards = self.shards
        states = []
        behind = []
        for g, (server, first) in enumerate(zip(servers, firsts)):
            state = shards.get(server)
            if state is None:
                state = shards[server] = ShardState()
            elif first <= state.last_time:
                behind.append(g)
            states.append(state)
        return states, behind

    def _apply_columns(self, batch: ReplicaBatch, skipped: Dict[str, int]) -> int:
        """The columnar fold.  Rows are grouped into per-server runs
        (arrival order within a run).  A run that starts above its
        watermark, never goes back in time and repeats no ``(time,
        digest)`` is admitted whole, which is what folding it one event
        at a time would do; any other run takes :meth:`ShardState.admit`.
        The admitted runs are accounted in one :meth:`ShardState.applied`
        and stored in one ledger append, in arrival order.  Accounting
        before the append is safe: a run admits only events at or above
        its watermark, in time order, and the watermark is the ledger
        history's last time, so the append cannot refuse them."""
        runs = batch.server_runs()
        stored, irregular = batch.run_digests()
        states, slow = self._states(runs.servers, runs.firsts)
        if irregular is not None:
            slow = sorted(set(slow).union(irregular.nonzero()[0].tolist()))
        if slow:
            times, digests, bounds = stored.times, stored.digests, stored.bounds
            n = len(batch)
            admitted = np.ones(n, dtype=bool)
            for g in slow:
                lo, hi = bounds[g], bounds[g + 1]
                taken = states[g].admit(
                    times[lo:hi].tolist(), digests[lo:hi].tolist(), skipped
                )
                if len(taken) < hi - lo:
                    admitted[lo:hi] = False
                    admitted[lo + np.array(taken, dtype=np.intp)] = True
            if not admitted.all():
                if not admitted.any():
                    return 0
                counts = np.add.reduceat(admitted, bounds[:-1], dtype=np.intp)
                states = [state for state, k in zip(states, counts.tolist()) if k]
                stored = DigestRuns(
                    times[admitted],
                    digests[admitted],
                    np.append(0, counts[counts > 0].cumsum()),
                )
                mask = np.zeros(n, dtype=bool)
                mask[runs.order[admitted]] = True
                batch = batch.take(mask)
        ShardState.applied(states, stored)
        self.ledger.record_batch(batch)
        return len(batch)

    def _apply_each(self, batch: ReplicaBatch, skipped: Dict[str, int]) -> int:
        """One event at a time, so an armed fault plan sees every
        ledger fold in order."""
        applied = 0
        one = np.array([0, 1])
        for i in range(len(batch)):
            feedback = batch.feedback_at(i)
            state = self.shards.get(feedback.server)
            if state is None:
                state = self.shards[feedback.server] = ShardState()
            digest = batch.digests[i : i + 1]
            if state.admit([feedback.time], digest.tolist(), skipped):
                self.ledger.record(feedback)
                ShardState.applied(
                    [state], DigestRuns(batch.times[i : i + 1], digest, one)
                )
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
        if ordered:
            ShardState.applied(
                [state],
                DigestRuns(
                    np.array([fb.time for fb in ordered], dtype=np.float64),
                    np.array([digest for digest, _ in keyed], dtype=np.uint64),
                    np.array([0, len(ordered)]),
                ),
            )
            self.shards[server] = state
            self.service.replace_server(self.ledger.history(server))
        else:
            self.shards.pop(server, None)
            self.service.remove_server(server)
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
            self.hints.setdefault(target, []).append(payload["events"])
            if _obs.enabled:
                _obs.registry.inc("cluster.hints.stored", len(payload["events"]))
            return {"held": sum(len(batch) for batch in self.hints[target])}
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
        held = self.hints.pop(target, [])
        if not held:
            return {"replayed": 0, "remaining": 0}
        events = ReplicaBatch.concat(held)
        try:
            reply = self._network.send(
                target, "cluster_record", {"events": events}
            )
        except Exception:
            reply = None
        if reply is None:
            # target still unreachable (or the replay was dropped):
            # keep holding, the next recovery pass tries again
            self.hints[target] = held + self.hints.pop(target, [])
            return {
                "replayed": 0,
                "remaining": sum(len(batch) for batch in self.hints[target]),
            }
        if _obs.enabled:
            _obs.registry.inc("cluster.hints.replayed", len(events))
        return {"replayed": len(events), "remaining": 0}

    # ------------------------------------------------------------------ #
    # introspection

    def open_hints(self) -> int:
        """Total hinted events currently held for unreachable targets."""
        return sum(len(batch) for held in self.hints.values() for batch in held)
