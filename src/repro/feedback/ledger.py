"""System-wide feedback ledger.

The paper assumes "all the transaction feedbacks are available for trust
assessment (e.g., through a central server as in online auction
communities, or through special data organization schemes in P2P
systems)".  :class:`FeedbackLedger` plays that role: a logically
centralized, append-only store indexed by server and by client, from
which per-server :class:`TransactionHistory` objects and the feedback
graph (used by the EigenTrust baseline) are derived.

The ledger is a *facade* over three storage backends, selected by name:

* ``"memory"`` (default) — the original per-object store, one Python
  ``Feedback`` at a time;
* ``"columnar"`` — structure-of-arrays numpy columns
  (:mod:`repro.feedback.store`), with a vectorized bulk-ingest path;
* ``"mmap"`` — columnar plus the append-only binary ledger file
  (:mod:`repro.feedback.binlog`), recovered on open.

All backends keep identical query semantics — ``history()`` returns the
same live object, ``feedback_graph()`` the same dict byte-for-byte,
``subscribe()`` fires per folded record, ``subscribe_servers()`` once
per server a fold touches — enforced by the shared conformance suite in
``tests/feedback/test_ledger_backends.py``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..resilience import runtime as _res
from ..resilience.quarantine import Quarantine
from .history import TransactionHistory
from .records import EntityId, Feedback, Rating
from .store import ColumnarLedgerBackend, MmapLedgerBackend

__all__ = ["FeedbackLedger", "MemoryLedgerBackend"]

_FOLD_SITE = "feedback.ledger.fold"

class MemoryLedgerBackend:
    """The original per-object ledger storage (``backend="memory"``).

    Folds Python :class:`Feedback` objects into per-server
    :class:`TransactionHistory` objects plus by-server/by-client lists,
    and maintains a ``server -> client -> last feedback`` index so
    :meth:`last_interaction` is O(1) instead of a reverse scan.  The
    index is nested rather than keyed by ``(server, client)`` tuples:
    a tuple per new pair is one more garbage-collected object kept
    alive per event, which moves full collections into later, timed
    work.
    """

    name = "memory"

    def __init__(self, quarantine: Optional[Quarantine] = None):
        self._all: List[Feedback] = []
        self._by_server: Dict[EntityId, List[Feedback]] = defaultdict(list)
        self._by_client: Dict[EntityId, List[Feedback]] = defaultdict(list)
        self._histories: Dict[EntityId, TransactionHistory] = {}
        self._pair_last: Dict[EntityId, Dict[EntityId, Feedback]] = {}
        self._quarantine = quarantine

    @property
    def quarantine(self) -> Optional[Quarantine]:
        """The attached quarantine for un-foldable events, if any."""
        return self._quarantine

    def __len__(self) -> int:
        return len(self._all)

    def record(self, feedback: Feedback) -> bool:
        """Fold one feedback; ``False`` means it was quarantined."""
        history = self._histories.get(feedback.server)
        fresh = history is None
        if fresh:
            history = TransactionHistory(feedback.server)
        try:
            if _res.armed:
                _res.inject(_FOLD_SITE)
            history.append_feedback(feedback)  # validates ordering & server id
        except (ValueError, _res.InjectedFault) as exc:
            if self._quarantine is None:
                raise
            self._quarantine.add(feedback, site=_FOLD_SITE, reason=str(exc))
            return False
        if fresh:
            self._histories[feedback.server] = history
        self._all.append(feedback)
        self._by_server[feedback.server].append(feedback)
        self._by_client[feedback.client].append(feedback)
        # quarantined events never reach this line, so the index only
        # ever sees folded records — matching the query's contract
        pairs = self._pair_last.get(feedback.server)
        if pairs is None:
            pairs = self._pair_last[feedback.server] = {}
        pairs[feedback.client] = feedback
        return True

    def record_batch(self, batch) -> Optional[int]:
        """Fold a list of feedbacks (or a column batch) at once;
        ``None`` defers to the per-event path.

        The result equals calling :meth:`record` on every event in
        order.  Each server's run is validated once, then its history
        and indexes grow by one extend.  Armed faults need per-event
        injection sequencing, and an ordering violation needs the
        per-event raise-or-quarantine decision, so either defers.  A
        clean run cannot reach the quarantine, which only ever receives
        events the per-event path rejects.
        """
        if _res.armed:
            return None
        feedbacks = (
            list(batch.iter_feedbacks())
            if hasattr(batch, "iter_feedbacks")
            else batch
        )
        runs: Dict[EntityId, List[Feedback]] = {}
        for fb in feedbacks:
            run = runs.get(fb.server)
            if run is None:
                runs[fb.server] = [fb]
            else:
                run.append(fb)
        histories = self._histories
        for server, run in runs.items():
            history = histories.get(server)
            last = run[0].time if history is None else history.last_time()
            for fb in run:
                if fb.time < last:
                    return None
                last = fb.time
        by_server = self._by_server
        pair_last = self._pair_last
        for server, run in runs.items():
            history = histories.get(server)
            if history is None:
                history = histories[server] = TransactionHistory(server)
            history.extend_feedbacks(run)
            by_server[server].extend(run)
            pairs = pair_last.get(server)
            if pairs is None:
                pairs = pair_last[server] = {}
            for fb in run:
                pairs[fb.client] = fb
        self._all.extend(feedbacks)
        by_client = self._by_client
        for fb in feedbacks:
            by_client[fb.client].append(fb)
        return len(feedbacks)

    def reset_server(self, server: EntityId, feedbacks: List[Feedback]) -> int:
        """Replace every record for ``server`` with a reconciled stream.

        The anti-entropy/read-repair entry point: a replica whose copy of
        one server's history diverged installs the merged, time-ordered
        stream in one shot.  Every index (by-server, by-client, pair
        cache, the global event list, and the live history) is rebuilt
        for that server; other servers are untouched.  Returns how many
        events were installed.  An empty ``feedbacks`` removes the server
        entirely.
        """
        for fb in feedbacks:
            if fb.server != server:
                raise ValueError(
                    f"reset_server({server!r}) got feedback for {fb.server!r}"
                )
        if server in self._by_server:
            self._all = [fb for fb in self._all if fb.server != server]
            for client, client_events in list(self._by_client.items()):
                kept = [fb for fb in client_events if fb.server != server]
                if kept:
                    client_events[:] = kept
                else:
                    # a client left with no folded feedback is no client
                    del self._by_client[client]
            self._pair_last.pop(server, None)
            del self._by_server[server]
            self._histories.pop(server, None)
        return sum(self.record(fb) for fb in feedbacks)

    # ------------------------------------------------------------------ #
    # queries

    def servers(self) -> Set[EntityId]:
        """All servers with at least one folded feedback."""
        return set(self._by_server)

    def clients(self) -> Set[EntityId]:
        """All clients that issued at least one folded feedback."""
        return set(self._by_client)

    def feedbacks_for_server(self, server: EntityId) -> List[Feedback]:
        """All feedbacks issued about ``server``, in time order."""
        return list(self._by_server.get(server, ()))

    def feedbacks_by_client(self, client: EntityId) -> List[Feedback]:
        """All feedbacks issued *by* ``client``, in time order."""
        return list(self._by_client.get(client, ()))

    def history(self, server: EntityId) -> TransactionHistory:
        """The live :class:`TransactionHistory` of ``server``."""
        try:
            return self._histories[server]
        except KeyError:
            raise KeyError(f"no feedback recorded for server {server!r}") from None

    def last_interaction(
        self, server: EntityId, client: EntityId
    ) -> Optional[Feedback]:
        """Most recent feedback from ``client`` about ``server``, if any."""
        return self._pair_last.get(server, {}).get(client)

    def interaction_counts(self, server: EntityId) -> Dict[EntityId, int]:
        """Number of feedbacks per issuing client for ``server``."""
        counts: Dict[EntityId, int] = defaultdict(int)
        for fb in self._by_server.get(server, ()):
            counts[fb.client] += 1
        return dict(counts)

    def feedback_graph(self) -> Dict[Tuple[EntityId, EntityId], Tuple[int, int]]:
        """Aggregate ``(client, server) -> (n_positive, n_negative)`` edges."""
        edges: Dict[Tuple[EntityId, EntityId], List[int]] = defaultdict(lambda: [0, 0])
        for fb in self._all:
            cell = edges[(fb.client, fb.server)]
            if fb.rating is Rating.POSITIVE:
                cell[0] += 1
            else:
                cell[1] += 1
        return {pair: (pos, neg) for pair, (pos, neg) in edges.items()}


#: backend name -> class; each takes ``quarantine=`` plus its own options
_BACKENDS = {
    "memory": MemoryLedgerBackend,
    "columnar": ColumnarLedgerBackend,
    "mmap": MmapLedgerBackend,
}


class FeedbackLedger:
    """Append-only store of every feedback issued in the system.

    A facade over a named storage backend::

        FeedbackLedger()                      # in-memory object store
        FeedbackLedger(backend="columnar")    # structure-of-arrays numpy
        FeedbackLedger(backend="mmap", path="run.ledger")  # + binary file

    ``quarantine`` (optional) changes what an un-foldable event does:
    without one, :meth:`record` raises on the first bad feedback (a
    time-ordering violation, an injected fold fault) and the stream
    aborts; with one, the offending record is quarantined with a
    structured event and the stream keeps flowing — the behavior a
    production ingest path needs.  Extra keyword ``options`` are passed
    to the backend factory.
    """

    def __init__(
        self,
        *,
        backend: str = "memory",
        quarantine: Optional[Quarantine] = None,
        **options,
    ) -> None:
        factory = _BACKENDS.get(backend)
        if factory is None:
            known = ", ".join(sorted(_BACKENDS))
            raise ValueError(f"unknown ledger backend {backend!r}; known: {known}")
        self._backend = factory(quarantine=quarantine, **options)
        self._subscribers: List[Callable[[Feedback], None]] = []
        self._server_subscribers: List[Callable[[EntityId], None]] = []

    @property
    def backend(self):
        """The storage backend instance behind this ledger."""
        return self._backend

    @property
    def backend_name(self) -> str:
        """The name of the active backend (``"memory"``, ``"columnar"``, ``"mmap"``)."""
        return self._backend.name

    @property
    def quarantine(self) -> Optional[Quarantine]:
        """The attached quarantine for un-foldable events, if any."""
        return self._backend.quarantine

    def __len__(self) -> int:
        return len(self._backend)

    def subscribe(self, callback) -> None:
        """Call ``callback(feedback)`` after every successful :meth:`record`.

        The hook lets downstream consumers (the serving engine's
        per-server incremental states, monitoring) track the ledger
        without polling.  Callbacks run synchronously in record order; a
        raising callback propagates to the recorder.
        """
        self._subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        """Remove a previously subscribed callback (ValueError if absent)."""
        self._subscribers.remove(callback)

    def subscribe_servers(self, callback) -> None:
        """Call ``callback(server)`` for each server a fold touches.

        Once per :meth:`record` that folds, and once per distinct server
        of a :meth:`record_batch`, after the whole batch is folded — so
        a consumer that only needs to learn servers (the serving
        engine's registration) costs no call per event of a batch, and a
        column batch can stay columnar.
        """
        self._server_subscribers.append(callback)

    def unsubscribe_servers(self, callback) -> None:
        """Remove a callback given to :meth:`subscribe_servers`."""
        self._server_subscribers.remove(callback)

    def record(self, feedback: Feedback) -> bool:
        """Append one feedback; times per server must be non-decreasing.

        Returns ``True`` when the feedback was folded, ``False`` when it
        was quarantined (only possible with a quarantine attached).
        """
        folded = self._backend.record(feedback)
        if folded:
            for callback in self._subscribers:
                callback(feedback)
            for callback in self._server_subscribers:
                callback(feedback.server)
        return folded

    def record_many(self, feedbacks: Iterable[Feedback]) -> int:
        """Append a batch of feedback records in order.

        Returns how many were folded (quarantined records don't count).
        """
        recorded = 0
        for fb in feedbacks:
            if self.record(fb):
                recorded += 1
        return recorded

    def record_batch(self, batch) -> int:
        """Bulk-ingest a :class:`~repro.feedback.store.FeedbackBatch`
        or a list of :class:`Feedback` records.

        The backend folds the whole batch in one pass when nothing
        demands per-event sequencing (no armed fault plan, clean
        ordering); otherwise this degrades to the per-event path with
        identical semantics.  Subscribers see every folded event, in
        order, after the fold; a column batch with subscribers takes
        the per-event path, since they need the records materialized.
        Server subscribers hear of each distinct server once, after the
        fold.  Returns how many events were folded.
        """
        columns = hasattr(batch, "iter_feedbacks")
        bulk = getattr(self._backend, "record_batch", None)
        if bulk is not None and not (columns and self._subscribers):
            folded = bulk(batch)
            if folded is not None:
                if not columns:
                    for fb in batch:
                        for callback in self._subscribers:
                            callback(fb)
                if self._server_subscribers:
                    self._announce(batch, columns)
                return folded
        recorded = 0
        for fb in batch.iter_feedbacks() if columns else batch:
            if self.record(fb):
                recorded += 1
        return recorded

    def _announce(self, batch, columns: bool) -> None:
        """Tell the server subscribers each distinct server of ``batch``."""
        if columns:
            servers = batch.server_runs().servers
        else:
            servers = dict.fromkeys(fb.server for fb in batch)
        for callback in self._server_subscribers:
            for server in servers:
                callback(server)

    def reset_server(self, server: EntityId, feedbacks: Iterable[Feedback]) -> int:
        """Replace every record for ``server`` with a reconciled stream.

        The ``memory`` and ``columnar`` backends support this; ``mmap``,
        whose file is append-only, raises :class:`NotImplementedError`.
        Subscribers are *not* notified — a reset is a repair of existing
        state, not new feedback — so serving layers that cache per-server
        state must re-register the rebuilt history themselves (see
        :meth:`repro.serve.AssessmentService.replace_server`).
        """
        reset = getattr(self._backend, "reset_server", None)
        if reset is None:
            raise NotImplementedError(
                f"ledger backend {self.backend_name!r} does not support "
                "reset_server"
            )
        return reset(server, list(feedbacks))

    # ------------------------------------------------------------------ #
    # queries (delegated to the backend)

    def servers(self) -> Set[EntityId]:
        """All servers with at least one folded feedback."""
        return self._backend.servers()

    def clients(self) -> Set[EntityId]:
        """All clients that issued at least one folded feedback."""
        return self._backend.clients()

    def feedbacks_for_server(self, server: EntityId) -> List[Feedback]:
        """All feedbacks issued about ``server``, in time order."""
        return self._backend.feedbacks_for_server(server)

    def feedbacks_by_client(self, client: EntityId) -> List[Feedback]:
        """All feedbacks issued *by* ``client``, in time order."""
        return self._backend.feedbacks_by_client(client)

    def history(self, server: EntityId) -> TransactionHistory:
        """The live :class:`TransactionHistory` of ``server``.

        The returned object is the ledger's own history (not a copy):
        trust assessment reads it in place, which is how a central
        reputation server would serve queries.
        """
        return self._backend.history(server)

    def last_interaction(
        self, server: EntityId, client: EntityId
    ) -> Optional[Feedback]:
        """Most recent feedback from ``client`` about ``server``, if any."""
        return self._backend.last_interaction(server, client)

    def interaction_counts(self, server: EntityId) -> Dict[EntityId, int]:
        """Number of feedbacks per issuing client for ``server``."""
        return self._backend.interaction_counts(server)

    def feedback_graph(self) -> Dict[Tuple[EntityId, EntityId], Tuple[int, int]]:
        """Aggregate ``(client, server) -> (n_positive, n_negative)`` edges.

        This is the local-trust matrix input of graph-based reputation
        schemes such as EigenTrust.
        """
        return self._backend.feedback_graph()

    # ------------------------------------------------------------------ #
    # persistence lifecycle (no-ops on non-persistent backends)

    def flush(self) -> None:
        """Force any buffered writes to durable storage (``"mmap"``)."""
        flush = getattr(self._backend, "flush", None)
        if flush is not None:
            flush()

    def close(self) -> None:
        """Flush and release backend resources (file handles, maps)."""
        close = getattr(self._backend, "close", None)
        if close is not None:
            close()

    def __enter__(self) -> "FeedbackLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
