"""System-wide feedback ledger.

The paper assumes "all the transaction feedbacks are available for trust
assessment (e.g., through a central server as in online auction
communities, or through special data organization schemes in P2P
systems)".  :class:`FeedbackLedger` plays that role: a logically
centralized, append-only store indexed by server and by client, from
which per-server :class:`TransactionHistory` objects and the feedback
graph (used by the EigenTrust baseline) are derived.

The ledger is a *facade* over two storage backends, selected by name:

* ``"columnar"`` (default; ``"memory"`` names it too) — structure-of-arrays
  numpy columns (:mod:`repro.feedback.store`), folded one event at a
  time or a whole batch at once;
* ``"mmap"`` — columnar plus the append-only binary ledger file
  (:mod:`repro.feedback.binlog`), recovered on open.

Both keep identical query semantics — ``history()`` returns the same
live object, ``feedback_graph()`` the same dict byte-for-byte,
``subscribe()`` fires per folded record, ``subscribe_servers()`` once
per server a fold touches — enforced by the shared conformance suite in
``tests/feedback/test_ledger_backends.py``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from ..resilience.quarantine import Quarantine
from .history import TransactionHistory
from .records import EntityId, Feedback
from .store import ColumnarLedgerBackend, MmapLedgerBackend

__all__ = ["FeedbackLedger"]

#: backend name -> class; each takes ``quarantine=`` plus its own options.
#: ``"memory"`` names the in-memory columnar backend too.
_BACKENDS = {
    "memory": ColumnarLedgerBackend,
    "columnar": ColumnarLedgerBackend,
    "mmap": MmapLedgerBackend,
}


class FeedbackLedger:
    """Append-only store of every feedback issued in the system.

    A facade over a named storage backend::

        FeedbackLedger()                      # in-memory numpy columns
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
        backend: str = "columnar",
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
        """The name of the active backend (``"columnar"`` or ``"mmap"``)."""
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
            if self._subscribers:
                for callback in self._subscribers:
                    callback(feedback)
            if self._server_subscribers:
                server = feedback.server
                for callback in self._server_subscribers:
                    callback(server)
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
        if not (columns and self._subscribers):
            folded = self._backend.record_batch(batch)
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

        The ``mmap`` backend, whose file is append-only, raises
        :class:`NotImplementedError`.  Subscribers are *not* notified — a
        reset is a repair of existing state, not new feedback — so
        serving layers that cache per-server state must re-register the
        rebuilt history themselves (see
        :meth:`repro.serve.AssessmentService.replace_server`).
        """
        return self._backend.reset_server(server, list(feedbacks))

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
        self._backend.flush()

    def close(self) -> None:
        """Flush and release backend resources (file handles, maps)."""
        self._backend.close()

    def __enter__(self) -> "FeedbackLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
