"""System-wide feedback ledger.

The paper assumes "all the transaction feedbacks are available for trust
assessment (e.g., through a central server as in online auction
communities, or through special data organization schemes in P2P
systems)".  :class:`FeedbackLedger` plays that role: a logically
centralized, append-only store indexed by server and by client, from
which per-server :class:`TransactionHistory` objects and the feedback
graph (used by the EigenTrust baseline) are derived.

One class holds it all: the structure-of-arrays
:class:`~repro.feedback.store.ColumnarStore`, the live histories handed
out, the quarantine and the subscribers.  ``backend="mmap"`` adds the
append-only binary ledger file (:mod:`repro.feedback.binlog`): the file
is recovered into the columns on open, and every fold is appended to it.
``"columnar"`` (the default) and ``"memory"`` keep the columns in memory
only.  Every query answers alike with or without the file — the shared
conformance suite in ``tests/feedback/test_ledger_backends.py`` runs
verbatim against each name.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as np

from ..resilience import runtime as _res
from ..resilience.quarantine import Quarantine
from . import binlog
from .history import TransactionHistory
from .records import EntityId, Feedback
from .store import (
    CATEGORY_LIMIT,
    ColumnarStore,
    FeedbackBatch,
    ServerRuns,
    StringTable,
    _ColumnarHistory,
    unique_ids,
)

__all__ = ["FeedbackLedger"]

_FOLD_SITE = "feedback.ledger.fold"

#: the ``backend=`` names; ``"memory"`` names the in-memory columns too
_BACKENDS = ("columnar", "memory", "mmap")


class FeedbackLedger:
    """Append-only store of every feedback issued in the system::

        FeedbackLedger()                      # in-memory numpy columns
        FeedbackLedger(backend="mmap", path="run.ledger")  # + binary file

    ``quarantine`` (optional) changes what an un-foldable event does:
    without one, :meth:`record` raises on the first bad feedback (a
    time-ordering violation, an injected fold fault) and the stream
    aborts; with one, the offending record is quarantined with a
    structured event and the stream keeps flowing — the behavior a
    production ingest path needs.  ``path`` names the ledger file, and
    only ``backend="mmap"`` takes (and requires) one.
    """

    def __init__(
        self,
        *,
        backend: str = "columnar",
        quarantine: Optional[Quarantine] = None,
        path: Optional[str] = None,
    ) -> None:
        if backend not in _BACKENDS:
            known = ", ".join(_BACKENDS)
            raise ValueError(f"unknown ledger backend {backend!r}; known: {known}")
        if backend == "mmap" and path is None:
            raise ValueError("backend='mmap' requires path= (the ledger file)")
        if backend != "mmap" and path is not None:
            raise ValueError(
                f"backend={backend!r} keeps no file; path= needs backend='mmap'"
            )
        self._store = ColumnarStore()
        self._quarantine = quarantine
        self._histories: Dict[EntityId, _ColumnarHistory] = {}
        #: the last distinct-client array interned, and its codes: the
        #: messages cut from one client batch share that array
        self._clients: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None)
        self._subscribers: List[Callable[[Feedback], None]] = []
        self._server_subscribers: List[Callable[[EntityId], None]] = []
        #: the ledger file's writer (``backend="mmap"`` only)
        self._writer: Optional[binlog.BinaryLedgerWriter] = None
        if path is not None:
            self._open(path)

    def _open(self, path: str) -> None:
        """Recover the ledger file into the columns; open it to append."""
        store = self._store
        n_loaded = 0
        if os.path.exists(path) and os.path.getsize(path) > 0:
            data = binlog.load_binary_ledger(path, recover=True)
            store.server_table = StringTable(data.servers)
            store.client_table = StringTable(data.clients)
            store.category_table = StringTable(data.categories)
            records = data.records
            n_loaded = int(records.size)
            if n_loaded:
                times = records["time"].astype(np.float64)
                servers = records["server"]
                order = np.argsort(servers, kind="stable")
                ends = np.append(np.flatnonzero(np.diff(servers[order])), n_loaded - 1)
                store.append_columns(
                    times,
                    servers,
                    records["client"],
                    records["rating"],
                    records["category"],
                    records["authentic"],
                    last_codes=servers[order[ends]].tolist(),
                    last_times=times[order[ends]].tolist(),
                )
        self._writer = binlog.BinaryLedgerWriter(path, truncate_to=n_loaded)
        # ids already in the file must not be re-appended on the next sync
        self._synced_counts: Dict[str, int] = {
            "servers": len(store.server_table),
            "clients": len(store.client_table),
            "categories": len(store.category_table),
        }

    @property
    def backend_name(self) -> str:
        """``"mmap"`` with a ledger file, else ``"columnar"``."""
        return "columnar" if self._writer is None else "mmap"

    @property
    def quarantine(self) -> Optional[Quarantine]:
        """The attached quarantine for un-foldable events, if any."""
        return self._quarantine

    @property
    def store(self) -> ColumnarStore:
        """The underlying columnar store (shared, live)."""
        return self._store

    @property
    def path(self) -> Optional[str]:
        """The ledger file (``None`` without one)."""
        return None if self._writer is None else self._writer.path

    def __len__(self) -> int:
        return len(self._store) - self._store.n_dropped

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

    # ------------------------------------------------------------------ #
    # folding

    def record(self, feedback: Feedback) -> bool:
        """Append one feedback; times per server must be non-decreasing.

        Returns ``True`` when the feedback was folded, ``False`` when it
        was quarantined (only possible with a quarantine attached).
        """
        if not self._fold(feedback):
            return False
        if self._subscribers:
            for callback in self._subscribers:
                callback(feedback)
        if self._server_subscribers:
            server = feedback.server
            for callback in self._server_subscribers:
                callback(server)
        return True

    def _fold(self, feedback: Feedback) -> bool:
        """Fold one feedback event; ``False`` means it was quarantined.

        One flat body: the ids are looked up straight in the intern
        tables, and the row, the server's last time and a live history
        are written in place (a materialized history also takes the
        record).  One guard ahead of any interning stops the events that
        may be refused — an armed ``feedback.ledger.fold`` fault site, a
        time before the server's last one, a category when the category
        table is full — and :meth:`_refused` decides; an event it lets
        through goes on to the same fold.  A closed ledger file refuses
        every event first; the ids a fold interns reach the sidecars
        before its record.  The point indexes take the row in later.
        """
        writer = self._writer
        if writer is not None and writer.closed:
            raise ValueError(f"ledger file {writer.path!r} is closed")
        store = self._store
        server = feedback.server
        time = feedback.time
        category = feedback.category
        last_times = store._last_time
        server_code = store.server_table._index.get(server)
        last = last_times.get(server_code)
        if (
            _res.armed
            or (last is not None and time < last)
            or (
                category is not None
                and len(store.category_table._items) >= CATEGORY_LIMIT
            )
        ):
            if self._refused(feedback, last):
                return False
        if server_code is None:
            server_code = store.server_table.intern(server)
        client_code = store.client_table._index.get(feedback.client)
        if client_code is None:
            client_code = store.client_table.intern(feedback.client)
        category_code = (
            binlog.CATEGORY_NONE
            if category is None
            else store.category_table.intern(category)
        )
        rating = 1 if feedback.rating else 0
        authentic = 1 if feedback.authentic else 0
        row = store._n
        if row == store._times.size:
            store._ensure_capacity(row + 1)
        store._times[row] = time
        store._srv[row] = server_code
        store._cli[row] = client_code
        store._ratings[row] = rating
        store._cat[row] = category_code
        store._auth[row] = authentic
        store._n = row + 1
        last_times[server_code] = time
        history = self._histories.get(server)
        if history is not None:
            n = history._n
            if n == history._buf.size:
                history._ensure_capacity(n + 1)
            history._buf[n] = rating
            history._n = n + 1
            history._n_good += rating
            history._last_t = time
            if history._lazy_list is not None:
                history._lazy_list.append(feedback)
        if writer is not None:
            self._sync_ids()
            writer.append_record(
                time, server_code, client_code, rating, authentic, category_code
            )
        return True

    def _refused(self, feedback: Feedback, last: Optional[float]) -> bool:
        """Whether :meth:`_fold` refuses ``feedback`` (``last`` is its
        server's last time): the fault site fires first, then the
        ordering check, then the category limit.  A refusal raises, or
        is quarantined when a quarantine is attached."""
        try:
            if _res.armed:
                _res.inject(_FOLD_SITE)
            if last is not None and feedback.time < last:
                raise ValueError("feedback times must be non-decreasing")
            if not self._store.has_room_for((feedback.category,)):
                raise ValueError(
                    f"category table full: {CATEGORY_LIMIT} distinct categories"
                )
        except (ValueError, _res.InjectedFault) as exc:
            if self._quarantine is None:
                raise
            self._quarantine.add(feedback, site=_FOLD_SITE, reason=str(exc))
            return True
        return False

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

        The ledger folds the whole batch in one pass when nothing
        demands per-event sequencing (no armed fault plan, clean
        ordering); otherwise this degrades to the per-event path with
        identical semantics.  Subscribers see every folded event, in
        order, after the fold; a column batch with subscribers takes
        the per-event path, since they need the records materialized.
        Server subscribers hear of each distinct server once, after the
        fold.  Returns how many events were folded.
        """
        writer = self._writer
        if writer is not None and writer.closed:
            raise ValueError(f"ledger file {writer.path!r} is closed")
        columns = hasattr(batch, "iter_feedbacks")
        if not (columns and self._subscribers):
            folded = self._fold_batch(batch)
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

    def _fold_batch(self, batch) -> Optional[int]:
        """Vectorized bulk fold of a :class:`FeedbackBatch` (or a list
        of feedbacks); ``None`` defers to the per-event path.

        The fast path requires clean data (no ordering violations
        against the stored per-server last times or within the batch, no
        category past :data:`CATEGORY_LIMIT`) and no armed fault plan
        (per-event injection sequencing must match :meth:`record`
        bit-for-bit).  Live histories already handed out are extended by
        their server's slice of the block, as a per-event fold would.
        """
        if _res.armed or len(batch) == 0:
            return None
        if not isinstance(batch, FeedbackBatch):
            batch = FeedbackBatch.from_feedbacks(batch)
        store = self._store
        # ordering is checked on batch-local groups, so a declined batch
        # leaves no id behind in the tables (nor in the file's sidecars)
        # a batch nobody else groups (a bulk load) keeps no grouping
        runs = batch._group_runs()
        if runs.backward is not None:
            return None
        known = store.server_table.codes(runs.servers)
        if store.behind(known, runs.firsts):
            return None
        if batch.categories is not None and not store.has_room_for(
            set(batch.categories)
        ):
            return None
        last_codes, new_servers = store.server_table.intern_codes(runs.servers, known)
        server_codes = np.array(last_codes, dtype=np.uint32)
        client_ids, client_rows = batch.client_groups or unique_ids(batch.clients)
        client_codes = self._client_codes(client_ids)[client_rows]
        n = len(batch)
        # a column constant across the block is stored as a scalar
        category_codes = binlog.CATEGORY_NONE
        if batch.categories is not None:
            category_codes = np.array(
                [
                    binlog.CATEGORY_NONE
                    if cat is None
                    else store.category_table.intern(cat)
                    for cat in batch.categories
                ],
                dtype=np.uint16,
            )
        authentic = 1 if batch.authentic is None else batch.authentic.view(np.uint8)
        start_row = store.append_columns(
            batch.times,
            server_codes[runs.inverse],
            client_codes,
            batch.ratings,
            category_codes,
            authentic,
            last_codes=last_codes,
            last_times=runs.lasts,
        )
        if self._writer is not None:
            self._sync_ids()
            end = start_row + n
            self._writer.append_records(
                binlog.pack_records(
                    store.times[start_row:end],
                    store.server_codes[start_row:end],
                    store.client_codes[start_row:end],
                    store.ratings[start_row:end],
                    store.authentic[start_row:end],
                    store.category_codes[start_row:end],
                )
            )
        if self._histories:
            self._extend_histories(batch, runs, start_row)
        return n

    def _extend_histories(
        self, batch: FeedbackBatch, runs: ServerRuns, start_row: int
    ) -> None:
        """Extend each live history by its server's rows of a batch
        just stored from ``start_row`` on."""
        get = self._histories.get
        ratings, goods, bounds, lasts = batch.run_outcomes(runs)
        order = runs.order
        for server, lo, hi, good, last in zip(
            runs.servers, bounds, bounds[1:], goods, lasts
        ):
            history = get(server)
            if history is None:
                continue
            # _ColumnarHistory's own fields, set as append_feedback would
            n = history._n
            end = n + hi - lo
            if end > history._buf.size:
                history._ensure_capacity(end)
            history._buf[n:end] = ratings[lo:hi]
            history._n = end
            history._n_good += good
            history._last_t = last
            if history._lazy_list is not None:
                store = self._store
                rows = (order[lo:hi] + start_row).tolist()
                history._lazy_list.extend(store.feedback_at(row) for row in rows)

    def _client_codes(self, client_ids: np.ndarray) -> np.ndarray:
        """The codes of distinct client ids, interning unseen ones."""
        last_ids, codes = self._clients
        if client_ids is not last_ids:
            table = self._store.client_table
            values = client_ids.tolist()
            codes = np.array(
                table.intern_codes(values, table.codes(values))[0], dtype=np.uint32
            )
            self._clients = (client_ids, codes)
        return codes

    def _sync_ids(self) -> None:
        """Append the ids interned since the last sync to the sidecars."""
        for kind, table in (
            ("servers", self._store.server_table),
            ("clients", self._store.client_table),
            ("categories", self._store.category_table),
        ):
            items = table._items
            synced = self._synced_counts[kind]
            if len(items) > synced:
                self._writer.append_ids(kind, items[synced:])
                self._synced_counts[kind] = len(items)

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

        All or nothing: a stream with a record about another server,
        a time going back, or more categories than the table has room
        for raises :class:`ValueError`, and an armed
        ``feedback.ledger.fold`` site fires once per event, in order,
        and raises any fault it injects — quarantine or not: a reset is
        a repair, not ingest — before anything changes.  Otherwise the
        old rows are tombstoned (:meth:`ColumnarStore.drop_server`) and
        the stream folds after every other row, firing no site again.
        ``backend="mmap"`` raises :class:`NotImplementedError`: its file
        is append-only.
        Subscribers are *not* notified — serving layers re-register the
        rebuilt history themselves
        (:meth:`repro.serve.AssessmentService.replace_server`).
        """
        if self._writer is not None:
            raise NotImplementedError(
                "ledger backend 'mmap' does not support reset_server: its file "
                "is append-only"
            )
        feedbacks = list(feedbacks)
        last = None
        for fb in feedbacks:
            if fb.server != server:
                raise ValueError(
                    f"reset_server({server!r}) got feedback for {fb.server!r}"
                )
            if last is not None and fb.time < last:
                raise ValueError(
                    f"reset_server({server!r}): feedback times must be non-decreasing"
                )
            last = fb.time
        if not self._store.has_room_for(fb.category for fb in feedbacks):
            raise ValueError(
                f"reset_server({server!r}): category table full: "
                f"{CATEGORY_LIMIT} distinct categories"
            )
        if _res.armed:
            for _ in feedbacks:
                _res.inject(_FOLD_SITE)
        code = self._store.server_table.lookup(server)
        if code is not None:
            self._store.drop_server(code)
        self._histories.pop(server, None)
        with _res.activate(None):  # the site fired above
            return sum(map(self._fold, feedbacks))

    # ------------------------------------------------------------------ #
    # queries

    def _column(self, column: np.ndarray) -> np.ndarray:
        """``column`` without its tombstoned rows."""
        live = self._store.live_rows()
        return column if live is None else column[live]

    def servers(self) -> Set[EntityId]:
        """All servers with at least one folded feedback: those with a
        last time, which a drop removes."""
        store = self._store
        value = store.server_table.value
        return {value(code) for code in store._last_time}

    def clients(self) -> Set[EntityId]:
        """All clients that issued at least one folded feedback."""
        store = self._store
        codes = np.unique(self._column(store.client_codes))
        return {store.client_table.value(int(code)) for code in codes}

    def feedbacks_for_server(self, server: EntityId) -> List[Feedback]:
        """All feedbacks issued about ``server``, in time order."""
        code = self._store.server_table.lookup(server)
        if code is None:
            return []
        rows = self._store.rows_for_server(code)
        return [self._store.feedback_at(int(row)) for row in rows]

    def feedbacks_by_client(self, client: EntityId) -> List[Feedback]:
        """All feedbacks issued *by* ``client``, in time order."""
        store = self._store
        code = store.client_table.lookup(client)
        if code is None:
            return []
        rows = np.flatnonzero(store.client_codes == code)
        live = store.live_rows()
        if live is not None:
            rows = np.intersect1d(rows, live)
        return [store.feedback_at(int(row)) for row in rows]

    def history(self, server: EntityId) -> TransactionHistory:
        """The live :class:`TransactionHistory` of ``server``.

        The returned object is the ledger's own history (not a copy),
        read in place as a central reputation server would, and kept
        appended by every later fold.  Its outcomes are gathered from
        the columns at once; per-event :class:`Feedback` metadata stays
        in the store until first asked for.
        """
        history = self._histories.get(server)
        if history is not None:
            return history
        code = self._store.server_table.lookup(server)
        rows = (
            self._store.rows_for_server(code)
            if code is not None
            else np.empty(0, dtype=np.int64)
        )
        if code is None or rows.size == 0:
            raise KeyError(f"no feedback recorded for server {server!r}")
        history = _ColumnarHistory(server, self._store, code, rows)
        self._histories[server] = history
        return history

    def last_interaction(
        self, server: EntityId, client: EntityId
    ) -> Optional[Feedback]:
        """Most recent feedback from ``client`` about ``server``, if any."""
        store = self._store
        server_code = store.server_table.lookup(server)
        client_code = store.client_table.lookup(client)
        if server_code is None or client_code is None:
            return None
        row = store.last_row_for_pair(server_code, client_code)
        return None if row is None else store.feedback_at(row)

    def interaction_counts(self, server: EntityId) -> Dict[EntityId, int]:
        """Number of feedbacks per issuing client for ``server``."""
        store = self._store
        code = store.server_table.lookup(server)
        if code is None:
            return {}
        rows = store.rows_for_server(code)
        counts: Dict[EntityId, int] = defaultdict(int)
        for cli_code in store.client_codes[rows]:
            counts[store.client_table.value(int(cli_code))] += 1
        return dict(counts)

    def feedback_graph(self) -> Dict[Tuple[EntityId, EntityId], Tuple[int, int]]:
        """Aggregate ``(client, server) -> (n_positive, n_negative)`` edges.

        This is the local-trust matrix input of graph-based reputation
        schemes such as EigenTrust.  Edges iterate in order of first
        appearance of each ``(client, server)`` pair in the fold stream.
        """
        store = self._store
        if len(self) == 0:
            return {}
        combined = self._column(
            (store.client_codes.astype(np.int64) << 32)
            | store.server_codes.astype(np.int64)
        )
        uniq, first_idx, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        ratings = self._column(store.ratings).astype(np.float64)
        pos = np.bincount(inverse, weights=ratings)
        totals = np.bincount(inverse)
        neg = totals - pos
        edges: Dict[Tuple[EntityId, EntityId], Tuple[int, int]] = {}
        for u in np.argsort(first_idx, kind="stable"):
            key = int(uniq[u])
            pair = (
                store.client_table.value(key >> 32),
                store.server_table.value(key & 0xFFFFFFFF),
            )
            edges[pair] = (int(pos[u]), int(neg[u]))
        return edges

    # ------------------------------------------------------------------ #
    # persistence lifecycle (no-ops without a ledger file)

    def flush(self) -> None:
        """Force buffered writes to the ledger file, if there is one."""
        if self._writer is not None:
            self._writer.flush()

    def close(self) -> None:
        """Flush and close the ledger file, if there is one; the ledger
        stays queryable, and refuses further folds."""
        if self._writer is not None:
            self._writer.close()

    def __enter__(self) -> "FeedbackLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
