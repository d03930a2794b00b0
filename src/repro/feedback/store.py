"""Structure-of-arrays feedback storage — the columnar ledger backends.

The object ledger folds one Python :class:`~repro.feedback.records.Feedback`
at a time; at the ROADMAP's millions-of-users scale that per-event
constant dominates ingest.  :class:`ColumnarStore` holds the same data
as parallel numpy columns (``float64`` times, ``uint8`` ratings,
``uint32`` interned server/client ids) with amortized O(1) append and a
vectorized bulk path (:class:`FeedbackBatch`).  The bulk path interns
a batch's id columns without sorting strings: :func:`id_hash` keys each
id with a 64-bit FNV-1a, :func:`unique_ids` groups the keys and checks
every row against its group's representative (a collision falls back to
the string sort), and only the distinct ids are sorted, so codes come
out exactly as a sort would give them.  Two ledger backends are built
on it:

* ``"columnar"`` — in-memory columns only;
* ``"mmap"`` — columns plus the append-only binary file format of
  :mod:`repro.feedback.binlog` (records are appended on every fold, the
  existing file is memory-mapped and recovered on open).

Both sit in the fixed backend table of :mod:`repro.feedback.ledger`,
behind the same ``FeedbackLedger`` facade, with identical semantics to the object backend — including the
``feedback.ledger.fold`` fault site, quarantine behavior, and the
live-history contract (the conformance and hypothesis-equivalence
suites assert all of it, verdict-for-verdict).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..resilience import runtime as _res
from ..resilience.quarantine import Quarantine
from . import binlog
from .history import TransactionHistory
from .records import EntityId, Feedback, Rating

__all__ = [
    "id_hash",
    "unique_ids",
    "StringTable",
    "FeedbackBatch",
    "ColumnarStore",
    "ColumnarLedgerBackend",
    "MmapLedgerBackend",
]

_FOLD_SITE = "feedback.ledger.fold"
_INITIAL_CAPACITY = 1024


_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)
_HASH_BLOCK = 16384


def id_hash(values: np.ndarray) -> np.ndarray:
    """64-bit FNV-1a of each id over its UCS4 code units, as ``uint64``.

    ``values`` is a fixed-width unicode (``<U``) array.  NUL code units
    are skipped, so a key does not depend on the array's width (the
    padding of a short id) and the same id hashes alike in every batch.
    The columns are walked in blocks of rows that stay in cache.
    """
    arr = np.ascontiguousarray(values).reshape(-1)
    n = arr.size
    width = arr.dtype.itemsize // 4
    units = arr.view(np.uint32).reshape(n, width)
    keys = np.full(n, _FNV_OFFSET, dtype=np.uint64)
    unit = np.empty(min(n, _HASH_BLOCK), dtype=np.uint64)
    live = np.empty(unit.size, dtype=bool)
    for lo in range(0, n, _HASH_BLOCK):
        hi = min(lo + _HASH_BLOCK, n)
        block_keys, block_units = keys[lo:hi], units[lo:hi]
        u, z = unit[: hi - lo], live[: hi - lo]
        for j in range(width):
            np.copyto(u, block_units[:, j])
            block_keys ^= u
            np.not_equal(u, 0, out=z)
            np.multiply(block_keys, _FNV_PRIME, out=block_keys, where=z)
    return keys


def unique_ids(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(values, return_inverse=True)`` for id columns, by hash.

    Groups rows by :func:`id_hash` instead of argsorting the strings:
    runs of equal keys (ids that arrive grouped) collapse first, the
    unique pass sorts only the run keys, and every row is then checked
    against its class's representative with one vectorized ``==``.  Only
    the distinct ids are sorted, so the result — sorted distinct ids and
    each row's index into them — is exactly :func:`numpy.unique`'s.  A
    hash collision (a failed check) takes the string sort for the call.
    Object arrays are converted to fixed-width unicode first; any other
    dtype takes the sort as well.
    """
    arr = np.asarray(values).reshape(-1)
    if arr.dtype == object:
        arr = arr.astype(str)
    if arr.dtype.kind != "U" or arr.size == 0:
        return np.unique(arr, return_inverse=True)
    keys = id_hash(arr)
    n = arr.size
    breaks = keys[1:] != keys[:-1]
    heads = np.flatnonzero(breaks) + 1
    if 2 * (heads.size + 1) <= n:
        # grouped: every row equals its predecessor within a run of
        # equal keys, so only the run heads go on to the unique pass
        if not np.all((arr[1:] == arr[:-1]) | breaks):
            return np.unique(arr, return_inverse=True)
        heads = np.concatenate(([0], heads))
        keys, rows = keys[heads], arr[heads]
    else:
        heads, rows = None, arr
    class_keys, inverse = np.unique(keys, return_inverse=True)
    rep = np.empty(class_keys.size, dtype=np.intp)
    rep[inverse] = np.arange(inverse.size)
    uniq = rows[rep]
    if not np.all(rows == uniq[inverse]):
        return np.unique(arr, return_inverse=True)
    order = np.argsort(uniq, kind="stable")
    rank = np.empty(order.size, dtype=np.intp)
    rank[order] = np.arange(order.size)
    inverse = rank[inverse]
    if heads is not None:
        inverse = np.repeat(inverse, np.diff(heads, append=n))
    return uniq[order], inverse


class StringTable:
    """Bidirectional intern table: string id <-> dense integer code.

    Codes are dense, never change, and double as stable on-disk
    indices for the binary ledger's sidecar tables, so the order they
    are assigned in is part of the file layout: :meth:`intern` gives an
    unseen value the next code, and :meth:`intern_many` gives a batch's
    unseen values the next codes in *sorted* order of the batch's
    unique values, not in order of first appearance.  Bulk interning
    groups the batch with :func:`unique_ids` (a verified 64-bit hash,
    no string sort) and touches the table once per distinct id.
    """

    def __init__(self, items: Sequence[str] = ()):
        self._items: List[str] = list(items)
        self._index: Dict[str, int] = {s: i for i, s in enumerate(self._items)}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, value: str) -> bool:
        return value in self._index

    def intern(self, value: str) -> int:
        """The code of ``value``, assigning the next one if unseen."""
        code = self._index.get(value)
        if code is None:
            code = len(self._items)
            self._index[value] = code
            self._items.append(value)
        return code

    def intern_many(self, values: np.ndarray) -> Tuple[np.ndarray, List[str]]:
        """Vectorized intern: codes for ``values`` plus the newly added ids."""
        return self.intern_unique(*unique_ids(values))

    def intern_unique(
        self, uniq: np.ndarray, inverse: np.ndarray
    ) -> Tuple[np.ndarray, List[str]]:
        """Intern :func:`unique_ids` output: per-row codes and new ids.

        A Python loop over the *sorted distinct* ids only, so the
        per-event cost of a large batch of mostly-repeated ids is
        amortized away, and new codes (and the returned ids) come in
        sorted order.
        """
        fresh: List[str] = []
        codes = np.empty(len(uniq), dtype=np.uint32)
        for i, value in enumerate(uniq.tolist()):
            value = str(value)
            code = self._index.get(value)
            if code is None:
                code = len(self._items)
                self._index[value] = code
                self._items.append(value)
                fresh.append(value)
            codes[i] = code
        return codes[inverse], fresh

    def lookup(self, value: str) -> Optional[int]:
        """The code of ``value``, or ``None`` when never interned."""
        return self._index.get(value)

    def value(self, code: int) -> str:
        """The string for ``code`` (IndexError when out of range)."""
        return self._items[code]

    def values(self) -> List[str]:
        """Every interned string, in code order (a copy)."""
        return list(self._items)


@dataclass
class FeedbackBatch:
    """A batch of feedback events as parallel column arrays.

    The columnar ingest interchange: ``times`` (float64), ``servers`` /
    ``clients`` (string arrays), ``ratings`` (0/1 uint8), optional
    ``categories`` (list of ``str | None``) and ``authentic`` (bool).
    Rows are in arrival order; the same validation as the per-event path
    (non-decreasing times per server) is applied vectorized on ingest.
    """

    times: np.ndarray
    servers: np.ndarray
    clients: np.ndarray
    ratings: np.ndarray
    categories: Optional[Sequence[Optional[str]]] = None
    authentic: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.times = np.asarray(self.times, dtype=np.float64)
        self.servers = np.asarray(self.servers)
        self.clients = np.asarray(self.clients)
        self.ratings = np.asarray(self.ratings, dtype=np.uint8)
        n = self.times.size
        for name in ("servers", "clients", "ratings"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} has length {len(getattr(self, name))}, expected {n}")
        if self.ratings.size and self.ratings.max(initial=0) > 1:
            raise ValueError("ratings must be binary (0/1)")
        if self.categories is not None and len(self.categories) != n:
            raise ValueError(f"categories has length {len(self.categories)}, expected {n}")
        if self.authentic is not None:
            self.authentic = np.asarray(self.authentic, dtype=bool)
            if self.authentic.size != n:
                raise ValueError(f"authentic has length {self.authentic.size}, expected {n}")

    def __len__(self) -> int:
        return int(self.times.size)

    @classmethod
    def from_feedbacks(cls, feedbacks: Sequence[Feedback]) -> "FeedbackBatch":
        """Columnarize a sequence of feedback records (arrival order kept)."""
        feedbacks = list(feedbacks)
        return cls(
            times=np.array([fb.time for fb in feedbacks], dtype=np.float64),
            servers=np.array([fb.server for fb in feedbacks], dtype=object),
            clients=np.array([fb.client for fb in feedbacks], dtype=object),
            ratings=np.array([fb.outcome for fb in feedbacks], dtype=np.uint8),
            categories=[fb.category for fb in feedbacks],
            authentic=np.array([fb.authentic for fb in feedbacks], dtype=bool),
        )

    def feedback_at(self, i: int) -> Feedback:
        """Materialize row ``i`` as a :class:`Feedback` object."""
        return Feedback(
            time=float(self.times[i]),
            server=str(self.servers[i]),
            client=str(self.clients[i]),
            rating=Rating.POSITIVE if self.ratings[i] else Rating.NEGATIVE,
            category=None if self.categories is None else self.categories[i],
            authentic=True if self.authentic is None else bool(self.authentic[i]),
        )

    def iter_feedbacks(self) -> Iterator[Feedback]:
        """Materialize every row as a :class:`Feedback`, in arrival order."""
        for i in range(len(self)):
            yield self.feedback_at(i)


class ColumnarStore:
    """Growable structure-of-arrays storage for folded feedback events.

    Columns (all parallel, row = one folded event, arrival order):
    ``times`` float64, ``ratings`` uint8, ``server_codes`` /
    ``client_codes`` uint32 (interned via :class:`StringTable`),
    ``category_codes`` uint16 (:data:`~repro.feedback.binlog.CATEGORY_NONE`
    for none) and ``authentic`` uint8.  Derived indices (per-server row
    lists, per-pair last row) are rebuilt lazily after bulk appends so
    the ingest path stays purely vectorized.
    """

    def __init__(self) -> None:
        self.server_table = StringTable()
        self.client_table = StringTable()
        self.category_table = StringTable()
        self._n = 0
        self._times = np.empty(_INITIAL_CAPACITY, dtype=np.float64)
        self._ratings = np.empty(_INITIAL_CAPACITY, dtype=np.uint8)
        self._srv = np.empty(_INITIAL_CAPACITY, dtype=np.uint32)
        self._cli = np.empty(_INITIAL_CAPACITY, dtype=np.uint32)
        self._cat = np.empty(_INITIAL_CAPACITY, dtype=np.uint16)
        self._auth = np.empty(_INITIAL_CAPACITY, dtype=np.uint8)
        #: last folded feedback time per server code — maintained eagerly
        #: (the ordering validation needs it on every append).
        self._last_time: Dict[int, float] = {}
        # lazily rebuilt derived indices
        self._rows_by_server: Dict[int, List[int]] = {}
        self._rows_dirty = False
        self._pair_last: Dict[Tuple[int, int], int] = {}
        self._pair_dirty = False

    def __len__(self) -> int:
        return self._n

    # ------------------------------------------------------------------ #
    # column views

    @property
    def times(self) -> np.ndarray:
        """Feedback times, arrival order (live view, do not mutate)."""
        return self._times[: self._n]

    @property
    def ratings(self) -> np.ndarray:
        """0/1 outcomes, arrival order (live view, do not mutate)."""
        return self._ratings[: self._n]

    @property
    def server_codes(self) -> np.ndarray:
        """Interned server codes, arrival order (live view)."""
        return self._srv[: self._n]

    @property
    def client_codes(self) -> np.ndarray:
        """Interned client codes, arrival order (live view)."""
        return self._cli[: self._n]

    @property
    def category_codes(self) -> np.ndarray:
        """Interned category codes (``CATEGORY_NONE`` for none, live view)."""
        return self._cat[: self._n]

    @property
    def authentic(self) -> np.ndarray:
        """Authenticity flags as 0/1, arrival order (live view)."""
        return self._auth[: self._n]

    def last_time(self, server_code: int) -> Optional[float]:
        """Most recent folded feedback time for ``server_code``, if any."""
        return self._last_time.get(server_code)

    # ------------------------------------------------------------------ #
    # append paths

    def append_row(
        self,
        time: float,
        server_code: int,
        client_code: int,
        rating: int,
        category_code: int,
        authentic: int,
    ) -> int:
        """Append one pre-validated, pre-interned event; returns its row."""
        row = self._n
        self._ensure_capacity(row + 1)
        self._times[row] = time
        self._srv[row] = server_code
        self._cli[row] = client_code
        self._ratings[row] = rating
        self._cat[row] = category_code
        self._auth[row] = authentic
        self._n = row + 1
        self._last_time[server_code] = time
        if not self._rows_dirty:
            self._rows_by_server.setdefault(server_code, []).append(row)
        if not self._pair_dirty:
            self._pair_last[(server_code, client_code)] = row
        return row

    def append_columns(
        self,
        times: np.ndarray,
        server_codes: np.ndarray,
        client_codes: np.ndarray,
        ratings: np.ndarray,
        category_codes: np.ndarray,
        authentic: np.ndarray,
        *,
        last_codes: np.ndarray,
        last_times: np.ndarray,
    ) -> int:
        """Bulk-append pre-validated column arrays; returns the first row.

        ``last_codes`` names every server in the block once and
        ``last_times`` the time of its last row there, so the caller's
        grouping by server (which it needs anyway) also sets the
        per-server last times.  The row/pair indices are invalidated and
        rebuilt lazily on the next point query.
        """
        n = int(times.size)
        if n == 0:
            return self._n
        start = self._n
        self._ensure_capacity(start + n)
        end = start + n
        self._times[start:end] = times
        self._srv[start:end] = server_codes
        self._cli[start:end] = client_codes
        self._ratings[start:end] = ratings
        self._cat[start:end] = category_codes
        self._auth[start:end] = authentic
        self._n = end
        self._last_time.update(zip(last_codes.tolist(), last_times.tolist()))
        self._rows_dirty = True
        self._rows_by_server.clear()
        self._pair_dirty = True
        self._pair_last.clear()
        return start

    def _ensure_capacity(self, needed: int) -> None:
        capacity = self._times.size
        if needed <= capacity:
            return
        new_size = max(capacity * 2, needed)
        for name in ("_times", "_ratings", "_srv", "_cli", "_cat", "_auth"):
            old = getattr(self, name)
            grown = np.empty(new_size, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    # ------------------------------------------------------------------ #
    # derived indices

    def rows_for_server(self, server_code: int) -> np.ndarray:
        """Row indices of every event for ``server_code``, arrival order."""
        self._ensure_row_index()
        return np.asarray(self._rows_by_server.get(server_code, ()), dtype=np.int64)

    def last_row_for_pair(self, server_code: int, client_code: int) -> Optional[int]:
        """Row of the most recent ``(server, client)`` event, if any."""
        self._ensure_pair_index()
        return self._pair_last.get((server_code, client_code))

    def _ensure_row_index(self) -> None:
        if not self._rows_dirty:
            return
        srv = self._srv[: self._n]
        order = np.argsort(srv, kind="stable")
        codes_sorted = srv[order]
        self._rows_by_server = {}
        if self._n:
            boundaries = np.nonzero(np.diff(codes_sorted))[0] + 1
            starts = np.concatenate([[0], boundaries])
            ends = np.concatenate([boundaries, [self._n]])
            for lo, hi in zip(starts, ends):
                self._rows_by_server[int(codes_sorted[lo])] = order[lo:hi].tolist()
        self._rows_dirty = False

    def _ensure_pair_index(self) -> None:
        if not self._pair_dirty:
            return
        self._pair_last = {}
        if self._n:
            combined = (
                self._srv[: self._n].astype(np.int64) << 32
            ) | self._cli[: self._n].astype(np.int64)
            order = np.argsort(combined, kind="stable")
            keys_sorted = combined[order]
            boundaries = np.nonzero(np.diff(keys_sorted))[0]
            group_last = np.concatenate([boundaries, [self._n - 1]])
            for pos in group_last:
                key = int(keys_sorted[pos])
                self._pair_last[(key >> 32, key & 0xFFFFFFFF)] = int(order[pos])
        self._pair_dirty = False

    # ------------------------------------------------------------------ #
    # materialization

    def feedback_at(self, row: int) -> Feedback:
        """Materialize one stored event as a :class:`Feedback` object."""
        cat_code = int(self._cat[row])
        return Feedback(
            time=float(self._times[row]),
            server=self.server_table.value(int(self._srv[row])),
            client=self.client_table.value(int(self._cli[row])),
            rating=Rating.POSITIVE if self._ratings[row] else Rating.NEGATIVE,
            category=(
                None
                if cat_code == binlog.CATEGORY_NONE
                else self.category_table.value(cat_code)
            ),
            authentic=bool(self._auth[row]),
        )


class _ColumnarHistory(TransactionHistory):
    """Live :class:`TransactionHistory` view over a :class:`ColumnarStore`.

    Outcomes materialize in one vectorized gather (the service's cold
    path reads only those); the per-event :class:`Feedback` metadata is
    deferred until something actually asks for it (``feedbacks()``,
    ``group_by_client()``, the collusion testers) and is then rebuilt
    from the store's columns.  While un-materialized, appends track the
    last feedback time in a plain float so the live-append contract
    costs O(1) per fold, exactly like the eager history.
    """

    def __init__(
        self,
        server: EntityId,
        store: "ColumnarStore",
        server_code: int,
        rows: np.ndarray,
    ):
        super().__init__(server)
        self._lazy_store = store
        self._lazy_code = server_code
        self._lazy_list: Optional[List[Feedback]] = None
        outcomes = store.ratings[rows]
        n = int(outcomes.size)
        self._ensure_capacity(n)
        self._buf[:n] = outcomes
        self._n = n
        self._n_good = int(outcomes.sum())
        self._last_t = float(store.times[rows[-1]]) if n else 0.0

    # ``_feedbacks`` is an attribute on the parent; here it's a lazy
    # property so every metadata path materializes transparently.
    @property  # type: ignore[override]
    def _feedbacks(self) -> List[Feedback]:
        if self._lazy_list is None:
            store = self._lazy_store
            rows = store.rows_for_server(self._lazy_code)
            self._lazy_list = [
                store.feedback_at(int(row)) for row in rows.tolist()
            ]
        return self._lazy_list

    @_feedbacks.setter
    def _feedbacks(self, value: List[Feedback]) -> None:
        # the parent __init__ assigns []; treat any explicit assignment
        # as materialized content
        self._lazy_list = list(value)

    def append_feedback(self, feedback: Feedback) -> None:
        if self._lazy_list is not None:
            super().append_feedback(feedback)
            return
        # un-materialized live append: the backend already stored the
        # row, so only the outcome and the ordering watermark move here
        if feedback.server != self._server:
            raise ValueError(
                f"feedback for server {feedback.server!r} appended to history "
                f"of {self._server!r}"
            )
        if self._n and feedback.time < self._last_t:
            raise ValueError("feedback times must be non-decreasing")
        if not self._has_feedbacks:
            raise ValueError(
                "cannot mix bare outcomes and feedback records in one history"
            )
        self._last_t = feedback.time
        self._push(feedback.outcome)

    def last_time(self) -> float:
        if self._lazy_list is None:
            return self._last_t if self._n else 0.0
        return super().last_time()

    def speculate_feedback(self, feedback: Feedback):
        # the speculated record lives only in this object, never in the
        # store — materialize first so the rollback pops the right item
        self._feedbacks  # noqa: B018 — forces materialization
        return super().speculate_feedback(feedback)


class ColumnarLedgerBackend:
    """In-memory columnar ledger backend (``backend="columnar"``).

    Implements the full ledger backend surface over a
    :class:`ColumnarStore`.  Per-event folds replicate the object
    backend exactly — the ``feedback.ledger.fold`` fault site fires
    before validation, ordering violations raise (or quarantine) with
    the same semantics — while :meth:`record_batch` ingests a whole
    :class:`FeedbackBatch` in one vectorized pass when nothing forces
    the per-event path (armed faults, an ordering violation in the
    batch, or live history objects that must observe each append).
    """

    name = "columnar"

    def __init__(self, quarantine: Optional[Quarantine] = None):
        self._store = ColumnarStore()
        self._quarantine = quarantine
        self._histories: Dict[EntityId, TransactionHistory] = {}

    @property
    def quarantine(self) -> Optional[Quarantine]:
        """The attached quarantine for un-foldable events, if any."""
        return self._quarantine

    @property
    def store(self) -> ColumnarStore:
        """The underlying columnar store (shared, live)."""
        return self._store

    def __len__(self) -> int:
        return len(self._store)

    # ------------------------------------------------------------------ #
    # folding

    def record(self, feedback: Feedback) -> bool:
        """Fold one feedback event; same contract as the object backend."""
        store = self._store
        server_code = store.server_table.lookup(feedback.server)
        try:
            if _res.armed:
                _res.inject(_FOLD_SITE)
            if server_code is not None:
                last = store.last_time(server_code)
                if last is not None and feedback.time < last:
                    raise ValueError("feedback times must be non-decreasing")
        except (ValueError, _res.InjectedFault) as exc:
            if self._quarantine is None:
                raise
            self._quarantine.add(feedback, site=_FOLD_SITE, reason=str(exc))
            return False
        if server_code is None:
            server_code = store.server_table.intern(feedback.server)
        client_code = store.client_table.intern(feedback.client)
        category_code = (
            binlog.CATEGORY_NONE
            if feedback.category is None
            else store.category_table.intern(feedback.category)
        )
        row = store.append_row(
            feedback.time,
            server_code,
            client_code,
            feedback.outcome,
            category_code,
            1 if feedback.authentic else 0,
        )
        history = self._histories.get(feedback.server)
        if history is not None:
            history.append_feedback(feedback)
        self._persist_row(row, feedback)
        return True

    def record_batch(self, batch) -> Optional[int]:
        """Vectorized bulk fold of a :class:`FeedbackBatch` (or a list
        of feedbacks); ``None`` defers to the per-event path.

        The fast path requires clean data (no ordering violations
        against the stored per-server last times or within the batch),
        no armed fault plan (per-event injection sequencing must match
        the object backend bit-for-bit), and no live histories
        materialized yet (those must observe every append one by one).
        """
        if _res.armed or self._histories or len(batch) == 0:
            return None
        if not isinstance(batch, FeedbackBatch):
            batch = FeedbackBatch.from_feedbacks(batch)
        store = self._store
        # ordering is checked on batch-local groups, so a declined batch
        # leaves no id behind in the tables (nor in the mmap sidecars)
        server_ids, server_groups = unique_ids(batch.servers)
        times = batch.times
        order = np.argsort(server_groups, kind="stable")
        groups_sorted = server_groups[order]
        times_sorted = times[order]
        same = groups_sorted[1:] == groups_sorted[:-1]
        if np.any(same & (np.diff(times_sorted) < 0)):
            return None
        # every group occurs, so group g's g-th run opens with its
        # earliest row and closes with its latest
        breaks = np.flatnonzero(~same)
        firsts = times_sorted[np.concatenate([[0], breaks + 1])]
        ends = np.append(breaks, len(batch) - 1)
        for server, first in zip(server_ids.tolist(), firsts.tolist()):
            code = store.server_table.lookup(str(server))
            last = None if code is None else store.last_time(code)
            if last is not None and first < last:
                return None
        server_codes, new_servers = store.server_table.intern_unique(
            server_ids, server_groups
        )
        client_codes, _ = store.client_table.intern_many(batch.clients)
        n = len(batch)
        if batch.categories is None:
            category_codes = np.full(n, binlog.CATEGORY_NONE, dtype=np.uint16)
        else:
            category_codes = np.array(
                [
                    binlog.CATEGORY_NONE
                    if cat is None
                    else store.category_table.intern(cat)
                    for cat in batch.categories
                ],
                dtype=np.uint16,
            )
        authentic = (
            np.ones(n, dtype=np.uint8)
            if batch.authentic is None
            else batch.authentic.astype(np.uint8)
        )
        start_row = store.append_columns(
            times,
            server_codes.astype(np.uint32),
            client_codes.astype(np.uint32),
            batch.ratings,
            category_codes,
            authentic,
            last_codes=server_codes[order[ends]],
            last_times=times_sorted[ends],
        )
        self._persist_block(start_row, n, new_servers)
        return n

    # persistence hooks (the mmap backend overrides these)

    def _persist_row(self, row: int, feedback: Feedback) -> None:
        pass

    def _persist_block(self, start_row: int, n: int, new_servers: List[str]) -> None:
        pass

    # ------------------------------------------------------------------ #
    # queries

    def servers(self) -> Set[EntityId]:
        """All servers with at least one folded feedback."""
        store = self._store
        codes = np.unique(store.server_codes)
        return {store.server_table.value(int(code)) for code in codes}

    def clients(self) -> Set[EntityId]:
        """All clients that issued at least one folded feedback."""
        store = self._store
        codes = np.unique(store.client_codes)
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
        rows = np.nonzero(store.client_codes == code)[0]
        return [store.feedback_at(int(row)) for row in rows]

    def history(self, server: EntityId) -> TransactionHistory:
        """The live :class:`TransactionHistory` of ``server``.

        The outcome buffer materializes from the columns in one
        vectorized gather; per-event :class:`Feedback` metadata stays in
        the store until first requested (:class:`_ColumnarHistory`).
        Once handed out the history is kept appended by every subsequent
        fold — the same live-object contract as the object backend.
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
        """``(client, server) -> (n_positive, n_negative)``, vectorized.

        Edge iteration order matches the object backend byte-for-byte:
        first appearance of each ``(client, server)`` pair in the fold
        stream.
        """
        store = self._store
        n = len(store)
        if n == 0:
            return {}
        combined = (
            store.client_codes.astype(np.int64) << 32
        ) | store.server_codes.astype(np.int64)
        uniq, first_idx, inverse = np.unique(
            combined, return_index=True, return_inverse=True
        )
        pos = np.bincount(inverse, weights=store.ratings.astype(np.float64))
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


class MmapLedgerBackend(ColumnarLedgerBackend):
    """Columnar backend persisted to the binary ledger file (``"mmap"``).

    Opening an existing path memory-maps and loads its record region
    (applying truncated-tail recovery), then every fold appends the
    fixed-width record — ids first, records second, per the
    :mod:`~repro.feedback.binlog` crash-safety protocol.
    """

    name = "mmap"

    def __init__(self, quarantine: Optional[Quarantine] = None, path: Optional[str] = None):
        if path is None:
            raise ValueError("backend='mmap' requires path= (the ledger file)")
        super().__init__(quarantine)
        import os

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
                    last_codes=servers[order[ends]],
                    last_times=times[order[ends]],
                )
        self._writer = binlog.BinaryLedgerWriter(path, truncate_to=n_loaded)
        # ids already in the file must not be re-appended on the next sync
        self._synced_counts: Dict[str, int] = {
            "servers": len(store.server_table),
            "clients": len(store.client_table),
            "categories": len(store.category_table),
        }

    @property
    def path(self) -> str:
        """The backing binary ledger file."""
        return self._writer.path

    def _persist_row(self, row: int, feedback: Feedback) -> None:
        store = self._store
        writer = self._writer
        # flush any ids this fold interned before the record referencing
        # them — the ordering the crash recovery depends on
        self._sync_ids()
        writer.append_records(
            binlog.pack_records(
                np.asarray([feedback.time], dtype=np.float64),
                store.server_codes[row : row + 1],
                store.client_codes[row : row + 1],
                store.ratings[row : row + 1],
                store.authentic[row : row + 1],
                store.category_codes[row : row + 1],
            )
        )

    def _persist_block(self, start_row: int, n: int, new_servers: List[str]) -> None:
        store = self._store
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

    def _sync_ids(self) -> None:
        for kind, table in (
            ("servers", self._store.server_table),
            ("clients", self._store.client_table),
            ("categories", self._store.category_table),
        ):
            synced = self._synced_counts[kind]
            if len(table) > synced:
                self._writer.append_ids(kind, table.values()[synced:])
                self._synced_counts[kind] = len(table)

    def flush(self) -> None:
        """Flush the backing file handles."""
        self._writer.flush()

    def close(self) -> None:
        """Flush and close the backing file (the backend stays queryable)."""
        self._writer.close()
