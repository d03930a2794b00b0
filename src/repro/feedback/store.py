"""Structure-of-arrays feedback storage — the ledger's primitives.

:class:`ColumnarStore` holds folded feedback as parallel numpy columns
(``float64`` times, ``uint8`` ratings, ``uint32`` interned server/client
ids) with amortized O(1) per-event append and a vectorized bulk path
(:class:`FeedbackBatch`).  The bulk path interns a batch's id columns
without sorting strings: :func:`id_hash` keys each id with a 64-bit
FNV-1a, :func:`unique_ids` groups the keys and checks every row against
its group's representative (a collision falls back to the string sort),
and only the distinct ids are sorted, so codes come out exactly as a
sort would give them.  :class:`StringTable` interns the ids, and
:class:`_ColumnarHistory` is the live per-server history view over the
columns.

:class:`~repro.feedback.ledger.FeedbackLedger` owns one store, folds
into it, and appends to the binary ledger file
(:mod:`repro.feedback.binlog`) when it has one.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from . import binlog
from .history import TransactionHistory
from .records import EntityId, Feedback, Rating

__all__ = [
    "CATEGORY_LIMIT",
    "id_hash",
    "unique_ids",
    "group_ids",
    "ServerRuns",
    "StringTable",
    "FeedbackBatch",
    "ColumnarStore",
]

_INITIAL_CAPACITY = 1024

#: The most distinct categories a store holds: codes are ``uint16`` and
#: the last one, :data:`~repro.feedback.binlog.CATEGORY_NONE`, means none.
CATEGORY_LIMIT = binlog.CATEGORY_NONE


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


def group_ids(
    values: Sequence[str], ids: Optional[Sequence[str]] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`unique_ids` of a sequence of Python strings, by dict.

    One dict pass over the rows and a sort of the distinct ids only:
    the sorted distinct ids (an object array) and each row's index into
    them, exactly what :func:`unique_ids` returns for the same ids.
    ``ids`` numbers the distinct ids in another order instead; it must
    name each of them once.
    """
    if ids is None:
        ids = sorted(dict.fromkeys(values))
    position = dict(zip(ids, range(len(ids))))
    inverse = np.array(list(map(position.__getitem__, values)), dtype=np.intp)
    return np.array(ids, dtype=object), inverse


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
        values = uniq.tolist()
        codes, fresh = self.intern_codes(values, self.codes(values))
        return np.array(codes, dtype=np.uint32)[inverse], fresh

    def codes(self, values: List[str]) -> List[Optional[int]]:
        """The code of each of ``values`` (``None`` when never interned)."""
        return list(map(self._index.get, values))

    def intern_codes(
        self, values: List[str], codes: List[Optional[int]]
    ) -> Tuple[List[int], List[str]]:
        """Complete :meth:`codes` output: intern the ``None`` entries'
        values, in order; returns every code and the new ids."""
        fresh: List[str] = []
        if None in codes:
            codes = list(codes)
            index = self._index
            for i, code in enumerate(codes):
                if code is None:
                    value = str(values[i])
                    codes[i] = index[value] = len(self._items)
                    self._items.append(value)
                    fresh.append(value)
        return codes, fresh

    def lookup(self, value: str) -> Optional[int]:
        """The code of ``value``, or ``None`` when never interned."""
        return self._index.get(value)

    def value(self, code: int) -> str:
        """The string for ``code`` (IndexError when out of range)."""
        return self._items[code]

    def values(self) -> List[str]:
        """Every interned string, in code order (a copy)."""
        return list(self._items)


class ServerRuns(NamedTuple):
    """A batch's rows grouped into per-server runs.

    ``ids`` / ``inverse`` are the server groups (the batch's, or
    :func:`unique_ids`); ``order`` lists the rows by server, stably, so
    each run keeps arrival order; run ``g`` (of ``ids[g]``) is
    ``order[bounds[g]:bounds[g + 1]]``.  ``times`` is the time column in
    that order, ``firsts`` / ``lasts`` each run's first and last time
    (lists), and ``backward`` flags the runs that go back in time
    (``None`` when none does).  ``servers`` is ``ids`` as a list.
    """

    ids: np.ndarray
    servers: List[str]
    inverse: np.ndarray
    order: np.ndarray
    bounds: np.ndarray
    times: np.ndarray
    firsts: List[float]
    lasts: List[float]
    backward: Optional[np.ndarray]


@dataclass
class FeedbackBatch:
    """A batch of feedback events as parallel column arrays.

    The columnar ingest interchange: ``times`` (float64), ``servers`` /
    ``clients`` (string arrays), ``ratings`` (0/1 uint8), optional
    ``categories`` (a sequence of ``str | None``) and ``authentic``
    (bool).  Rows are in arrival order; the same validation as the
    per-event path (non-decreasing times per server) is applied
    vectorized on ingest.  ``server_groups`` / ``client_groups``
    optionally carry the id columns grouped — the distinct ids, each
    occurring, and each row's index into them, as :func:`unique_ids`
    gives them — when the producer already has them, so ingest neither
    hashes nor sorts ids.  Codes are assigned in the order of the
    distinct ids, so sorted ids give the codes a string sort would.
    """

    times: np.ndarray
    servers: np.ndarray
    clients: np.ndarray
    ratings: np.ndarray
    categories: Optional[Sequence[Optional[str]]] = None
    authentic: Optional[np.ndarray] = None
    server_groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
    client_groups: Optional[Tuple[np.ndarray, np.ndarray]] = None
    _runs: Optional[ServerRuns] = field(
        default=None, init=False, repr=False, compare=False
    )
    _outcomes: Optional[tuple] = field(
        default=None, init=False, repr=False, compare=False
    )

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
    def from_feedbacks(
        cls,
        feedbacks: Sequence[Feedback],
        *,
        server_ids: Optional[Sequence[str]] = None,
    ) -> "FeedbackBatch":
        """Columnarize a sequence of feedback records (arrival order kept).

        The id columns are grouped by dict (:func:`group_ids`, the
        servers in the order of ``server_ids`` when given) on the way;
        ``categories`` stays ``None`` when no record has one, and
        ``authentic`` when every record is authentic.  Each column is
        its own comprehension: a row tuple per event would be one more
        garbage-collected allocation per event.
        """
        positive = Rating.POSITIVE
        servers = [fb.server for fb in feedbacks]
        clients = [fb.client for fb in feedbacks]
        categories = [fb.category for fb in feedbacks]
        authentic = [fb.authentic for fb in feedbacks]
        return cls(
            times=np.array([fb.time for fb in feedbacks], dtype=np.float64),
            servers=np.array(servers, dtype=object),
            clients=np.array(clients, dtype=object),
            ratings=np.array(
                [fb.rating is positive for fb in feedbacks], dtype=bool
            ).view(np.uint8),
            categories=(
                None
                if categories.count(None) == len(categories)
                else np.array(categories, dtype=object)
            ),
            authentic=None if all(authentic) else np.array(authentic, dtype=bool),
            server_groups=group_ids(servers, server_ids),
            client_groups=group_ids(clients),
        )

    def server_runs(self) -> "ServerRuns":
        """The batch's rows grouped into per-server runs
        (:class:`ServerRuns`), computed once per batch so every
        consumer of one batch shares them."""
        if self._runs is None:
            self._runs = self._group_runs()
        return self._runs

    def _group_runs(self) -> "ServerRuns":
        """:meth:`server_runs` without keeping them: the cached runs if
        a consumer already asked, else runs computed afresh."""
        if self._runs is not None:
            return self._runs
        ids, inverse = self.server_groups or unique_ids(self.servers)
        order = inverse.argsort(kind="stable")
        bounds = inverse[order].searchsorted(np.arange(len(ids) + 1))
        times = self.times[order]
        ends = bounds[1:] - 1
        back = times[1:] < times[:-1]
        back[ends[:-1]] = False  # a step from one run to the next
        backward = None
        if back.any():
            backward = np.zeros(len(ids), dtype=bool)
            backward[inverse[order[1:][back]]] = True
        return ServerRuns(
            ids,
            ids.tolist(),
            inverse,
            order,
            bounds,
            times,
            times[bounds[:-1]].tolist(),
            times[ends].tolist(),
            backward,
        )

    def run_outcomes(
        self, runs: ServerRuns
    ) -> Tuple[np.ndarray, List[int], List[int], List[float]]:
        """What extending live histories by this batch (grouped as
        ``runs``) takes: the ratings in run order, each run's good
        count, and the run bounds and last times as lists; computed once
        per batch."""
        if self._outcomes is None:
            ratings = self.ratings[runs.order]
            goods = np.add.reduceat(ratings, runs.bounds[:-1], dtype=np.int64)
            self._outcomes = (
                ratings,
                goods.tolist(),
                runs.bounds.tolist(),
                runs.lasts,
            )
        return self._outcomes

    def take(self, rows: np.ndarray) -> "FeedbackBatch":
        """The batch of rows ``rows`` (ascending indices or a boolean
        mask) of this valid batch; the id groups are narrowed to the ids
        those rows hold."""
        batch = copy(self)
        batch._runs = batch._outcomes = None
        batch.times = self.times[rows]
        batch.servers = self.servers[rows]
        batch.clients = self.clients[rows]
        batch.ratings = self.ratings[rows]
        if self.categories is not None:
            batch.categories = np.asarray(self.categories, dtype=object)[rows]
        if self.authentic is not None:
            batch.authentic = self.authentic[rows]
        batch.server_groups = _narrow(self.server_groups, rows)
        batch.client_groups = _narrow(self.client_groups, rows)
        return batch

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


def _narrow(
    groups: Optional[Tuple[np.ndarray, np.ndarray]], rows: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``groups`` of a batch, restricted to ``rows`` of it."""
    if groups is None:
        return None
    ids, inverse = groups
    inverse = inverse[rows]
    present = np.zeros(len(ids), dtype=bool)
    present[inverse] = True
    code = present.cumsum() - 1
    return ids[present], code[inverse]


class ColumnarStore:
    """Growable structure-of-arrays storage for folded feedback events.

    Columns (all parallel, row = one folded event, arrival order):
    ``times`` float64, ``ratings`` uint8, ``server_codes`` /
    ``client_codes`` uint32 (interned via :class:`StringTable`),
    ``category_codes`` uint16 (:data:`~repro.feedback.binlog.CATEGORY_NONE`
    for none) and ``authentic`` uint8.  Derived indices (per-server row
    lists, per-pair last row) catch up lazily with the rows appended
    since they were last read, so the ingest path stays purely
    vectorized.  :meth:`drop_server` tombstones a server's rows: they
    stay in the columns (and in the binary file, which is append-only)
    but leave every index, and :meth:`live_rows` names the rest.
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
        # derived indices, each covering the rows before its mark
        self._rows_by_server: Dict[int, List[int]] = {}
        self._rows_indexed = 0
        #: ``server_code << 32 | client_code`` -> last row of that pair
        self._pair_last: Dict[int, int] = {}
        self._pairs_indexed = 0
        #: tombstoned rows (:meth:`drop_server`), in drop order
        self._dropped = np.empty(0, dtype=np.int64)

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

    def behind(self, server_codes: List[Optional[int]], times: List[float]) -> bool:
        """Whether any time comes before its server's last time (a
        ``None`` code is a server not stored yet)."""
        get = self._last_time.get
        last: Optional[float]
        for code, time in zip(server_codes, times):
            last = get(code)
            if last is not None and time < last:
                return True
        return False

    def has_room_for(self, categories: Iterable[Optional[str]]) -> bool:
        """Whether interning ``categories`` (``None`` stands for none)
        keeps the category table within :data:`CATEGORY_LIMIT`."""
        index = self.category_table._index
        fresh = {c for c in categories if c is not None and c not in index}
        return len(index) + len(fresh) <= CATEGORY_LIMIT

    # ------------------------------------------------------------------ #
    # append paths

    def append_columns(
        self,
        times: np.ndarray,
        server_codes: np.ndarray,
        client_codes: np.ndarray,
        ratings: np.ndarray,
        category_codes: np.ndarray,
        authentic: np.ndarray,
        *,
        last_codes: Sequence[int],
        last_times: Sequence[float],
    ) -> int:
        """Bulk-append pre-validated column arrays (a scalar stands for
        a column constant across the block); returns the first row.

        ``last_codes`` names every server in the block once and
        ``last_times`` the time of its last row there, so the caller's
        grouping by server (which it needs anyway) also sets the
        per-server last times.  The row/pair indices take the block in
        on the next point query.
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
        self._last_time.update(zip(last_codes, last_times))
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

    def server_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """The live rows ordered by server code, stably (each server's
        rows keep arrival order), and the bounds of each code's run:
        code ``c`` holds ``order[bounds[c]:bounds[c + 1]]``."""
        live = self.live_rows()
        codes = self.server_codes if live is None else self._srv[live]
        order = np.argsort(codes, kind="stable")
        if live is not None:
            order = live[order]
        counts = np.bincount(codes, minlength=len(self.server_table))
        return order, np.concatenate(([0], np.cumsum(counts)))

    def rows_for_server(self, server_code: int) -> np.ndarray:
        """Row indices of every event for ``server_code``, arrival order."""
        self._ensure_row_index()
        return np.asarray(self._rows_by_server.get(server_code, ()), dtype=np.int64)

    def last_row_for_pair(self, server_code: int, client_code: int) -> Optional[int]:
        """Row of the most recent ``(server, client)`` event, if any."""
        self._ensure_pair_index()
        return self._pair_last.get(server_code << 32 | client_code)

    def _ensure_row_index(self) -> None:
        lo = self._rows_indexed
        if lo == self._n:
            return
        srv = self._srv[lo : self._n]
        order = np.argsort(srv, kind="stable")
        codes_sorted = srv[order]
        if lo:
            order += lo
        starts = (np.flatnonzero(np.diff(codes_sorted)) + 1).tolist()
        index = self._rows_by_server
        for code, a, b in zip(
            codes_sorted[[0, *starts]].tolist(), [0, *starts], [*starts, order.size]
        ):
            run = index.get(code)
            if run is None:
                index[code] = order[a:b].tolist()
            else:
                run.extend(order[a:b].tolist())
        self._rows_indexed = self._n

    def _ensure_pair_index(self) -> None:
        lo = self._pairs_indexed
        if lo == self._n:
            return
        combined = (
            self._srv[lo : self._n].astype(np.int64) << 32
        ) | self._cli[lo : self._n].astype(np.int64)
        # the last row of each pair is the first one of the reversed block
        keys, first = np.unique(combined[::-1], return_index=True)
        last = (self._n - 1 - first).tolist()
        self._pair_last.update(zip(keys.tolist(), last))
        self._pairs_indexed = self._n

    # ------------------------------------------------------------------ #
    # repair

    def drop_server(self, server_code: int) -> None:
        """Tombstone every row of ``server_code``: its row list, pair
        entries and last time go, in time linear in its rows."""
        self._ensure_row_index()
        self._ensure_pair_index()
        rows = self._rows_by_server.pop(server_code, [])
        for client_code in set(self._cli[rows].tolist()):
            del self._pair_last[server_code << 32 | client_code]
        self._last_time.pop(server_code, None)
        self._dropped = np.append(self._dropped, np.asarray(rows, dtype=np.int64))

    @property
    def n_dropped(self) -> int:
        """How many rows :meth:`drop_server` tombstoned."""
        return int(self._dropped.size)

    def live_rows(self) -> Optional[np.ndarray]:
        """Indices of the live rows, or ``None`` when no row is tombstoned."""
        if not self._dropped.size:
            return None
        live = np.ones(self._n, dtype=bool)
        live[self._dropped] = False
        return np.flatnonzero(live)

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

    Outcomes arrive as one gathered block (the service's cold path
    reads only those); the per-event :class:`Feedback` metadata is
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
        outcomes: np.ndarray,
        n_good: int,
    ):
        """``outcomes`` is the server's ``int8`` outcome block, oldest
        first, kept as the buffer (the next append grows a copy), and
        ``n_good`` its sum; the last time is the store's."""
        super().__init__(server)
        self._lazy_store = store
        self._lazy_code = server_code
        self._lazy_list: Optional[List[Feedback]] = None
        self._buf = outcomes
        self._n = int(outcomes.size)
        self._n_good = n_good
        self._last_t = store._last_time[server_code]

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
