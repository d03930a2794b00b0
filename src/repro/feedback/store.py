"""Structure-of-arrays feedback storage — the ledger backends.

:class:`ColumnarStore` holds folded feedback as parallel numpy columns
(``float64`` times, ``uint8`` ratings, ``uint32`` interned server/client
ids) with amortized O(1) per-event append and a vectorized bulk path
(:class:`FeedbackBatch`).  The bulk path interns a batch's id columns
without sorting strings: :func:`id_hash` keys each id with a 64-bit
FNV-1a, :func:`unique_ids` groups the keys and checks every row against
its group's representative (a collision falls back to the string sort),
and only the distinct ids are sorted, so codes come out exactly as a
sort would give them.  Two ledger backends are built on it:

* ``"columnar"`` — in-memory columns only (also named ``"memory"``);
* ``"mmap"`` — columns plus the append-only binary file format of
  :mod:`repro.feedback.binlog` (records are appended on every fold, the
  existing file is memory-mapped and recovered on open).

Both sit in the fixed backend table of :mod:`repro.feedback.ledger`,
behind the same ``FeedbackLedger`` facade, with identical semantics —
including the ``feedback.ledger.fold`` fault site, quarantine behavior,
and the live-history contract (the conformance and hypothesis-equivalence
suites assert all of it, verdict-for-verdict).
"""

from __future__ import annotations

from collections import defaultdict
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
    Set,
    Tuple,
)

import numpy as np

from ..resilience import runtime as _res
from ..resilience.quarantine import Quarantine
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
    "ColumnarLedgerBackend",
    "MmapLedgerBackend",
]

_FOLD_SITE = "feedback.ledger.fold"
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

    def last_time(self, server_code: int) -> Optional[float]:
        """Most recent folded feedback time for ``server_code``, if any."""
        return self._last_time.get(server_code)

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

    def append_row(
        self,
        time: float,
        server_code: int,
        client_code: int,
        rating: int,
        category_code: int,
        authentic: int,
    ) -> int:
        """Append one pre-validated, pre-interned event; returns its row.

        Only the columns and the server's last time move; the row/pair
        indices take the row in on the next point query.
        """
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
        self._dropped = np.append(self._dropped, rows)

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
    :class:`ColumnarStore`.  Per-event folds (:meth:`record`) fire the
    ``feedback.ledger.fold`` fault site before validation and raise (or
    quarantine) on an ordering violation, while :meth:`record_batch`
    ingests a whole :class:`FeedbackBatch` in one vectorized pass when
    nothing forces the per-event path (armed faults, or an ordering
    violation in the batch); live histories take the block in one
    slice per server.
    """

    name = "columnar"

    def __init__(self, quarantine: Optional[Quarantine] = None):
        self._store = ColumnarStore()
        self._quarantine = quarantine
        self._histories: Dict[EntityId, TransactionHistory] = {}
        #: the last distinct-client array interned, and its codes: the
        #: messages cut from one client batch share that array
        self._clients: Tuple[Optional[np.ndarray], Optional[np.ndarray]] = (None, None)

    @property
    def quarantine(self) -> Optional[Quarantine]:
        """The attached quarantine for un-foldable events, if any."""
        return self._quarantine

    @property
    def store(self) -> ColumnarStore:
        """The underlying columnar store (shared, live)."""
        return self._store

    def __len__(self) -> int:
        return len(self._store) - self._store.n_dropped

    # ------------------------------------------------------------------ #
    # folding

    def record(self, feedback: Feedback) -> bool:
        """Fold one feedback event; ``False`` means it was quarantined.

        One flat body: the ids are looked up straight in the intern
        tables, and the row, the server's last time and a live history
        are written in place (a materialized history also takes the
        record).  One guard ahead of any interning stops the events that
        may be refused — an armed ``feedback.ledger.fold`` fault site, a
        time before the server's last one, a category when the category
        table is full — and :meth:`_refused` decides; an event it lets
        through goes on to the same fold.  The point indexes take the
        row in on their next query.
        """
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
        if self._persist_row is not None:
            self._persist_row(
                time, server_code, client_code, rating, authentic, category_code
            )
        return True

    def _refused(self, feedback: Feedback, last: Optional[float]) -> bool:
        """Whether :meth:`record` refuses ``feedback`` (``last`` is its
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

    def record_batch(self, batch) -> Optional[int]:
        """Vectorized bulk fold of a :class:`FeedbackBatch` (or a list
        of feedbacks); ``None`` defers to the per-event path.

        The fast path requires clean data (no ordering violations
        against the stored per-server last times or within the batch, no
        category past :data:`CATEGORY_LIMIT`) and no armed fault plan
        (per-event injection sequencing must match :meth:`record`
        bit-for-bit).  Live histories already
        handed out are extended by their server's slice of the block,
        as the per-event path would have appended it.
        """
        if _res.armed or len(batch) == 0:
            return None
        if not isinstance(batch, FeedbackBatch):
            batch = FeedbackBatch.from_feedbacks(batch)
        store = self._store
        # ordering is checked on batch-local groups, so a declined batch
        # leaves no id behind in the tables (nor in the mmap sidecars)
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
        self._persist_block(start_row, n, new_servers)
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

    # persistence hooks (the mmap backend overrides these); a backend
    # that persists nothing per event keeps no per-event hook to call
    _persist_row = None

    def _persist_block(self, start_row: int, n: int, new_servers: List[str]) -> None:
        pass

    def flush(self) -> None:
        """Nothing to flush: the columns live in memory only."""

    def close(self) -> None:
        """Nothing to release: the columns live in memory only."""

    # ------------------------------------------------------------------ #
    # queries

    def reset_server(self, server: EntityId, feedbacks: List[Feedback]) -> int:
        """Replace every record for ``server`` with a reconciled stream.

        In time linear in the server's old and new records: the old
        rows are tombstoned (:meth:`ColumnarStore.drop_server`) and the
        stream is folded one event at a time after every other server's
        rows.
        """
        for fb in feedbacks:
            if fb.server != server:
                raise ValueError(
                    f"reset_server({server!r}) got feedback for {fb.server!r}"
                )
        code = self._store.server_table.lookup(server)
        if code is not None:
            self._store.drop_server(code)
        self._histories.pop(server, None)
        return sum(self.record(fb) for fb in feedbacks)

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

        The outcome buffer materializes from the columns in one
        vectorized gather; per-event :class:`Feedback` metadata stays in
        the store until first requested (:class:`_ColumnarHistory`).
        Once handed out the history is kept appended by every subsequent
        fold.
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

        Edges iterate in order of first appearance of each
        ``(client, server)`` pair in the fold stream.
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
    def path(self) -> str:
        """The backing binary ledger file."""
        return self._writer.path

    def reset_server(self, server: EntityId, feedbacks: List[Feedback]) -> int:
        """Unsupported: the ledger file is append-only."""
        raise NotImplementedError(
            "ledger backend 'mmap' does not support reset_server: its file "
            "is append-only"
        )

    def _persist_row(
        self,
        time: float,
        server_code: int,
        client_code: int,
        rating: int,
        authentic: int,
        category_code: int,
    ) -> None:
        # flush any ids this fold interned before the record referencing
        # them — the ordering the crash recovery depends on
        self._sync_ids()
        self._writer.append_record(
            time, server_code, client_code, rating, authentic, category_code
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
            items = table._items
            synced = self._synced_counts[kind]
            if len(items) > synced:
                self._writer.append_ids(kind, items[synced:])
                self._synced_counts[kind] = len(items)

    def flush(self) -> None:
        """Flush the backing file handles."""
        self._writer.flush()

    def close(self) -> None:
        """Flush and close the backing file (the backend stays queryable)."""
        self._writer.close()
