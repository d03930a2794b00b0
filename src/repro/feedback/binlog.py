"""The append-only binary ledger file format.

CSV/JSONL replay tops out far below the ingest the ROADMAP's serving
scenario needs, so the persistent ledger speaks a fixed-width binary
format that loads straight into the columnar store's arrays through
:func:`numpy.memmap` — no per-row Python objects on the read path.

Layout (little-endian throughout)::

    offset 0   magic      8 bytes  b"REPRLDG1"
    offset 8   version    u32      currently 1
    offset 12  record sz  u32      currently 24
    offset 16  reserved   16 bytes zeros
    offset 32  records    n x 24 bytes, RECORD_DTYPE

Each record references interned entity ids by index into three *sidecar*
tables stored next to the main file (``<path>.servers``,
``<path>.clients``, ``<path>.categories``): append-only UTF-8 files with
one JSON-encoded string per line, so arbitrary ids (including embedded
newlines) round-trip.  ``category`` index ``0xFFFF`` means "no
category".

Crash safety is by append ordering, not checksums: a writer always
flushes new sidecar ids *before* the records referencing them, so after
a crash the damage is confined to the file tails.  Recovery drops

* a partial trailing sidecar line (no terminating newline),
* a partial trailing record (``body_size % record_size`` bytes), and
* every record from the first one referencing an id beyond the
  recovered tables (anything after it belongs to the crashed append).

Everything before that point is intact and loads normally.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, field
from typing import IO, Dict, List, Optional, Sequence, Union

import numpy as np

__all__ = [
    "MAGIC",
    "VERSION",
    "HEADER_SIZE",
    "RECORD_DTYPE",
    "CATEGORY_NONE",
    "BinaryLedgerData",
    "BinaryLedgerWriter",
    "load_binary_ledger",
    "pack_records",
    "write_binary_ledger",
]

PathLike = Union[str, "os.PathLike[str]"]

MAGIC = b"REPRLDG1"
VERSION = 1
HEADER_SIZE = 32

#: One feedback event, fixed width so the record region memory-maps as a
#: numpy structured array.  ``reserved`` pads to 24 bytes and is written
#: as zeros.
RECORD_DTYPE = np.dtype(
    [
        ("time", "<f8"),
        ("server", "<u4"),
        ("client", "<u4"),
        ("rating", "u1"),
        ("authentic", "u1"),
        ("category", "<u2"),
        ("reserved", "<u4"),
    ]
)

#: One :data:`RECORD_DTYPE` record as packed bytes, for a single event.
_RECORD = struct.Struct("<dIIBBHI")

#: ``category`` sentinel for feedback without a category.
CATEGORY_NONE = 0xFFFF

_SIDECARS = ("servers", "clients", "categories")


def _header_bytes() -> bytes:
    header = bytearray(HEADER_SIZE)
    header[0:8] = MAGIC
    header[8:12] = int(VERSION).to_bytes(4, "little")
    header[12:16] = int(RECORD_DTYPE.itemsize).to_bytes(4, "little")
    return bytes(header)


def _sidecar_path(path: PathLike, kind: str) -> str:
    return f"{os.fspath(path)}.{kind}"


def _load_sidecar(path: str) -> List[str]:
    """Read one id table; a partial trailing line is dropped (crash tail)."""
    if not os.path.exists(path):
        return []
    with open(path, "rb") as handle:
        raw = handle.read()
    if not raw:
        return []
    complete = raw if raw.endswith(b"\n") else raw[: raw.rfind(b"\n") + 1]
    return [json.loads(line) for line in complete.decode("utf-8").splitlines()]


@dataclass
class BinaryLedgerData:
    """A loaded binary ledger: the record columns plus the id tables.

    ``records`` is a structured :data:`RECORD_DTYPE` array (a fresh
    in-memory copy of the memory-mapped region, so the file handle is
    not held open); ``dropped_bytes`` / ``dropped_records`` describe the
    crash tail recovery trimmed away, if any.
    """

    records: np.ndarray
    servers: List[str] = field(default_factory=list)
    clients: List[str] = field(default_factory=list)
    categories: List[str] = field(default_factory=list)
    dropped_bytes: int = 0
    dropped_records: int = 0

    @property
    def damaged(self) -> bool:
        """True when recovery had to trim a crash tail."""
        return bool(self.dropped_bytes or self.dropped_records)


def load_binary_ledger(path: PathLike, *, recover: bool = True) -> BinaryLedgerData:
    """Load a binary ledger file, applying truncated-tail recovery.

    With ``recover=True`` (default) a crash tail — trailing partial
    record, partial sidecar line, or records referencing unrecovered
    ids — is trimmed and reported on the result; with ``recover=False``
    any such damage raises :class:`ValueError` instead.  A bad header
    (wrong magic, version, or record size) always raises: that is a
    wrong *file*, not a crash tail.
    """
    path = os.fspath(path)
    size = os.path.getsize(path)
    if size < HEADER_SIZE:
        raise ValueError(f"{path}: too small to be a binary ledger ({size} bytes)")
    with open(path, "rb") as handle:
        header = handle.read(HEADER_SIZE)
    if header[0:8] != MAGIC:
        raise ValueError(f"{path}: bad magic {header[0:8]!r}; not a binary ledger")
    version = int.from_bytes(header[8:12], "little")
    if version != VERSION:
        raise ValueError(f"{path}: unsupported ledger version {version}")
    record_size = int.from_bytes(header[12:16], "little")
    if record_size != RECORD_DTYPE.itemsize:
        raise ValueError(
            f"{path}: record size {record_size} != {RECORD_DTYPE.itemsize}"
        )

    body = size - HEADER_SIZE
    n_records = body // record_size
    dropped_bytes = body % record_size

    tables = {kind: _load_sidecar(_sidecar_path(path, kind)) for kind in _SIDECARS}

    if n_records:
        mapped = np.memmap(
            path, dtype=RECORD_DTYPE, mode="r", offset=HEADER_SIZE, shape=(n_records,)
        )
        records = np.array(mapped)  # detach from the mapping
        del mapped
    else:
        records = np.empty(0, dtype=RECORD_DTYPE)

    valid = (
        (records["server"] < len(tables["servers"]))
        & (records["client"] < len(tables["clients"]))
        & (
            (records["category"] == CATEGORY_NONE)
            | (records["category"] < len(tables["categories"]))
        )
        & (records["rating"] <= 1)
    )
    dropped_records = 0
    if records.size and not valid.all():
        first_bad = int(np.argmax(~valid))
        dropped_records = int(records.size - first_bad)
        records = records[:first_bad].copy()

    data = BinaryLedgerData(
        records=records,
        servers=tables["servers"],
        clients=tables["clients"],
        categories=tables["categories"],
        dropped_bytes=dropped_bytes,
        dropped_records=dropped_records,
    )
    if data.damaged and not recover:
        raise ValueError(
            f"{path}: damaged tail ({data.dropped_records} record(s), "
            f"{data.dropped_bytes} byte(s)); reopen with recovery enabled "
            "to trim it"
        )
    return data


class BinaryLedgerWriter:
    """Append-only writer for one binary ledger file.

    Opening a fresh path writes the header; opening an existing file
    positions at its end (the caller is expected to have loaded it via
    :func:`load_binary_ledger` first — after a crash, pass
    ``truncate_to`` with the recovered record count so the damaged tail
    is physically removed before new appends land on top of it).

    The append protocol is: :meth:`append_ids` (flushed) **before**
    :meth:`append_records` referencing the new indices — the invariant
    the recovery procedure relies on.
    """

    def __init__(self, path: PathLike, *, truncate_to: Optional[int] = None):
        self._path = os.fspath(path)
        fresh = (
            not os.path.exists(self._path) or os.path.getsize(self._path) == 0
        )
        if fresh:
            with open(self._path, "wb") as handle:
                handle.write(_header_bytes())
        elif truncate_to is not None:
            keep = HEADER_SIZE + truncate_to * RECORD_DTYPE.itemsize
            if os.path.getsize(self._path) > keep:
                with open(self._path, "r+b") as handle:
                    handle.truncate(keep)
        self._records: IO[bytes] = open(self._path, "ab")
        self._sidecars: Dict[str, IO[bytes]] = {
            kind: open(_sidecar_path(self._path, kind), "ab") for kind in _SIDECARS
        }

    @property
    def path(self) -> str:
        """The main ledger file path."""
        return self._path

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` has run."""
        return self._records.closed

    def append_ids(self, kind: str, ids: Sequence[str]) -> None:
        """Append newly interned ids to the ``kind`` sidecar and flush."""
        if kind not in _SIDECARS:
            raise ValueError(f"kind must be one of {_SIDECARS}, got {kind!r}")
        if not ids:
            return
        handle = self._sidecars[kind]
        handle.write(
            "".join(json.dumps(value) + "\n" for value in ids).encode("utf-8")
        )
        handle.flush()

    def append_records(self, records: np.ndarray) -> None:
        """Append a :data:`RECORD_DTYPE` array to the record region and flush."""
        if records.dtype != RECORD_DTYPE:
            raise ValueError(
                f"records must have dtype {RECORD_DTYPE}, got {records.dtype}"
            )
        if records.size == 0:
            return
        self._records.write(records.tobytes())
        self._records.flush()

    def append_record(
        self,
        time: float,
        server: int,
        client: int,
        rating: int,
        authentic: int,
        category: int,
    ) -> None:
        """Append one record from its field values and flush."""
        self._records.write(
            _RECORD.pack(time, server, client, rating, authentic, category, 0)
        )
        self._records.flush()

    def flush(self) -> None:
        """Flush every underlying file handle."""
        self._records.flush()
        for handle in self._sidecars.values():
            handle.flush()

    def close(self) -> None:
        """Flush and close every underlying file handle (idempotent)."""
        if self.closed:
            return
        self._records.close()
        for handle in self._sidecars.values():
            handle.close()

    def __enter__(self) -> "BinaryLedgerWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def pack_records(
    times: np.ndarray,
    server_codes: np.ndarray,
    client_codes: np.ndarray,
    ratings: np.ndarray,
    authentic: Optional[np.ndarray] = None,
    category_codes: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Assemble column arrays into a :data:`RECORD_DTYPE` record block."""
    n = len(times)
    records = np.zeros(n, dtype=RECORD_DTYPE)
    records["time"] = times
    records["server"] = server_codes
    records["client"] = client_codes
    records["rating"] = ratings
    records["authentic"] = (
        np.ones(n, dtype=np.uint8) if authentic is None else authentic
    )
    records["category"] = (
        np.full(n, CATEGORY_NONE, dtype=np.uint16)
        if category_codes is None
        else category_codes
    )
    return records


def write_binary_ledger(path: PathLike, feedbacks) -> int:
    """Write feedback records as a fresh binary ledger; returns the count.

    The bulk-export counterpart of the CSV/JSONL writers: ids are
    interned in first-appearance order and the whole record block is
    written in one append.
    """
    from .records import Rating  # local import: records.py is dependency-free

    path = os.fspath(path)
    if os.path.exists(path):
        os.remove(path)
    for kind in _SIDECARS:
        sidecar = _sidecar_path(path, kind)
        if os.path.exists(sidecar):
            os.remove(sidecar)

    feedbacks = list(feedbacks)
    tables: Dict[str, Dict[str, int]] = {kind: {} for kind in _SIDECARS}

    def intern(kind: str, value: str) -> int:
        return tables[kind].setdefault(value, len(tables[kind]))

    n = len(feedbacks)
    times = np.empty(n, dtype=np.float64)
    servers = np.empty(n, dtype=np.uint32)
    clients = np.empty(n, dtype=np.uint32)
    ratings = np.empty(n, dtype=np.uint8)
    authentic = np.empty(n, dtype=np.uint8)
    categories = np.full(n, CATEGORY_NONE, dtype=np.uint16)
    for i, fb in enumerate(feedbacks):
        times[i] = fb.time
        servers[i] = intern("servers", fb.server)
        clients[i] = intern("clients", fb.client)
        ratings[i] = 1 if fb.rating is Rating.POSITIVE else 0
        authentic[i] = 1 if fb.authentic else 0
        if fb.category is not None:
            categories[i] = intern("categories", fb.category)
    with BinaryLedgerWriter(path) as writer:
        for kind in _SIDECARS:
            writer.append_ids(kind, list(tables[kind]))
        writer.append_records(
            pack_records(times, servers, clients, ratings, authentic, categories)
        )
    return n
