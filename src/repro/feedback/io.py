"""Feedback serialization: CSV, JSON-lines, and the binary ledger.

Real deployments have feedback in flat files long before they have a
reputation service; these readers/writers make the library usable on
such data (and feed the ``repro-assess`` CLI).  Formats:

* **CSV** with header ``time,server,client,rating[,category][,authentic]``;
  ``rating`` accepts ``1/0``, ``positive/negative``, ``pos/neg``,
  ``good/bad``, ``+/-`` (case-insensitive).
* **JSONL**: one object per line with the same fields.
* **binary**: the append-only ledger file of
  :mod:`repro.feedback.binlog` (fixed-width records + id sidecars).

The single entry point is :func:`read`, which dispatches through a
fixed format table — by explicit name, by file extension, or by content
sniffing (``format="auto"``, the default)::

    result = read("events.csv")                      # extension
    result = read("dump.bin", format="binary")       # explicit
    result = read(path, errors="collect")            # lenient rows

All readers validate eagerly and report the offending line number —
silent row-skipping turns data bugs into wrong trust decisions.  That
strictness is the default; production streams that must survive one bad
row opt into ``errors="collect"`` (bad rows returned as structured
:class:`RowError` objects on the result) or ``errors="skip"`` (bad rows
dropped with a summary warning).  In both lenient modes the good rows
still load, so a single malformed line no longer aborts the file.  For
the binary format a "bad row" is a damaged crash tail: strict raises,
the lenient modes trim it (``collect`` reports the trim as a
:class:`RowError`).
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..resilience import runtime as _res
from . import binlog
from .records import Feedback, Rating

# Module-level logger per library etiquette: never the root logger; the
# application (or repro.obs.configure_logging) decides about handlers.
_log = logging.getLogger(__name__)

__all__ = [
    "RowError",
    "ReadResult",
    "read",
    "detect_format",
    "write_feedback_csv",
    "write_feedback_jsonl",
    "write_feedback_binary",
    "parse_rating",
]

PathLike = Union[str, Path]

_POSITIVE_TOKENS = {"1", "positive", "pos", "good", "+", "true"}
_NEGATIVE_TOKENS = {"0", "negative", "neg", "bad", "-", "false"}
_REQUIRED_FIELDS = ("time", "server", "client", "rating")
_ERROR_MODES = ("strict", "collect", "skip")


@dataclass(frozen=True)
class RowError:
    """One unparseable row: where it was and why it failed."""

    line: int
    message: str
    raw: object = None


class ReadResult(List[Feedback]):
    """The parsed feedbacks, plus any collected row errors.

    A ``list`` subclass so every existing caller (and the strict mode)
    keeps working unchanged; lenient readers attach the rows they could
    not parse as :attr:`errors`.
    """

    def __init__(self, feedbacks: Iterable[Feedback] = (), errors: Optional[List[RowError]] = None):
        super().__init__(feedbacks)
        self.errors: List[RowError] = list(errors or ())
        #: the format the file was parsed as (set by :func:`read`)
        self.format: Optional[str] = None


class _RowSink:
    """Shared row-error handling for the two readers."""

    def __init__(self, mode: str, path: PathLike):
        if mode not in _ERROR_MODES:
            raise ValueError(
                f"errors must be one of {_ERROR_MODES}, got {mode!r}"
            )
        self.mode = mode
        self.path = path
        self.errors: List[RowError] = []
        self.n_skipped = 0

    def bad_row(self, line: int, message: str, raw: object) -> None:
        if self.mode == "strict":
            raise ValueError(message)
        self.n_skipped += 1
        if self.mode == "collect":
            self.errors.append(RowError(line=line, message=message, raw=raw))
        _res.emit(
            "quarantined",
            quarantine="feedback.io",
            site="feedback.io.row",
            reason=message,
        )

    def finish(self, feedbacks: List[Feedback]) -> ReadResult:
        if self.n_skipped:
            _log.warning(
                "%s: skipped %d malformed row(s) (errors=%r)",
                self.path,
                self.n_skipped,
                self.mode,
            )
        return ReadResult(feedbacks, self.errors)


def parse_rating(token: object) -> Rating:
    """Parse the many spellings of a binary rating."""
    text = str(token).strip().lower()
    if text in _POSITIVE_TOKENS:
        return Rating.POSITIVE
    if text in _NEGATIVE_TOKENS:
        return Rating.NEGATIVE
    raise ValueError(
        f"unrecognized rating {token!r}; expected one of "
        f"{sorted(_POSITIVE_TOKENS | _NEGATIVE_TOKENS)}"
    )


def _row_to_feedback(row: dict, line: int) -> Feedback:
    missing = [f for f in _REQUIRED_FIELDS if row.get(f) in (None, "")]
    if missing:
        raise ValueError(f"line {line}: missing fields {missing}")
    try:
        time = float(row["time"])
    except (TypeError, ValueError):
        raise ValueError(f"line {line}: time {row['time']!r} is not a number") from None
    try:
        rating = parse_rating(row["rating"])
    except ValueError as exc:
        raise ValueError(f"line {line}: {exc}") from None
    category = row.get("category") or None
    authentic_raw = row.get("authentic")
    if authentic_raw in (None, ""):
        authentic = True
    else:
        authentic = str(authentic_raw).strip().lower() in ("1", "true", "yes")
    return Feedback(
        time=time,
        server=str(row["server"]),
        client=str(row["client"]),
        rating=rating,
        category=category,
        authentic=authentic,
    )


def _read_csv(path: PathLike, *, errors: str = "strict") -> ReadResult:
    sink = _RowSink(errors, path)
    feedbacks: List[Feedback] = []
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file (no header)")
        missing = [f for f in _REQUIRED_FIELDS if f not in reader.fieldnames]
        if missing:
            raise ValueError(f"{path}: header missing columns {missing}")
        for line, row in enumerate(reader, start=2):
            if _res.armed:
                row = _res.inject("feedback.io.row", value=row)
            try:
                feedbacks.append(_row_to_feedback(row, line))
            except ValueError as exc:
                sink.bad_row(line, str(exc), row)
    _log.debug("read %d feedback records from %s (csv)", len(feedbacks), path)
    return sink.finish(feedbacks)


def write_feedback_csv(path: PathLike, feedbacks: Iterable[Feedback]) -> int:
    """Write feedback records as CSV; returns the number written."""
    count = 0
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["time", "server", "client", "rating", "category", "authentic"])
        for fb in feedbacks:
            writer.writerow(
                [
                    fb.time,
                    fb.server,
                    fb.client,
                    int(fb.rating),
                    fb.category or "",
                    str(fb.authentic).lower(),
                ]
            )
            count += 1
    _log.debug("wrote %d feedback records to %s (csv)", count, path)
    return count


def _read_jsonl(path: PathLike, *, errors: str = "strict") -> ReadResult:
    sink = _RowSink(errors, path)
    feedbacks: List[Feedback] = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"line {line_number}: invalid JSON ({exc})"
                    ) from None
                if not isinstance(row, dict):
                    raise ValueError(f"line {line_number}: expected an object")
                if _res.armed:
                    row = _res.inject("feedback.io.row", value=row)
                feedbacks.append(_row_to_feedback(row, line_number))
            except ValueError as exc:
                sink.bad_row(line_number, str(exc), line)
    _log.debug("read %d feedback records from %s (jsonl)", len(feedbacks), path)
    return sink.finish(feedbacks)


def _read_binary(path: PathLike, *, errors: str = "strict") -> ReadResult:
    sink = _RowSink(errors, path)  # validates the errors mode
    data = binlog.load_binary_ledger(path, recover=(errors != "strict"))
    if data.damaged:
        sink.bad_row(
            int(data.records.size) + 1,
            f"damaged crash tail trimmed: {data.dropped_records} record(s), "
            f"{data.dropped_bytes} byte(s)",
            None,
        )
    records = data.records
    feedbacks = [
        Feedback(
            time=float(records["time"][i]),
            server=data.servers[int(records["server"][i])],
            client=data.clients[int(records["client"][i])],
            rating=Rating.POSITIVE if records["rating"][i] else Rating.NEGATIVE,
            category=(
                None
                if records["category"][i] == binlog.CATEGORY_NONE
                else data.categories[int(records["category"][i])]
            ),
            authentic=bool(records["authentic"][i]),
        )
        for i in range(records.size)
    ]
    _log.debug("read %d feedback records from %s (binary)", len(feedbacks), path)
    return sink.finish(feedbacks)


# --------------------------------------------------------------------- #
# the unified reader: fixed format tables + dispatch

#: format name -> reader(path, *, errors) -> ReadResult
_READERS: Dict[str, Callable[..., ReadResult]] = {
    "csv": _read_csv,
    "jsonl": _read_jsonl,
    "binary": _read_binary,
}

#: lowercased file extension -> format name
_EXTENSIONS = {
    ".csv": "csv",
    ".jsonl": "jsonl",
    ".ndjson": "jsonl",
    ".json": "jsonl",
    ".ledger": "binary",
    ".bin": "binary",
}


def detect_format(path: PathLike) -> str:
    """Resolve the format of ``path``: by extension, then by content.

    A known extension wins; otherwise the first bytes decide —
    the binary ledger magic, a ``{`` (JSONL), anything else is CSV.
    """
    by_ext = _EXTENSIONS.get(Path(path).suffix.lower())
    if by_ext is not None:
        return by_ext
    with open(path, "rb") as handle:
        head = handle.read(len(binlog.MAGIC))
    if head == binlog.MAGIC:
        return "binary"
    if head.lstrip()[:1] == b"{":
        return "jsonl"
    return "csv"


def read(
    path: PathLike, *, format: str = "auto", errors: str = "strict"
) -> ReadResult:
    """Load feedback records from ``path`` — the one reader entry point.

    ``format`` names a format (``"csv"``, ``"jsonl"``, ``"binary"``) or
    ``"auto"`` (default) to resolve via :func:`detect_format`.
    ``errors`` selects what a malformed *row* does: ``"strict"``
    (default) raises with the offending line number, ``"collect"``
    loads every good row and returns the bad ones on the result's
    ``.errors``, ``"skip"`` drops bad rows with one summary warning.
    File-level problems (wrong header, bad magic) always raise — a
    wrong header means a wrong file, not a bad row.  The result's
    ``.format`` records which reader actually parsed the file.
    """
    resolved = detect_format(path) if format == "auto" else format
    reader = _READERS.get(resolved)
    if reader is None:
        known = ", ".join(sorted(_READERS))
        raise ValueError(f"unknown feedback format {resolved!r}; known: {known}")
    result = reader(path, errors=errors)
    result.format = resolved
    return result


def write_feedback_binary(path: PathLike, feedbacks: Iterable[Feedback]) -> int:
    """Write feedback records as a fresh binary ledger; returns the count."""
    count = binlog.write_binary_ledger(path, feedbacks)
    _log.debug("wrote %d feedback records to %s (binary)", count, path)
    return count


def write_feedback_jsonl(path: PathLike, feedbacks: Iterable[Feedback]) -> int:
    """Write feedback records as JSON-lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for fb in feedbacks:
            handle.write(
                json.dumps(
                    {
                        "time": fb.time,
                        "server": fb.server,
                        "client": fb.client,
                        "rating": int(fb.rating),
                        "category": fb.category,
                        "authentic": fb.authentic,
                    }
                )
                + "\n"
            )
            count += 1
    _log.debug("wrote %d feedback records to %s (jsonl)", count, path)
    return count
