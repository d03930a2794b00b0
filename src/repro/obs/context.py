"""Causal trace context: W3C-style identity that crosses boundaries.

Spans alone are *process-local*: nothing ties one request to the
retry attempts, breaker flips, and network hops it fans out into.  This
module closes that gap with a :class:`TraceContext` — ``trace_id`` /
``span_id`` / ``baggage`` in the W3C ``traceparent`` shape — propagated
two ways:

* **in-process** through a :mod:`contextvars` variable, so nested spans
  (and every :func:`repro.resilience.runtime.emit` event fired under
  them) inherit the request identity without plumbing arguments;
* **across processes and the (simulated) network** via
  :meth:`TraceContext.to_headers` / :meth:`TraceContext.from_headers`,
  an explicit serialize→deserialize round trip:
  :class:`~repro.p2p.network.SimulatedNetwork` message envelopes carry
  the headers dict, never a live object.

Finished spans that carry a context are additionally written to the
process-wide span sink (:data:`repro.obs.runtime.span_sink`, a
:class:`SpanLog` JSONL file), which is how one trace is reassembled
from many processes: every line is self-describing (trace/span/parent
hex ids plus a wall-clock anchor), so ``repro obs trace`` can rebuild
the tree no matter which process wrote which line.

All *duration* math stays on ``time.perf_counter()``; wall-clock time
appears only as the per-process anchor that positions a span on the
shared timeline (:func:`wall_clock_of`).
"""

from __future__ import annotations

import json
import os
import re
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Union

from .tracing import SpanRecord

__all__ = [
    "TraceContext",
    "new_root",
    "child_of",
    "current",
    "use",
    "SpanLog",
    "span_to_dict",
    "read_span_jsonl",
    "tracing_session",
    "wall_clock_of",
]

PathLike = Union[str, Path]

#: ``traceparent`` per W3C Trace Context: version-traceid-spanid-flags.
_TRACEPARENT = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})-"
    r"(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$"
)
_TRACE_ID = re.compile(r"[0-9a-f]{32}")
_SPAN_ID = re.compile(r"[0-9a-f]{16}")
#: one encoder for every span line (``json.dumps`` with options builds
#: a new one per call)
_encode = json.JSONEncoder(default=repr).encode
#: finished spans a :class:`SpanLog` holds before it writes them
_SPAN_BATCH = 64

# Per-process anchor pairing the perf-counter and wall clocks once, so
# span *positions* are comparable across processes while every
# *duration* stays a pure perf-counter delta (clock-adjustment safe).
_ANCHOR_WALL = time.time()
_ANCHOR_PERF = time.perf_counter()


def wall_clock_of(perf_time: float) -> float:
    """Map a ``perf_counter`` reading onto the epoch via the anchor."""
    return _ANCHOR_WALL + (perf_time - _ANCHOR_PERF)


# Ids come straight from the OS entropy pool, which holds no
# per-process state, so forked workers never mint the same id.
def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One request's causal identity at one point in the call tree.

    Immutable: stepping into a child operation derives a *new* context
    via :func:`child_of` (fresh ``span_id``, same ``trace_id``, parent
    link to the old ``span_id``).  ``baggage`` is a small string map
    that rides every hop unchanged (request labels, tenant, seed).
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None
    baggage: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not _TRACE_ID.fullmatch(self.trace_id):
            raise ValueError(f"trace_id must be 32 lowercase hex chars, got {self.trace_id!r}")
        if not _SPAN_ID.fullmatch(self.span_id):
            raise ValueError(f"span_id must be 16 lowercase hex chars, got {self.span_id!r}")

    # -- boundary serialization ----------------------------------------- #

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value (version 00, sampled)."""
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def from_traceparent(
        cls, header: str, *, baggage: Optional[Dict[str, str]] = None
    ) -> "TraceContext":
        """Parse a ``traceparent`` header; raises ``ValueError`` on junk."""
        match = _TRACEPARENT.match(header.strip())
        if match is None:
            raise ValueError(f"malformed traceparent {header!r}")
        return cls(
            trace_id=match.group("trace_id"),
            span_id=match.group("span_id"),
            baggage=dict(baggage or {}),
        )

    def to_headers(self) -> Dict[str, str]:
        """The context as a plain string dict for envelopes/initargs.

        The shape mirrors the W3C header pair: ``traceparent`` plus a
        ``baggage`` member list (``key=value`` comma-joined).  Being a
        dict of two short strings, it pickles, JSON-serializes, and
        rides any message payload.
        """
        headers = {"traceparent": self.to_traceparent()}
        if self.baggage:
            headers["baggage"] = ",".join(
                f"{k}={v}" for k, v in sorted(self.baggage.items())
            )
        return headers

    @classmethod
    def from_headers(cls, headers: Dict[str, str]) -> "TraceContext":
        """Rebuild a context from :meth:`to_headers` output."""
        if "traceparent" not in headers:
            raise ValueError("headers carry no traceparent")
        baggage: Dict[str, str] = {}
        raw = headers.get("baggage", "")
        if raw:
            for member in raw.split(","):
                if "=" not in member:
                    raise ValueError(f"malformed baggage member {member!r}")
                key, value = member.split("=", 1)
                baggage[key.strip()] = value.strip()
        return cls.from_traceparent(headers["traceparent"], baggage=baggage)

    def with_baggage(self, **items: object) -> "TraceContext":
        """A copy with extra baggage entries (values stringified)."""
        merged = dict(self.baggage)
        merged.update({k: str(v) for k, v in items.items()})
        return replace(self, baggage=merged)


def new_root(**baggage: object) -> TraceContext:
    """A fresh trace: new trace_id, a root span id, no parent."""
    return TraceContext(
        trace_id=_new_trace_id(),
        span_id=_new_span_id(),
        baggage={k: str(v) for k, v in baggage.items()},
    )


def child_of(ctx: TraceContext) -> TraceContext:
    """A child context: same trace and baggage, new span under ``ctx``.

    Every traced span mints one, so it skips the constructor's id
    checks: ``ctx``'s ids were checked when it was built, and the new
    span id comes from :func:`_new_span_id`.
    """
    child = object.__new__(TraceContext)
    object.__setattr__(
        child,
        "__dict__",
        {
            "trace_id": ctx.trace_id,
            "span_id": _new_span_id(),
            "parent_span_id": ctx.span_id,
            "baggage": ctx.baggage,
        },
    )
    return child


# ---------------------------------------------------------------------- #
# in-process propagation

_CURRENT: ContextVar[Optional[TraceContext]] = ContextVar(
    "repro_trace_context", default=None
)


def current() -> Optional[TraceContext]:
    """The context attached to the running logical flow."""
    return _CURRENT.get()


@contextmanager
def use(ctx: Optional[TraceContext]) -> Iterator[Optional[TraceContext]]:
    """Attach ``ctx`` for the duration of the ``with`` block."""
    token = _CURRENT.set(ctx)
    try:
        yield ctx
    finally:
        _CURRENT.reset(token)


# ---------------------------------------------------------------------- #
# the span JSONL sink and its round trip


def span_to_dict(record: SpanRecord) -> Dict[str, object]:
    """A finished span as the self-describing JSONL line shape.

    ``start_unix_s`` anchors the span on the shared wall-clock timeline
    (per-process anchor, see :func:`wall_clock_of`); ``duration_s`` and
    the event offsets stay pure perf-counter deltas.
    """
    events = [
        dict(event, offset_s=float(event["time"]) - record.start)
        for event in record.events
    ]
    for event in events:
        event.pop("time", None)
    return {
        "trace_id": record.trace_id,
        "span_id": record.trace_span_id,
        "parent_span_id": record.trace_parent_id,
        "name": record.name,
        "labels": dict(record.labels),
        "start_unix_s": wall_clock_of(record.start),
        "duration_s": record.duration,
        "events": events,
        "pid": os.getpid(),
    }


class SpanLog:
    """Append-only JSONL sink for finished spans.

    Finished spans are held, then encoded and appended in one unbuffered
    ``write()`` of whole lines every ``_SPAN_BATCH`` spans and on
    :meth:`close`, so several processes can append to
    the same file; the reader reassembles traces by hex id, not arrival
    order.  Encoding and writing each span as it finished cost a traced
    millisecond-long run about as much as its own span bookkeeping.
    """

    def __init__(self, path: PathLike):
        self._path = Path(path)
        self._handle = None
        self._held: List[Dict[str, object]] = []

    @property
    def path(self) -> Path:
        return self._path

    def write(self, record: SpanRecord) -> None:
        """Serialize and append one finished span."""
        if record.trace_id is not None:
            self.append(span_to_dict(record))

    def append(self, span: Dict[str, object]) -> None:
        """Append one span already in :func:`span_to_dict`'s shape."""
        self._held.append(span)
        if len(self._held) >= _SPAN_BATCH:
            self._write_held()

    def _write_held(self) -> None:
        if not self._held:
            return
        if self._handle is None:
            self._handle = open(self._path, "ab", buffering=0)
        lines = "".join([_encode(span) + "\n" for span in self._held])
        self._handle.write(lines.encode("utf-8"))
        self._held.clear()

    def close(self) -> None:
        """Write the held spans and close the file."""
        self._write_held()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SpanLog":
        return self

    def __exit__(self, *exc_info) -> bool:
        self.close()
        return False


def _check_span(record: object) -> None:
    """Raise ``ValueError`` unless ``record`` has :func:`span_to_dict`'s fields."""
    if not isinstance(record, dict) or "trace_id" not in record:
        raise ValueError("not a span object")
    for key in ("trace_id", "span_id", "name"):
        if not isinstance(record.get(key), str) or not record[key]:
            raise ValueError(f"{key} must be a non-empty string")
    parent = record.get("parent_span_id")
    if parent is not None and (not isinstance(parent, str) or not parent):
        raise ValueError("parent_span_id must be null or a non-empty string")
    for key in ("start_unix_s", "duration_s"):
        value = record.get(key)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ValueError(f"{key} must be a number, got {value!r}")
    if record["duration_s"] < 0:
        raise ValueError("duration_s must not be negative")


def read_span_jsonl(path: PathLike) -> List[Dict[str, object]]:
    """Load a span JSONL file back into dicts (blank lines skipped).

    Every record must carry the fields :func:`span_to_dict` writes;
    the first that does not raises ``ValueError`` naming its line.
    """
    spans = []
    with open(path, encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {line_number}: invalid JSON ({exc})") from None
            try:
                _check_span(record)
            except ValueError as exc:
                raise ValueError(f"line {line_number}: {exc}") from None
            spans.append(record)
    return spans


@contextmanager
def tracing_session(
    path: Optional[PathLike] = None,
) -> Iterator[Optional[SpanLog]]:
    """Install a span sink (and restore the previous one) for a block.

    Pair with ``obs.activate()`` for a fully scoped capture::

        with obs.activate(), obs.tracing_session("spans.jsonl"):
            service.assess_many()
    """
    from . import runtime as _rt

    sink = SpanLog(path) if path is not None else None
    saved = _rt.span_sink
    _rt.span_sink = sink
    try:
        yield sink
    finally:
        _rt.span_sink = saved
        if sink is not None:
            sink.close()
