"""Structured event log: JSONL sink with seeded-run metadata.

Experiments are only reproducible if the artifact records *how* it was
produced; every :class:`EventLog` therefore opens with a ``run_start``
event carrying the seed, a stable fingerprint of the configuration, the
git revision, and the python version.  Events are plain dicts written as
one JSON object per line, so downstream tooling (``repro obs report``,
pandas, jq) needs no custom parser, and :func:`read_events` closes the
round trip.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import platform
import subprocess
import time
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Union

from .registry import MetricsRegistry

__all__ = [
    "git_revision",
    "config_fingerprint",
    "run_metadata",
    "EventLog",
    "read_events",
]

PathLike = Union[str, Path]


@lru_cache(maxsize=1)
def git_revision() -> Optional[str]:
    """The repository's short HEAD revision, or ``None`` outside git."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def config_fingerprint(config: object) -> Optional[str]:
    """A short stable hash of a configuration object.

    Accepts dataclasses, mappings, or anything JSON-serializable; two
    runs share a fingerprint exactly when their configs are equal.
    """
    if config is None:
        return None
    if dataclasses.is_dataclass(config) and not isinstance(config, type):
        config = dataclasses.asdict(config)
    canonical = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


def run_metadata(
    *, seed: Optional[object] = None, config: Optional[object] = None, **extra: object
) -> Dict[str, object]:
    """The provenance header every artifact should carry."""
    meta: Dict[str, object] = {
        "seed": seed,
        "config_hash": config_fingerprint(config),
        "git_rev": git_revision(),
        "python": platform.python_version(),
        "timestamp": time.time(),
    }
    meta.update(extra)
    return meta


class EventLog:
    """An append-only structured event stream.

    Events accumulate in memory and — when a ``path`` is given — are
    flushed line-by-line to a JSONL file as they are emitted, so a
    crashed run still leaves a usable log.  Constructing the log with
    ``run_meta`` (see :func:`run_metadata`) emits the opening
    ``run_start`` event.
    """

    def __init__(
        self,
        path: Optional[PathLike] = None,
        *,
        run_meta: Optional[Dict[str, object]] = None,
    ):
        self._path = Path(path) if path is not None else None
        self._handle = None
        self._events: List[Dict[str, object]] = []
        if run_meta is not None:
            self.emit("run_start", **run_meta)

    @property
    def path(self) -> Optional[Path]:
        """The JSONL sink path (``None`` for memory-only logs)."""
        return self._path

    @property
    def events(self) -> List[Dict[str, object]]:
        """Every event emitted so far, in order."""
        return list(self._events)

    def emit(self, event: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the stored record."""
        record: Dict[str, object] = {"event": event, "time": time.time()}
        record.update(fields)
        self._events.append(record)
        if self._path is not None:
            if self._handle is None:
                self._handle = open(self._path, "a", encoding="utf-8")
            self._handle.write(json.dumps(record, default=repr) + "\n")
            self._handle.flush()
        return record

    def emit_metrics(
        self, registry: MetricsRegistry, event: str = "metrics"
    ) -> Dict[str, object]:
        """Emit a full registry snapshot as one event."""
        return self.emit(event, metrics=registry.snapshot())

    def close(self) -> None:
        """Close the file sink (the in-memory events stay readable)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "EventLog":
        """Use the log as a context manager; closes the sink on exit."""
        return self

    def __exit__(self, *exc_info) -> bool:
        """Close the file sink when the ``with`` block ends."""
        self.close()
        return False


def read_events(
    path: PathLike, *, allow_partial: bool = False
) -> List[Dict[str, object]]:
    """Load a JSONL event log back into a list of dicts.

    ``allow_partial=True`` forgives an unparsable *final* line — the
    normal state of a log whose producer is mid-write or crashed while
    flushing — so a reader can use a file its run is still appending
    to.  Corruption anywhere else still raises.
    """
    events = []
    with open(path, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    for line_number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            if allow_partial and line_number == len(lines):
                break
            raise ValueError(f"line {line_number}: invalid JSON ({exc})") from None
        if not isinstance(record, dict) or "event" not in record:
            raise ValueError(f"line {line_number}: not an event object")
        events.append(record)
    return events
