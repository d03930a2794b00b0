"""Bounded quarantine for inputs that cannot be processed.

A malformed feedback row or an un-foldable ledger event must not abort
the stream — the paper's screening guarantees are about the *other*
millions of records.  Bad items land in a :class:`Quarantine`: a
bounded deque that keeps the most recent offenders for inspection,
counts what it had to drop, and emits one structured ``quarantined``
event per admission so operators see data problems without the
pipeline stopping.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, List

from . import runtime as _res

__all__ = ["QuarantinedItem", "Quarantine"]


@dataclass(frozen=True)
class QuarantinedItem:
    """One quarantined input with its provenance."""

    item: Any
    site: str
    reason: str
    index: int


class Quarantine:
    """Bounded holding area for unprocessable inputs.

    ``capacity`` bounds memory: beyond it the *oldest* items are
    discarded (and counted in ``n_dropped``) — recency matters more
    than completeness for debugging a live stream.
    """

    def __init__(self, capacity: int = 1024, name: str = "quarantine"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._items: "deque[QuarantinedItem]" = deque(maxlen=capacity)
        self.n_quarantined = 0
        self.n_dropped = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def depth(self) -> int:
        """Items currently held."""
        return len(self._items)

    def add(self, item: Any, *, site: str, reason: str) -> QuarantinedItem:
        """Admit one bad input; emits a ``quarantined`` event."""
        if len(self._items) == self.capacity:
            self.n_dropped += 1
        record = QuarantinedItem(
            item=item, site=site, reason=reason, index=self.n_quarantined
        )
        self._items.append(record)
        self.n_quarantined += 1
        _res.emit("quarantined", quarantine=self.name, site=site, reason=reason)
        return record

    def items(self) -> List[QuarantinedItem]:
        """The held items, oldest first."""
        return list(self._items)

    def drain(self) -> List[QuarantinedItem]:
        """Remove and return everything currently held."""
        drained = list(self._items)
        self._items.clear()
        return drained

    def stats(self) -> dict:
        """Depth and counters, for tests and ad-hoc inspection."""
        return {
            "name": self.name,
            "depth": self.depth,
            "capacity": self.capacity,
            "quarantined": self.n_quarantined,
            "dropped": self.n_dropped,
        }
