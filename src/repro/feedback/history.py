"""Transaction history of a single server.

A :class:`TransactionHistory` is the object the behavior tests and trust
functions consume: an append-only, time-ordered sequence of binary
outcomes, optionally carrying the full :class:`~repro.feedback.records.Feedback`
metadata (needed by the collusion-resilient reordering, which groups by
feedback issuer).

Design notes
------------
* Outcomes live in a growable numpy ``int8`` buffer with amortized O(1)
  append, because the strategic attacker appends one transaction per
  simulated step and histories reach the hundreds of thousands in the
  Fig. 9 performance experiment.
* :meth:`speculate` supports the attacker's look-ahead ("assume the next
  transaction is bad, would I still pass?") without copying the history.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

import numpy as np

from .records import EntityId, Feedback, Rating
from .windows import window_counts

__all__ = ["TransactionHistory", "check_binary"]

_INITIAL_CAPACITY = 64


def check_binary(outcomes: np.ndarray) -> None:
    """Raise ``ValueError`` unless every value of ``outcomes`` is 0 or 1.

    Integer and boolean arrays cost one ``min`` and one ``max``; other
    dtypes take the exact membership test, so a 0.5 is rejected rather
    than truncated to 0.
    """
    if not outcomes.size:
        return
    if outcomes.dtype.kind in "biu":
        binary = outcomes.min() >= 0 and outcomes.max() <= 1
    else:
        binary = np.isin(outcomes, (0, 1)).all()
    if not binary:
        raise ValueError("outcomes must be binary (0/1)")


class TransactionHistory:
    """Append-only, time-ordered transaction outcomes of one server."""

    def __init__(self, server: EntityId = "server"):
        if not server:
            raise ValueError("server id must be non-empty")
        self._server = server
        self._buf = np.zeros(_INITIAL_CAPACITY, dtype=np.int8)
        self._n = 0
        self._n_good = 0
        self._feedbacks: List[Feedback] = []
        self._has_feedbacks = True  # stays True only while every append carried one

    # ------------------------------------------------------------------ #
    # constructors

    @classmethod
    def from_outcomes(
        cls, outcomes: Sequence[int], server: EntityId = "server"
    ) -> "TransactionHistory":
        """Build a history from a bare 0/1 outcome sequence.

        The resulting history carries no feedback metadata, so the
        collusion-resilient tests (which need issuer identities) refuse it.
        """
        history = cls(server)
        arr = np.asarray(outcomes)
        if arr.ndim != 1:
            raise ValueError("outcomes must be 1-D")
        check_binary(arr)
        history._ensure_capacity(arr.size)
        history._buf[: arr.size] = arr
        history._n = int(arr.size)
        history._n_good = int(arr.sum())
        history._has_feedbacks = False
        return history

    @classmethod
    def from_feedbacks(cls, feedbacks: Iterable[Feedback]) -> "TransactionHistory":
        """Build a history from feedback records (sorted by time)."""
        ordered = sorted(feedbacks, key=lambda f: f.time)
        if not ordered:
            raise ValueError("need at least one feedback")
        servers = {f.server for f in ordered}
        if len(servers) != 1:
            raise ValueError(f"feedbacks span multiple servers: {sorted(servers)}")
        history = cls(ordered[0].server)
        for fb in ordered:
            history.append_feedback(fb)
        return history

    # ------------------------------------------------------------------ #
    # core accessors

    @property
    def server(self) -> EntityId:
        return self._server

    def __len__(self) -> int:
        return self._n

    @property
    def n_good(self) -> int:
        """Total number of good transactions."""
        return self._n_good

    @property
    def n_bad(self) -> int:
        return self._n - self._n_good

    @property
    def p_hat(self) -> float:
        """Fraction of good transactions — the paper's ``p_hat`` over all of H."""
        if self._n == 0:
            raise ValueError("p_hat undefined on an empty history")
        return self._n_good / self._n

    @property
    def has_feedback_metadata(self) -> bool:
        """True when every transaction carries a full feedback record."""
        return self._has_feedbacks and self._n > 0

    def outcomes(self) -> np.ndarray:
        """Read-only 0/1 outcome vector, oldest first."""
        view = self._buf[: self._n]
        view.flags.writeable = False
        return view

    def feedbacks(self) -> List[Feedback]:
        """The feedback records, oldest first (copy of the list)."""
        if not self.has_feedback_metadata:
            raise ValueError(
                "history was built from bare outcomes and has no feedback metadata"
            )
        return list(self._feedbacks)

    def last_time(self) -> float:
        """Timestamp of the most recent feedback (0.0 for bare histories)."""
        if self._has_feedbacks and self._feedbacks:
            return self._feedbacks[-1].time
        return 0.0

    # ------------------------------------------------------------------ #
    # mutation

    def append_outcome(self, outcome: int) -> None:
        """Append a bare 0/1 outcome (drops feedback-metadata capability)."""
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
        self._has_feedbacks = False
        self._push(outcome)

    def append_feedback(self, feedback: Feedback) -> None:
        """Append a feedback record; time must be non-decreasing."""
        if feedback.server != self._server:
            raise ValueError(
                f"feedback for server {feedback.server!r} appended to history "
                f"of {self._server!r}"
            )
        if self._feedbacks and feedback.time < self._feedbacks[-1].time:
            raise ValueError("feedback times must be non-decreasing")
        if not self._has_feedbacks:
            raise ValueError(
                "cannot mix bare outcomes and feedback records in one history"
            )
        self._feedbacks.append(feedback)
        self._push(feedback.outcome)

    @contextmanager
    def speculate(self, outcome: int) -> Iterator["TransactionHistory"]:
        """Temporarily append ``outcome`` for what-if evaluation.

        Used by the strategic attacker: ``with history.speculate(0) as h:``
        evaluates the behavior test on the history *as if* the next
        transaction were bad, then rolls back.  No copies are made.
        """
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
        had_feedbacks = self._has_feedbacks
        self._has_feedbacks = False
        self._push(outcome)
        try:
            yield self
        finally:
            self._n -= 1
            self._n_good -= int(outcome)
            self._has_feedbacks = had_feedbacks

    @contextmanager
    def speculate_feedback(self, feedback: Feedback) -> Iterator["TransactionHistory"]:
        """Temporarily append a full feedback record for what-if evaluation.

        The collusion-aware strategic attacker needs look-ahead with
        issuer identities intact (the collusion-resilient test groups by
        client), so the bare-outcome :meth:`speculate` is not enough here.
        """
        self.append_feedback(feedback)
        try:
            yield self
        finally:
            popped = self._feedbacks.pop()
            self._n -= 1
            self._n_good -= popped.outcome

    # ------------------------------------------------------------------ #
    # derived views

    def suffix_outcomes(self, length: int) -> np.ndarray:
        """The most recent ``length`` outcomes (the whole history if larger)."""
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        start = max(self._n - length, 0)
        view = self._buf[start : self._n]
        view.flags.writeable = False
        return view

    def suffix_feedbacks(self, length: int) -> List[Feedback]:
        """The most recent ``length`` feedback records."""
        if not self.has_feedback_metadata:
            raise ValueError("history has no feedback metadata")
        if length < 0:
            raise ValueError(f"length must be non-negative, got {length}")
        return self._feedbacks[max(self._n - length, 0) :]

    def window_counts(self, m: int, *, align: str = "recent") -> np.ndarray:
        """Per-window good counts ``G_i`` (see :mod:`repro.feedback.windows`)."""
        return window_counts(self.outcomes(), m, align=align)

    def group_by_client(self) -> Dict[EntityId, List[Feedback]]:
        """Feedbacks grouped by issuing client, time order inside a group."""
        if not self.has_feedback_metadata:
            raise ValueError("history has no feedback metadata")
        groups: Dict[EntityId, List[Feedback]] = {}
        for fb in self._feedbacks:
            groups.setdefault(fb.client, []).append(fb)
        return groups

    def supporter_base(self) -> set:
        """Clients that have issued at least one positive feedback (Sec. 4)."""
        if not self.has_feedback_metadata:
            raise ValueError("history has no feedback metadata")
        return {fb.client for fb in self._feedbacks if fb.rating is Rating.POSITIVE}

    def copy(self) -> "TransactionHistory":
        """Deep-enough copy (records are immutable, so the list is shallow)."""
        clone = TransactionHistory(self._server)
        clone._ensure_capacity(self._n)
        clone._buf[: self._n] = self._buf[: self._n]
        clone._n = self._n
        clone._n_good = self._n_good
        clone._feedbacks = list(self._feedbacks)
        clone._has_feedbacks = self._has_feedbacks
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TransactionHistory(server={self._server!r}, n={self._n}, "
            f"n_good={self._n_good})"
        )

    # ------------------------------------------------------------------ #
    # internals

    def _push(self, outcome: int) -> None:
        self._ensure_capacity(self._n + 1)
        self._buf[self._n] = outcome
        self._n += 1
        self._n_good += int(outcome)

    def _ensure_capacity(self, needed: int) -> None:
        if needed <= self._buf.size:
            return
        new_size = max(self._buf.size * 2, needed)
        grown = np.zeros(new_size, dtype=np.int8)
        grown[: self._n] = self._buf[: self._n]
        self._buf = grown
