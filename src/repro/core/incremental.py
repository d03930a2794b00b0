"""Per-server incremental behavior state — the serving fast path.

``assess()`` recomputes phase 1 from the whole history on every call,
but most serving queries find a server whose history has not changed
since its last verdict.  :class:`IncrementalBehaviorState` folds each
new feedback into the server's history in O(1) amortized and memoizes
the verdict by history length, so re-assessing an unchanged server is a
dictionary lookup.  A grown history is re-judged in full by
``tester.test(history)``: queries follow a few new events, rarely a
whole window, so window counts carried from the previous verdict would
almost never line up with the new windows.  Verdicts are therefore
bit-identical to the tester's, whatever the tester.

The batched cold-path fold
(:func:`~repro.core.multi_testing.fold_cold_batch`) may instead seed the
memo (:meth:`IncrementalBehaviorState.seed_phase1`) for the testers it
reproduces.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..feedback.history import TransactionHistory
from ..feedback.records import Feedback
from ..obs import runtime as _obs
# run_suffix_rounds stays a module global here: perfbench wraps it
from .multi_testing import run_suffix_rounds  # noqa: F401
from .multi_testing import supports_vectorized
from .verdict import BehaviorVerdict

__all__ = ["IncrementalBehaviorState"]


class IncrementalBehaviorState:
    """Incrementally maintained phase-1 state for one server.

    Parameters
    ----------
    tester:
        Any behavior test; a fresh verdict is ``tester.test(history)``,
        memoized by history length.
    history:
        The server's transaction history.  May be a *live* history owned
        by a ledger — appends made elsewhere are detected by length, no
        explicit notification needed.  Omitting it creates a fresh
        standalone history.
    """

    def __init__(
        self,
        tester,
        history: Optional[TransactionHistory] = None,
    ):
        self._tester = tester
        self._history = history if history is not None else TransactionHistory()
        self._cached: Optional[Tuple[int, BehaviorVerdict]] = None
        self.n_folds = 0
        self.n_cache_hits = 0
        #: verdicts judged afresh by the tester
        self.n_recomputes = 0

    # ------------------------------------------------------------------ #
    # state surface

    @property
    def tester(self):
        """The wrapped behavior test."""
        return self._tester

    @property
    def history(self) -> TransactionHistory:
        """The server's transaction history (live, shared with the owner)."""
        return self._history

    @property
    def incremental(self) -> bool:
        """True when the batched cold-path fold can seed this state."""
        return supports_vectorized(self._tester)

    def __len__(self) -> int:
        return len(self._history)

    # ------------------------------------------------------------------ #
    # folding feedback

    def fold(self, outcome: int) -> None:
        """Fold one bare 0/1 outcome into the state (O(1) amortized)."""
        self._history.append_outcome(outcome)
        self.n_folds += 1

    def fold_feedback(self, feedback: Feedback) -> None:
        """Fold one feedback record into the state (O(1) amortized)."""
        self._history.append_feedback(feedback)
        self.n_folds += 1

    def invalidate(self) -> None:
        """Drop the verdict memo; the next :meth:`verdict` recomputes in full.

        The collusion-reorder hook: issuer-grouped reordering scrambles
        window boundaries, so a memoized verdict cannot be trusted after a
        reordering-relevant change (or any external mutation the length
        heuristic cannot see).
        """
        self._cached = None

    # ------------------------------------------------------------------ #
    # external seeding (the batched cold-path fold)

    def needs_phase1(self) -> bool:
        """True when the next :meth:`verdict` would call the tester."""
        return self._cached is None or self._cached[0] != len(self._history)

    def seed_phase1(self, verdict: BehaviorVerdict) -> None:
        """Install an externally computed phase-1 verdict for the
        *current* history length.

        ``verdict`` must equal what :meth:`verdict` would have computed
        (the batched fold guarantees bit-parity).
        """
        self._cached = (len(self._history), verdict)
        if _obs.enabled:
            _obs.registry.inc("core.incremental.seeded_verdicts")

    # ------------------------------------------------------------------ #
    # verdicts

    def verdict(self) -> BehaviorVerdict:
        """``tester.test(history)``, cached until the history grows or
        :meth:`invalidate` is called."""
        n = len(self._history)
        if self._cached is not None and self._cached[0] == n:
            self.n_cache_hits += 1
            if _obs.enabled:
                _obs.registry.inc("core.incremental.verdict_cache_hits")
            return self._cached[1]
        verdict = self._tester.test(self._history)
        self._cached = (n, verdict)
        self.n_recomputes += 1
        if _obs.enabled:
            _obs.registry.inc("core.incremental.verdicts")
        return verdict
