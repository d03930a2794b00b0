"""Per-server incremental behavior state — the serving fast path.

``assess()`` recomputes phase 1 from the whole history on every call,
but most serving queries find a server whose history has not changed
since its last verdict.  :class:`IncrementalBehaviorState` folds each
new feedback into the server's history in O(1) amortized and memoizes
the verdict by history length, so re-assessing an unchanged server is a
dictionary lookup.  A grown history is re-judged in full: queries follow
a few new events, rarely a whole window, so window counts carried from
the previous verdict would almost never line up with the new windows.

``strategy="optimized"`` :class:`~repro.core.multi_testing.MultiBehaviorTest`
is re-judged by that tester's own suffix walk
(:func:`~repro.core.multi_testing.run_suffix_rounds`), so verdicts are
bit-identical.  Every other tester (naive multi, collusion-resilient
reordering, categorized/temporal metadata tests, ...) is invoked on the
full history, with only the verdict memoization on top.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..feedback.history import TransactionHistory
from ..feedback.records import Feedback
from ..feedback.windows import window_counts
from ..obs import runtime as _obs
from .multi_testing import (
    insufficient_report,
    run_suffix_rounds,
    suffix_report,
    supports_vectorized,
)
from .verdict import BehaviorVerdict, MultiTestReport

__all__ = ["IncrementalBehaviorState"]


class IncrementalBehaviorState:
    """Incrementally maintained phase-1 state for one server.

    Parameters
    ----------
    tester:
        Any behavior test.  ``strategy="optimized"``
        :class:`MultiBehaviorTest` instances get the suffix-walk fast
        path; everything else falls back to invoking the tester directly
        (still memoized by history length).
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
        self._fast_multi = supports_vectorized(tester)
        self._cached: Optional[Tuple[int, BehaviorVerdict]] = None
        self.n_folds = 0
        self.n_cache_hits = 0
        #: fast-path verdicts whose window counts were taken afresh
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
        """True when the suffix-walk fast path applies to this tester."""
        return self._fast_multi

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
        """True when the next :meth:`verdict` would recompute phase 1.

        The batched cold-path fold
        (:func:`~repro.core.multi_testing.fold_cold_batch`) uses this to
        collect the states worth folding in one pass.  Only fast-path
        testers qualify — the batch reproduces only the optimized walk.
        """
        if not self._fast_multi:
            return False
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
        """The phase-1 verdict for the current history.

        Bit-identical to ``tester.test(history)``; cached until the
        history grows or :meth:`invalidate` is called.
        """
        n = len(self._history)
        if self._cached is not None and self._cached[0] == n:
            self.n_cache_hits += 1
            if _obs.enabled:
                _obs.registry.inc("core.incremental.verdict_cache_hits")
            return self._cached[1]
        if self._fast_multi:
            verdict: BehaviorVerdict = self._multi_verdict(n)
        else:
            verdict = self._tester.test(self._history)
        self._cached = (n, verdict)
        if _obs.enabled:
            _obs.registry.inc(
                "core.incremental.verdicts",
                path="incremental" if self._fast_multi else "fallback",
            )
        return verdict

    def _multi_verdict(self, n: int) -> MultiTestReport:
        """``MultiBehaviorTest._test`` without its audit and obs records."""
        cfg = self._tester.config
        lengths = cfg.suffix_lengths(n)
        if not lengths:
            return insufficient_report(cfg, n)
        self.n_recomputes += 1
        rounds = run_suffix_rounds(
            window_counts(self._history.outcomes(), cfg.window_size, align="recent"),
            lengths,
            window_size=cfg.window_size,
            distance_name=cfg.distance,
            calibrator=self._tester.calibrator,
            collect_all=self._tester.collect_all,
            obs_prefix="core.incremental",
        )
        return suffix_report(rounds[::-1])
