"""Collusion-resilient behavior testing (Sec. 4).

Colluders can fabricate the positive feedback an attacker needs to stay
inside the honest-player model, so the plain tests are evadable at almost
no cost.  The paper's counter-measure uses *feedback issuer patterns*
instead of trying to identify specific colluders:

1. group a server's feedbacks by issuing client;
2. reorder the sequence so larger groups come first (frequent clients,
   then occasional ones), keeping time order within each group;
3. run the ordinary distribution test on the reordered outcomes.

For an honest server the feedback distribution of frequent clients
matches that of occasional clients, so the reordered sequence still looks
binomial.  An attacker who cheats non-colluders while recycling a small
colluder set produces a reordered sequence whose tail (the many
small groups of one-off victims) is visibly worse than its head — the
test fails, forcing the attacker to deliver real service to a growing
supporter base.

Multi-testing composes the same way (Sec. 4): choose the most recent
``l - i*k`` transactions *by time*, then reorder and test that subset.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..feedback.history import TransactionHistory
from ..feedback.records import EntityId, Feedback
from ..obs import audit as _audit
from .calibration import ThresholdCalibrator
from .config import DEFAULT_CONFIG, BehaviorTestConfig
from .multi_testing import insufficient_report, suffix_report
from .testing import SingleBehaviorTest
from .verdict import BehaviorVerdict, MultiTestReport, ReorderTrace

__all__ = [
    "reorder_by_issuer",
    "reordered_outcomes",
    "CollusionResilientTest",
    "CollusionResilientMultiTest",
]


def reorder_by_issuer(feedbacks: Sequence[Feedback]) -> List[Feedback]:
    """The paper's issuer-grouped reordering Q -> Q'.

    Groups with more feedbacks appear before groups with fewer; inside a
    group, feedbacks keep time order.  Ties between equal-sized groups
    are broken by the time of the group's first feedback (deterministic,
    so repeated assessments agree).
    """
    groups: Dict[EntityId, List[Feedback]] = {}
    for fb in feedbacks:
        groups.setdefault(fb.client, []).append(fb)
    for fbs in groups.values():
        fbs.sort(key=lambda f: f.time)
    ordered_groups = sorted(
        groups.values(), key=lambda fbs: (-len(fbs), fbs[0].time, fbs[0].client)
    )
    return [fb for fbs in ordered_groups for fb in fbs]


def reordered_outcomes(feedbacks: Sequence[Feedback]) -> np.ndarray:
    """Binary outcome vector of the issuer-grouped reordering."""
    return np.asarray([fb.outcome for fb in reorder_by_issuer(feedbacks)], dtype=np.int8)


def _feedbacks_of(history) -> List[Feedback]:
    if isinstance(history, TransactionHistory):
        return history.feedbacks()
    return list(history)


class CollusionResilientTest:
    """Single behavior test on the issuer-grouped reordering."""

    name = "collusion-single"

    def __init__(
        self,
        config: BehaviorTestConfig = DEFAULT_CONFIG,
        calibrator: Optional[ThresholdCalibrator] = None,
    ):
        # this test's audit record carries the reorder trace; the inner
        # single test must not emit a duplicate, reorder-blind record
        self._single = SingleBehaviorTest(config, calibrator, emit_audit=False)

    @property
    def config(self) -> BehaviorTestConfig:
        return self._single.config

    @property
    def calibrator(self) -> ThresholdCalibrator:
        return self._single.calibrator

    def test(self, history) -> BehaviorVerdict:
        """``history`` must carry feedback metadata (issuer identities)."""
        feedbacks = _feedbacks_of(history)
        reordered = reordered_outcomes(feedbacks)
        trace = ReorderTrace.from_feedbacks(feedbacks)
        if not _audit.enabled:
            return replace(self._single.test_outcomes(reordered), reorder=trace)
        with _audit.trail.decision_scope(server=getattr(history, "server", None)):
            verdict = replace(self._single.test_outcomes(reordered), reorder=trace)
            trail = _audit.trail
            if trail.want_record():
                trail.emit(
                    _audit.single_test_record(
                        self.name,
                        config=self.config,
                        outcomes=reordered,
                        verdict=verdict,
                        reorder=_audit.reorder_trace(feedbacks),
                        include_pmfs=trail.include_pmfs,
                    )
                )
        return verdict


class CollusionResilientMultiTest:
    """Multi-testing over time-recent subsets, each reordered before testing.

    Unlike plain multi-testing, the reordering scrambles window
    boundaries differently for every suffix, so the O(n) shared-window
    optimization does not apply; each round re-tests from scratch.  The
    suffix schedule (step ``k``, significance floor) matches Scheme 2.
    """

    name = "collusion-multi"

    def __init__(
        self,
        config: BehaviorTestConfig = DEFAULT_CONFIG,
        calibrator: Optional[ThresholdCalibrator] = None,
        collect_all: bool = False,
    ):
        self._config = config
        self._collect_all = collect_all
        self._single = SingleBehaviorTest(config, calibrator, emit_audit=False)

    @property
    def config(self) -> BehaviorTestConfig:
        return self._config

    @property
    def calibrator(self) -> ThresholdCalibrator:
        return self._single.calibrator

    def test(self, history) -> MultiTestReport:
        """Judge every time-recent suffix after issuer-grouped reordering."""
        feedbacks = _feedbacks_of(history)
        if _audit.enabled:
            with _audit.trail.decision_scope(
                server=getattr(history, "server", None)
            ) as sampled:
                return self._test(feedbacks, audited=sampled)
        return self._test(feedbacks, audited=False)

    def _test(self, feedbacks: List[Feedback], *, audited: bool) -> MultiTestReport:
        lengths = self._config.suffix_lengths(len(feedbacks))
        trace = ReorderTrace.from_feedbacks(feedbacks)
        if not lengths:
            report = insufficient_report(self._config, len(feedbacks), trace)
            if audited:
                self._emit_audit(feedbacks, report, [None])
            return report
        rounds = []
        round_outcomes = []  # per-round reordered vectors, for the audit record
        for length in lengths:  # longest (full history) first, as in Sec. 4
            recent = feedbacks[len(feedbacks) - length :]
            reordered = reordered_outcomes(recent)
            verdict = self._single.test_outcomes(reordered)
            rounds.append((length, verdict))
            if audited:
                round_outcomes.append(reordered)
            if not verdict.passed and not self._collect_all:
                break
        report = suffix_report(rounds, trace)
        if audited:
            self._emit_audit(feedbacks, report, round_outcomes)
        return report

    def _emit_audit(self, feedbacks, report, round_outcomes) -> None:
        trail = _audit.trail
        trail.emit(
            _audit.multi_test_record(
                self.name,
                config=self._config,
                outcomes=[fb.outcome for fb in feedbacks],
                report=report,
                round_outcomes=round_outcomes,
                reorder=_audit.reorder_trace(feedbacks),
                include_pmfs=trail.include_pmfs,
            )
        )
