"""The two-phase trust assessment framework (Fig. 1 / Fig. 2).

Phase 1 screens the server's transaction history against the
honest-player model; only when it passes is a conventional trust function
applied (phase 2).  A failing phase 1 raises the "destination peer is
suspicious" alert and short-circuits — the trust value of an entity whose
history the model cannot explain is meaningless.

Any behavior test exposing ``test(history) -> verdict-with-.passed``
works as phase 1 (single, multi, collusion-resilient, categorized,
multinomial); any :class:`~repro.trust.base.TrustFunction` or
:class:`~repro.trust.base.LedgerTrustFunction` works as phase 2.
"""

from __future__ import annotations

from typing import Optional, Protocol, Union

from ..feedback.history import TransactionHistory
from ..feedback.ledger import FeedbackLedger
from ..obs import audit as _audit
from ..obs import runtime as _obs
from ..trust.base import LedgerTrustFunction, TrustFunction
from .config import AssessorConfig
from .verdict import Assessment, AssessmentStatus, BehaviorVerdict

__all__ = ["BehaviorTestProtocol", "TwoPhaseAssessor", "Assessor"]

class BehaviorTestProtocol(Protocol):
    """Anything usable as phase 1."""

    def test(self, history) -> BehaviorVerdict:  # pragma: no cover - structural
        """Judge a history, returning the unified phase-1 verdict."""
        ...


class TwoPhaseAssessor:
    """Behavior screening composed with a trust function.

    Parameters are keyword-only (``trust_function=``, ``behavior_test=``,
    ``trust_threshold=``).  Prefer :meth:`from_config` when both phases
    are registry names.

    Parameters
    ----------
    behavior_test:
        Phase-1 screen; ``None`` disables screening (reduces the assessor
        to the bare trust function — the comparison baseline in all the
        paper's experiments).
    trust_function:
        Phase-2 trust computation (history-based or ledger-based).
    trust_threshold:
        The client's acceptance threshold over trust values (paper: 0.9).
    """

    def __init__(
        self,
        *,
        trust_function: Union[TrustFunction, LedgerTrustFunction],
        behavior_test: Optional[BehaviorTestProtocol] = None,
        trust_threshold: float = 0.9,
    ):
        if not 0.0 <= trust_threshold <= 1.0:
            raise ValueError(
                f"trust_threshold must lie in [0, 1], got {trust_threshold}"
            )
        self._behavior_test = behavior_test
        self._trust_function = trust_function
        self._threshold = trust_threshold

    @classmethod
    def from_config(
        cls,
        config: AssessorConfig,
        *,
        calibrator=None,
    ) -> "TwoPhaseAssessor":
        """Build an assessor from a declarative :class:`AssessorConfig`.

        Both phases are resolved through their registries (aliases
        accepted); ``calibrator`` optionally shares one ε-threshold
        calibrator across assessors built from related configs.
        """
        from ..trust.registry import make_trust_function
        from .registry import make_behavior_test

        behavior = make_behavior_test(
            config.behavior_test,
            config=config.test_config,
            calibrator=calibrator,
            **config.behavior_kwargs,
        )
        trust = make_trust_function(config.trust_function, **config.trust_kwargs)
        return cls(
            behavior_test=behavior,
            trust_function=trust,
            trust_threshold=config.trust_threshold,
        )

    @property
    def trust_threshold(self) -> float:
        return self._threshold

    @property
    def behavior_test(self) -> Optional[BehaviorTestProtocol]:
        return self._behavior_test

    @property
    def trust_function(self):
        return self._trust_function

    def assess(
        self,
        history: TransactionHistory,
        *,
        ledger: Optional[FeedbackLedger] = None,
    ) -> Assessment:
        """Run both phases on a server's history.

        ``ledger`` is required when phase 2 is a ledger-based scheme
        (PeerTrust, EigenTrust).
        """
        if _audit.enabled:
            # One decision scope per assessment: the nested behavior-test
            # record and this assessment record are sampled together and
            # share the server identity.
            with _audit.trail.decision_scope(server=history.server):
                assessment = self._assess(history, ledger)
                if _audit.trail.want_record():
                    self._emit_audit(assessment)
                return assessment
        return self._assess(history, ledger)

    def _assess(
        self, history: TransactionHistory, ledger: Optional[FeedbackLedger]
    ) -> Assessment:
        behavior = None
        if _obs.enabled:
            _obs.registry.inc("core.two_phase.assessments")
        if self._behavior_test is not None:
            with _obs.timer("core.two_phase.phase1_seconds"):
                behavior = self._behavior_test.test(history)
            if not behavior.passed:
                if _obs.enabled:
                    _obs.registry.inc("core.two_phase.phase1_rejections")
                    _obs.registry.inc("core.two_phase.status", status="suspicious")
                return Assessment(
                    status=AssessmentStatus.SUSPICIOUS,
                    trust_value=None,
                    behavior=behavior,
                    server=history.server,
                )
        with _obs.timer("core.two_phase.phase2_seconds"):
            trust_value = self._trust_value(history, ledger)
        status = (
            AssessmentStatus.TRUSTED
            if trust_value >= self._threshold
            else AssessmentStatus.UNTRUSTED
        )
        if _obs.enabled:
            _obs.registry.inc("core.two_phase.phase2_assessments")
            _obs.registry.inc("core.two_phase.status", status=status.value)
        return Assessment(
            status=status,
            trust_value=trust_value,
            behavior=behavior,
            server=history.server,
        )

    def _emit_audit(self, assessment: Assessment) -> None:
        """Phase-2 score provenance: who scored, what value, which gate."""
        trail = _audit.trail
        # The behavior test emitted its record inside this scope just
        # before; summarize it rather than duplicating the rounds.
        behavior_record = None
        if trail.records:
            last = trail.records[-1]
            if (
                last.get("kind") == "behavior_test"
                and last.get("server") == assessment.server
            ):
                behavior_record = last
        provenance = getattr(self._trust_function, "provenance", None)
        trust_name = (
            provenance()["name"]
            if callable(provenance)
            else type(self._trust_function).__name__
        )
        trail.emit(
            _audit.assessment_record(
                server=assessment.server,
                status=assessment.status.value,
                trust_value=assessment.trust_value,
                trust_threshold=self._threshold,
                trust_function=trust_name,
                behavior_record=behavior_record,
            )
        )

    def trust_value(
        self,
        history: TransactionHistory,
        *,
        ledger: Optional[FeedbackLedger] = None,
    ) -> float:
        """Phase 2 alone: the trust value without behavior screening.

        The serving engine composes this with independently cached
        phase-1 verdicts; ``ledger`` is required for ledger-based
        schemes, exactly as in :meth:`assess`.
        """
        return self._trust_value(history, ledger)

    def _trust_value(
        self, history: TransactionHistory, ledger: Optional[FeedbackLedger]
    ) -> float:
        if isinstance(self._trust_function, LedgerTrustFunction):
            if ledger is None:
                raise ValueError(
                    f"{type(self._trust_function).__name__} needs the system "
                    "ledger; pass ledger=..."
                )
            return self._trust_function.score_server(history.server, ledger)
        return self._trust_function.score(history)


#: Short name for the unified assessment API; ``Assessor.from_config``
#: is the preferred spelling in new code.
Assessor = TwoPhaseAssessor
