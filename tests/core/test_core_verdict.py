"""Tests for repro.core.verdict result objects."""

import numpy as np
import pytest

from repro.core.registry import available_behavior_tests, make_behavior_test
from repro.core.verdict import (
    Assessment,
    AssessmentStatus,
    BehaviorVerdict,
    MultiTestReport,
    ReorderTrace,
)
from repro.feedback.history import TransactionHistory
from repro.feedback.records import Feedback, Rating


def _verdict(passed=True, distance=0.1, threshold=0.3):
    return BehaviorVerdict(
        passed=passed,
        distance=distance,
        threshold=threshold,
        p_hat=0.9,
        n_windows=10,
        window_size=10,
        n_considered=100,
    )


class TestBehaviorVerdict:
    def test_margin(self):
        assert _verdict(distance=0.1, threshold=0.3).margin == pytest.approx(0.2)
        assert _verdict(passed=False, distance=0.5, threshold=0.3).margin < 0

    def test_insufficient_constructor(self):
        v = BehaviorVerdict.insufficient_history(
            passed=True, window_size=10, n_considered=7
        )
        assert v.insufficient
        assert v.passed
        assert v.n_windows == 0
        assert v.n_considered == 7

    def test_frozen(self):
        with pytest.raises(AttributeError):
            _verdict().passed = False


class TestMultiTestReport:
    def test_first_failure_longest_first(self):
        rounds = (
            (300, _verdict(passed=True)),
            (250, _verdict(passed=False, distance=0.9)),
            (200, _verdict(passed=False, distance=0.8)),
        )
        report = MultiTestReport(passed=False, rounds=rounds)
        length, verdict = report.first_failure
        assert length == 250
        assert verdict.distance == 0.9

    def test_first_failure_none_when_passing(self):
        report = MultiTestReport(passed=True, rounds=((100, _verdict()),))
        assert report.first_failure is None

    def test_worst_margin_skips_insufficient(self):
        rounds = (
            (100, _verdict(distance=0.1, threshold=0.3)),
            (
                50,
                BehaviorVerdict.insufficient_history(
                    passed=True, window_size=10, n_considered=30
                ),
            ),
        )
        report = MultiTestReport(passed=True, rounds=rounds)
        assert report.worst_margin == pytest.approx(0.2)

    def test_worst_margin_all_insufficient(self):
        rounds = (
            (
                30,
                BehaviorVerdict.insufficient_history(
                    passed=True, window_size=10, n_considered=30
                ),
            ),
        )
        assert MultiTestReport(passed=True, rounds=rounds).worst_margin == float("inf")

    def test_n_rounds(self):
        report = MultiTestReport(passed=True, rounds=((1, _verdict()), (2, _verdict())))
        assert report.n_rounds == 2


class TestFastConstructors:
    """``BehaviorVerdict.judged`` and ``MultiTestReport.of_rounds`` skip
    the frozen constructor; they must build what it builds."""

    def test_judged_equals_the_constructor(self):
        fast = BehaviorVerdict.judged(False, 0.4, 0.3, 0.85, 12, 10)
        slow = BehaviorVerdict(False, 0.4, 0.3, 0.85, 12, 10, 120)
        assert fast == slow and hash(fast) == hash(slow)
        assert vars(fast) == vars(slow)
        with pytest.raises(AttributeError):
            fast.passed = True

    @pytest.mark.parametrize(
        "rounds",
        [
            ((300, _verdict()), (250, _verdict(distance=0.2))),
            ((300, _verdict()), (250, _verdict(False, 0.9)), (200, _verdict(False, 0.8))),
            (
                (100, BehaviorVerdict.insufficient_history(
                    passed=True, window_size=10, n_considered=30
                )),
                (50, _verdict(distance=0.2)),
            ),
            (
                (100, _verdict()),
                (50, BehaviorVerdict.insufficient_history(
                    passed=False, window_size=10, n_considered=30
                )),
            ),
            ((40, BehaviorVerdict.judged(True, 0.0, 0.0, 1.0, 4, 10)),),
            (),
        ],
        ids=["passed", "failed", "insufficient-first", "insufficient-fails", "one", "none"],
    )
    def test_of_rounds_equals_the_constructor(self, rounds):
        for reorder in (None, ReorderTrace(3, 2, (2, 1))):
            fast = MultiTestReport.of_rounds(rounds, reorder)
            slow = MultiTestReport(
                passed=all(v.passed for _, v in rounds), rounds=rounds, reorder=reorder
            )
            assert fast == slow and vars(fast) == vars(slow)
            assert type(fast) is MultiTestReport


class TestVerdictUnification:
    """Every registered tester returns a BehaviorVerdict."""

    def _rich_history(self) -> TransactionHistory:
        """Feedback-rich history: timestamps, cycling clients, categories."""
        rng = np.random.default_rng(42)
        return TransactionHistory.from_feedbacks(
            Feedback(
                time=float(t) * 3600.0,
                server="srv",
                client=f"client-{t % 5}",
                rating=(
                    Rating.POSITIVE if rng.random() < 0.95 else Rating.NEGATIVE
                ),
                category=("books", "tools")[t % 2],
            )
            for t in range(300)
        )

    @pytest.mark.parametrize("name", sorted(available_behavior_tests()))
    def test_every_registry_tester_returns_a_verdict(
        self, name, paper_config, shared_calibrator
    ):
        kwargs = {"n_categories": 3} if name == "multinomial" else {}
        tester = make_behavior_test(
            name, config=paper_config, calibrator=shared_calibrator, **kwargs
        )
        if name == "multinomial":
            rng = np.random.default_rng(7)
            verdict = tester.test(rng.integers(0, 3, size=300))
        else:
            verdict = tester.test(self._rich_history())
        assert isinstance(verdict, BehaviorVerdict)
        assert isinstance(verdict.passed, bool)
        assert isinstance(verdict.margin, float)


class TestAssessment:
    def test_accepted_only_when_trusted(self):
        for status, accepted in [
            (AssessmentStatus.TRUSTED, True),
            (AssessmentStatus.UNTRUSTED, False),
            (AssessmentStatus.SUSPICIOUS, False),
        ]:
            a = Assessment(status=status, trust_value=0.95, behavior=None)
            assert a.accepted is accepted

    def test_suspicious_flag(self):
        a = Assessment(
            status=AssessmentStatus.SUSPICIOUS, trust_value=None, behavior=None
        )
        assert a.suspicious

    def test_status_values(self):
        assert AssessmentStatus.SUSPICIOUS.value == "suspicious"
        assert AssessmentStatus.TRUSTED.value == "trusted"
        assert AssessmentStatus.UNTRUSTED.value == "untrusted"
