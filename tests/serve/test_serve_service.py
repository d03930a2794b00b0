"""AssessmentService: batch facade semantics, caching, ledger wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.adversary.hibernating import hibernating_attack_history
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import MultiBehaviorTest
from repro.core.two_phase import Assessor, TwoPhaseAssessor
from repro.core.verdict import AssessmentStatus
from repro.feedback.history import TransactionHistory
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.obs.audit import audit_session
from repro.serve import AssessmentService, CalibrationCache
from repro.trust.registry import make_trust_function


def _assessor(paper_config, shared_calibrator, behavior=True, trust="average"):
    return TwoPhaseAssessor(
        behavior_test=(
            MultiBehaviorTest(paper_config, shared_calibrator) if behavior else None
        ),
        trust_function=make_trust_function(trust),
        trust_threshold=0.9,
    )


def _histories(n, base_seed=0, length=260, p=0.95):
    return [
        TransactionHistory.from_outcomes(
            generate_honest_outcomes(length, p, seed=base_seed + i),
            server=f"srv-{i:03d}",
        )
        for i in range(n)
    ]


class TestConstruction:
    def test_requires_exactly_one_of_assessor_or_config(
        self, paper_config, shared_calibrator
    ):
        with pytest.raises(ValueError, match="exactly one"):
            AssessmentService()
        with pytest.raises(ValueError, match="exactly one"):
            AssessmentService(
                _assessor(paper_config, shared_calibrator),
                config=AssessorConfig(),
            )

    def test_rejects_unknown_executor(self, paper_config, shared_calibrator):
        with pytest.raises(ValueError, match="executor"):
            AssessmentService(
                _assessor(paper_config, shared_calibrator), executor="gpu"
            )

    def test_from_config_builds_through_registries(self):
        service = AssessmentService(
            config=AssessorConfig(trust_function="average", behavior_test="multi")
        )
        assert isinstance(service.assessor, TwoPhaseAssessor)
        assert service.config is not None


class TestRegistration:
    def test_add_server_accepts_history_or_bare_id(
        self, paper_config, shared_calibrator
    ):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        (history,) = _histories(1)
        assert service.add_server(history) == history.server
        assert service.add_server("fresh") == "fresh"
        assert set(service.servers()) == {history.server, "fresh"}
        assert len(service) == 2

    def test_re_adding_same_history_is_idempotent(
        self, paper_config, shared_calibrator
    ):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        (history,) = _histories(1)
        service.add_server(history)
        service.add_server(history)
        assert len(service) == 1

    def test_conflicting_history_for_same_id_rejected(
        self, paper_config, shared_calibrator
    ):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        a, b = _histories(2)
        service.add_server(a)
        clone = TransactionHistory.from_outcomes([1, 0, 1], server=a.server)
        with pytest.raises(ValueError, match="different history"):
            service.add_server(clone)
        service.add_server(b)

    def test_assess_unregistered_server_raises(
        self, paper_config, shared_calibrator
    ):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        with pytest.raises(KeyError):
            service.assess("nobody")


class TestStandaloneAssessment:
    def test_matches_percall_assessment(self, paper_config, shared_calibrator):
        assessor = _assessor(paper_config, shared_calibrator)
        service = AssessmentService(assessor)
        histories = _histories(12, base_seed=40)
        for history in histories:
            service.add_server(history)
        batched = service.assess_many()
        for history in histories:
            assert batched[history.server] == assessor.assess(history)

    def test_unchanged_server_reassessment_hits_cache(
        self, paper_config, shared_calibrator
    ):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        (history,) = _histories(1, base_seed=50)
        service.add_server(history)
        first = service.assess(history.server)
        again = service.assess(history.server)
        assert first == again
        assert service.stats()["assessment_cache_hits"] >= 1

    def test_observe_outcome_refreshes_the_verdict(
        self, paper_config, shared_calibrator
    ):
        assessor = _assessor(paper_config, shared_calibrator)
        service = AssessmentService(assessor)
        (history,) = _histories(1, base_seed=60)
        service.add_server(history)
        service.assess(history.server)
        for _ in range(30):
            service.observe_outcome(history.server, 0)
        assert service.assess(history.server) == assessor.assess(history)

    def test_observe_feedback_auto_registers(self, paper_config, shared_calibrator):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        service.observe(
            Feedback(
                time=0.0, server="new-srv", client="c0", rating=Rating.POSITIVE
            )
        )
        assert "new-srv" in service.servers()

    def test_invalidate_recomputes_identically(
        self, paper_config, shared_calibrator
    ):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        (history,) = _histories(1, base_seed=70)
        service.add_server(history)
        before = service.assess(history.server)
        service.invalidate(history.server)
        assert service.assess(history.server) == before

    def test_subset_and_order_of_assess_many(self, paper_config, shared_calibrator):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        histories = _histories(5, base_seed=80)
        for history in histories:
            service.add_server(history)
        ids = [histories[3].server, histories[1].server]
        subset = service.assess_many(ids)
        assert list(subset) == ids


class TestExecutors:
    def test_thread_executor_is_rejected(self, paper_config, shared_calibrator):
        with pytest.raises(ValueError, match="executor"):
            AssessmentService(
                _assessor(paper_config, shared_calibrator), executor="thread"
            )

    def test_process_and_auto_executors_are_rejected(self):
        """Serving is single-process: there is no worker pool to
        select."""
        for executor in ("process", "auto"):
            with pytest.raises(ValueError, match="executor"):
                AssessmentService(config=AssessorConfig(), executor=executor)

    def test_serial_is_accepted_by_name(self):
        service = AssessmentService(config=AssessorConfig(), executor="serial")
        assert service.assess_many() == {}


class TestLedgerMode:
    def _ledger_with(self, outcomes_by_server):
        ledger = FeedbackLedger()
        t = 0.0
        for server, outcomes in outcomes_by_server.items():
            for i, outcome in enumerate(outcomes):
                t += 1.0
                ledger.record(
                    Feedback(
                        time=t,
                        server=server,
                        client=f"client-{i % 7}",
                        rating=Rating.POSITIVE if outcome else Rating.NEGATIVE,
                    )
                )
        return ledger

    def test_ledger_trust_matches_percall(self, paper_config, shared_calibrator):
        assessor = _assessor(paper_config, shared_calibrator, trust="peertrust")
        ledger = self._ledger_with(
            {
                "srv-a": generate_honest_outcomes(300, 0.95, seed=1),
                "srv-b": generate_honest_outcomes(260, 0.90, seed=2),
            }
        )
        service = AssessmentService(assessor, ledger=ledger)
        batched = service.assess_many()
        for server in ledger.servers():
            assert batched[server] == assessor.assess(
                ledger.history(server), ledger=ledger
            )

    def test_new_feedback_auto_registers_and_tracks(
        self, paper_config, shared_calibrator
    ):
        assessor = _assessor(paper_config, shared_calibrator)
        ledger = self._ledger_with(
            {"srv-a": generate_honest_outcomes(280, 0.95, seed=3)}
        )
        service = AssessmentService(assessor, ledger=ledger)
        ledger.record(
            Feedback(time=999.0, server="srv-new", client="c", rating=Rating.POSITIVE)
        )
        assert "srv-new" in service.servers()
        before = service.assess("srv-a")
        ledger.record(
            Feedback(time=1000.0, server="srv-a", client="c", rating=Rating.NEGATIVE)
        )
        assert service.assess("srv-a") == assessor.assess(
            ledger.history("srv-a"), ledger=ledger
        )
        assert before.server == "srv-a"

    def test_observe_outcome_refused_with_ledger(
        self, paper_config, shared_calibrator
    ):
        ledger = self._ledger_with(
            {"srv-a": generate_honest_outcomes(100, 0.95, seed=4)}
        )
        service = AssessmentService(
            _assessor(paper_config, shared_calibrator), ledger=ledger
        )
        with pytest.raises(ValueError, match="ledger"):
            service.observe_outcome("srv-a", 1)

    def test_close_unsubscribes(self, paper_config, shared_calibrator):
        ledger = self._ledger_with(
            {"srv-a": generate_honest_outcomes(100, 0.95, seed=5)}
        )
        service = AssessmentService(
            _assessor(paper_config, shared_calibrator), ledger=ledger
        )
        service.close()
        ledger.record(
            Feedback(time=1.5e3, server="late", client="c", rating=Rating.POSITIVE)
        )
        assert "late" not in service.servers()


class TestStatsAndCache:
    def test_stats_shape(self, paper_config, shared_calibrator):
        service = AssessmentService(_assessor(paper_config, shared_calibrator))
        for history in _histories(3, base_seed=100):
            service.add_server(history)
        service.assess_many()
        service.assess_many()
        stats = service.stats()
        assert stats["servers"] == 3
        # the first sweep assesses fresh, the second is all memo hits
        assert stats["assessments"] == 3
        assert stats["assessment_cache_hits"] == 3
        assert stats["calibration_misses"] >= 0

    def test_calibration_cache_attach_and_save(
        self, paper_config, tmp_path
    ):
        cache = CalibrationCache(path=str(tmp_path / "thresholds.json"))
        assessor = Assessor.from_config(
            AssessorConfig(
                trust_function="average",
                behavior_test="multi",
                test_config=BehaviorTestConfig(),
            )
        )
        service = AssessmentService(assessor, calibration_cache=cache)
        for history in _histories(4, base_seed=110):
            service.add_server(history)
        service.assess_many()
        assert len(cache) > 0
        path = service.save_cache()
        reloaded = CalibrationCache(path=path)
        assert len(reloaded) == len(cache)


class TestAudit:
    @pytest.mark.parametrize("kind", ["honest", "hibernating"])
    def test_fresh_assessment_leaves_the_assessors_records(
        self, paper_config, shared_calibrator, kind
    ):
        """A fresh ``assess(server)``, whose phase 1 runs per server,
        leaves the same records as ``TwoPhaseAssessor.assess`` on that
        history: the behavior test's rounds, then the assessment."""
        outcomes = (
            generate_honest_outcomes(600, 0.95, seed=5)
            if kind == "honest"
            else hibernating_attack_history(600, 40, seed=2008)
        )
        history = TransactionHistory.from_outcomes(outcomes, server="srv")
        assessor = _assessor(paper_config, shared_calibrator)
        service = AssessmentService(assessor)
        service.add_server(history)
        with audit_session() as served:
            assessment = service.assess("srv")
        with audit_session() as direct:
            assert assessor.assess(history) == assessment

        def fields(records):
            return [
                {k: v for k, v in r.items() if k not in ("trace_id", "context")}
                for r in records
            ]

        assert [r["kind"] for r in served.records] == ["behavior_test", "assessment"]
        assert fields(served.records) == fields(direct.records)
        assert assessment.suspicious == (kind == "hibernating")
