"""Replica-repair plumbing: ledger resets and service swaps.

The cluster repairs a divergent or newly joined replica by installing
the merged stream through ``FeedbackLedger.reset_server`` +
``AssessmentService.replace_server``.  These tests pin each hop of that
pipeline in isolation.
"""

from __future__ import annotations

import pytest

from repro.core import AssessorConfig
from repro.core.two_phase import Assessor
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.serve.service import AssessmentService


def _events(server="srv-a", n=12, base=0.0):
    return [
        Feedback(
            time=base + i * 0.5,
            server=server,
            client=f"cli-{i % 4}",
            rating=Rating.POSITIVE if i % 3 else Rating.NEGATIVE,
            category=None if i % 2 else "NA",
            authentic=bool(i % 5),
        )
        for i in range(n)
    ]


class TestLedgerResetServer:
    def test_reset_replaces_only_the_target_server(self):
        ledger = FeedbackLedger(backend="memory")
        for fb in _events() + _events(server="srv-b", base=100.0):
            ledger.record(fb)
        merged = _events(n=15)  # the reconciled stream is longer
        assert ledger.reset_server("srv-a", merged) == 15
        assert ledger.feedbacks_for_server("srv-a") == merged
        assert ledger.feedbacks_for_server("srv-b") == _events(
            server="srv-b", base=100.0
        )

    def test_reset_with_empty_stream_removes_the_server(self):
        ledger = FeedbackLedger(backend="memory")
        for fb in _events():
            ledger.record(fb)
        assert ledger.reset_server("srv-a", []) == 0
        assert "srv-a" not in ledger.servers()

    def test_reset_rejects_foreign_feedback(self):
        ledger = FeedbackLedger(backend="memory")
        with pytest.raises(ValueError, match="srv-a"):
            ledger.reset_server("srv-a", _events(server="srv-b"))

    def test_reset_requires_a_rebuildable_backend(self, tmp_path):
        """The mmap ledger's file is append-only, so it cannot reset."""
        ledger = FeedbackLedger(backend="mmap", path=str(tmp_path / "led.bin"))
        with pytest.raises(NotImplementedError, match="mmap"):
            ledger.reset_server("srv-a", [])


class TestServiceReplaceServer:
    def _service(self):
        ledger = FeedbackLedger(backend="memory")
        assessor = Assessor.from_config(AssessorConfig(trust_function="average"))
        return AssessmentService(assessor=assessor, ledger=ledger), ledger

    def test_replace_drops_stale_state_and_reassesses(self):
        service, ledger = self._service()
        for fb in _events():
            ledger.record(fb)
        before = service.assess("srv-a")
        merged = _events(n=20)
        ledger.reset_server("srv-a", merged)
        service.replace_server(ledger.history("srv-a"))
        after = service.assess("srv-a")
        # the fresh assessment reflects the full merged stream: a
        # reference service fed only the merged events agrees exactly
        reference, ref_ledger = self._service()
        for fb in merged:
            ref_ledger.record(fb)
        assert after == reference.assess("srv-a")
        assert before.trust_value != after.trust_value or before == after

    def test_replace_registers_a_previously_unknown_server(self):
        service, ledger = self._service()
        for fb in _events(server="srv-new"):
            ledger.record(fb)
        service.replace_server(ledger.history("srv-new"))
        assert service.assess("srv-new").server == "srv-new"
