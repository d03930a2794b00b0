"""Service-level contract of the vectorized cold-path prefold.

``AssessmentService(vectorized=True)`` must be a pure optimization:
identical assessments to the scalar service on every schedule, engaged
only when a batch is genuinely cold and large enough, and standing down
whenever correctness demands it (armed fault plans, degraded
calibrations, unsupported testers).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.feedback.history import TransactionHistory
from repro.feedback.ledger import FeedbackLedger
from repro.feedback.records import Feedback, Rating
from repro.resilience import FaultPlan
from repro.resilience import runtime as res
from repro.serve import AssessmentService
from repro.serve.service import VECTOR_MIN_BATCH

CONFIG = AssessorConfig(test_config=BehaviorTestConfig(calibration_sets=50))


def _populate(service: AssessmentService, n=60, seed=11):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(10, 240, size=n)
    rates = 0.5 + 0.49 * rng.random(n)
    for i in range(n):
        history = TransactionHistory.from_outcomes(
            generate_honest_outcomes(int(lengths[i]), float(rates[i]), seed=seed + i),
            server=f"server-{i:03d}",
        )
        service.add_server(history)
    return [f"server-{i:03d}" for i in range(n)]


def _pair():
    vector = AssessmentService(config=CONFIG, vectorized=True)
    scalar = AssessmentService(config=CONFIG, vectorized=False)
    ids_v = _populate(vector)
    ids_s = _populate(scalar)
    assert ids_v == ids_s
    return vector, scalar, ids_v


class TestEquivalence:
    def test_cold_sweep_identical(self):
        vector, scalar, ids = _pair()
        assert vector.assess_many(ids) == scalar.assess_many(ids)
        assert vector.n_vector_prefolds == 1
        assert vector.n_vector_seeded == len(ids)

    def test_warm_resweep_identical_and_not_reprefolded(self):
        vector, scalar, ids = _pair()
        vector.assess_many(ids)
        scalar.assess_many(ids)
        for service in (vector, scalar):
            for sid in ids[::5]:
                service.observe_outcome(sid, 1)
        assert vector.assess_many(ids) == scalar.assess_many(ids)
        # the touched minority is prefolded again only if it reaches the
        # min-batch bar
        touched = len(ids[::5])
        assert vector.n_vector_prefolds == 1 + (touched >= VECTOR_MIN_BATCH)

    @pytest.mark.parametrize("dirty", [VECTOR_MIN_BATCH, VECTOR_MIN_BATCH - 1])
    def test_min_batch_bar_after_a_warm_sweep(self, dirty):
        """Exactly the bar's number of dirty states is batch-folded and
        seeded; one fewer stays on the scalar walk."""
        vector, scalar, ids = _pair()
        vector.assess_many(ids)
        scalar.assess_many(ids)
        for service in (vector, scalar):
            for sid in ids[:dirty]:
                service.observe_outcome(sid, 1)
        seeded = vector.n_vector_seeded
        assert vector.assess_many(ids) == scalar.assess_many(ids)
        batched = dirty >= VECTOR_MIN_BATCH
        assert vector.n_vector_prefolds == 1 + batched
        assert vector.n_vector_seeded == seeded + (dirty if batched else 0)

    def test_post_invalidation_sweep_identical(self):
        vector, scalar, ids = _pair()
        vector.assess_many(ids)
        scalar.assess_many(ids)
        # exactly a minimum batch turns cold again: the kernel re-engages
        for sid in ids[:VECTOR_MIN_BATCH]:
            vector.invalidate(sid)
            scalar.invalidate(sid)
        assert vector.assess_many(ids) == scalar.assess_many(ids)
        assert vector.n_vector_prefolds == 2


class TestGating:
    def test_small_batches_skip_the_kernel(self):
        service = AssessmentService(config=CONFIG, vectorized=True)
        ids = _populate(service, n=VECTOR_MIN_BATCH - 1)
        service.assess_many(ids)
        assert service.n_vector_prefolds == 0

    def test_vectorized_false_never_prefolds(self):
        service = AssessmentService(config=CONFIG, vectorized=False)
        ids = _populate(service)
        service.assess_many(ids)
        assert service.n_vector_prefolds == 0

    def test_armed_fault_plan_bypasses_the_kernel(self):
        """Chaos runs demand per-event injection sequencing — the scalar
        path must serve them even on a vectorized service."""
        vector = AssessmentService(config=CONFIG, vectorized=True)
        scalar = AssessmentService(config=CONFIG, vectorized=False)
        ids = _populate(vector)
        _populate(scalar)
        plan = FaultPlan(seed=0)  # armed, even with no sites enabled
        with res.activate(plan):
            got = vector.assess_many(ids)
            expected = scalar.assess_many(ids)
        assert got == expected
        assert vector.n_vector_prefolds == 0

    def test_unsupported_tester_skips_the_kernel(self):
        config = AssessorConfig(
            behavior_test="single",
            test_config=BehaviorTestConfig(calibration_sets=50),
        )
        service = AssessmentService(config=config, vectorized=True)
        ids = _populate(service)
        service.assess_many(ids)
        assert service.n_vector_prefolds == 0


class TestLedgerColdStart:
    def _stream(self, n_servers=40, seed=3):
        rng = np.random.default_rng(seed)
        stream = []
        for i in range(n_servers):
            sid = f"s{i:02d}"
            rate = 0.5 + 0.49 * rng.random()
            for t in range(int(rng.integers(40, 120))):
                stream.append(
                    Feedback(
                        time=float(t),
                        server=sid,
                        client=f"c{rng.integers(0, 9)}",
                        rating=Rating.POSITIVE if rng.random() < rate else Rating.NEGATIVE,
                    )
                )
        return stream

    @pytest.mark.parametrize("backend", ["memory", "columnar"])
    def test_attach_and_cold_assess_matches_scalar(self, backend):
        stream = self._stream()
        led_v = FeedbackLedger(backend=backend)
        led_s = FeedbackLedger()
        led_v.record_many(stream)
        led_s.record_many(stream)
        vector = AssessmentService(config=CONFIG, vectorized=True)
        scalar = AssessmentService(config=CONFIG, vectorized=False)
        vector.attach_ledger(led_v)
        scalar.attach_ledger(led_s)
        ids = sorted(led_s.servers())
        assert vector.assess_many(ids) == scalar.assess_many(ids)
        assert vector.n_vector_prefolds == 1
