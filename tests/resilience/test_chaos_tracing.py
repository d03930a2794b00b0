"""Degradation events under chaos carry the originating trace.

The contract: every recovery the ladder performs while serving a traced
request is attributed to that request — ``executor_degraded`` and
``calibration_degraded`` events carry the request's ``trace_id``, and
each degradation emits its event exactly once (no double-counting when
the retry ladder and the health registry both observe the same fall).
"""

from __future__ import annotations

import random

from repro import obs
from repro.obs import context as trace_ctx
from repro.obs.events import EventLog
from repro.resilience import FaultPlan
from repro.resilience import runtime as res
from repro.feedback.records import Feedback, Rating

from .conftest import make_service


def _events_named(log, name):
    return [e for e in log.events if e["event"] == name]


class TestExecutorDegradationTracing:
    def test_executor_degraded_carries_request_trace_id_exactly_once(
        self, service, chaos_seed
    ):
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("serve.executor.worker", "exception", max_fires=2)
        log = EventLog()
        root = trace_ctx.new_root(test="chaos")
        with obs.activate(), res.activate(plan, log):
            with trace_ctx.use(root):
                service.assess_many(executor="process")
        assert service.n_degradations == 1
        degraded = _events_named(log, "executor_degraded")
        assert len(degraded) == 1, "one degradation => exactly one event"
        assert degraded[0]["trace_id"] == root.trace_id

    def test_untraced_degradation_has_no_trace_id_but_still_fires_once(
        self, service, chaos_seed
    ):
        """Without obs, no root is minted — the event stays id-free."""
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("serve.executor.worker", "exception", max_fires=2)
        log = EventLog()
        with res.activate(plan, log):
            service.assess_many(executor="process")
        degraded = _events_named(log, "executor_degraded")
        assert len(degraded) == 1
        assert "trace_id" not in degraded[0]

    def test_distinct_requests_attribute_to_distinct_traces(
        self, service, chaos_seed
    ):
        """Two faulted requests => two events, each with its own trace."""
        log = EventLog()
        seen = []
        with obs.activate():
            for _ in range(2):
                plan = FaultPlan(seed=chaos_seed)
                plan.arm("serve.executor.worker", "exception", max_fires=2)
                root = trace_ctx.new_root()
                with res.activate(plan, log):
                    with trace_ctx.use(root):
                        service.assess_many(executor="process")
                seen.append(root.trace_id)
        degraded = _events_named(log, "executor_degraded")
        assert [e["trace_id"] for e in degraded] == seen
        assert len(set(seen)) == 2


class TestCalibrationDegradationTracing:
    @staticmethod
    def _add_uncalibrated_server(service, sid="srv-new", p_good=0.5):
        """Same (m, k) bucket as the warm run, but an uncalibrated p̂
        bucket — the stale-fallback path is the only recovery."""
        stream = random.Random(77)
        t = 10_000.0
        service.add_server(sid)
        for i in range(40):
            t += 1.0
            service.observe(
                Feedback(
                    time=t,
                    server=sid,
                    client=f"cli-{i % 5}",
                    rating=(
                        Rating.POSITIVE
                        if stream.random() < p_good
                        else Rating.NEGATIVE
                    ),
                )
            )
        return sid

    def test_calibration_degraded_carries_request_trace_id_exactly_once(
        self, chaos_seed
    ):
        service = make_service()
        calibrator = service.assessor.behavior_test.calibrator
        service.assess_many(executor="serial")  # warm nearby ε buckets
        sid = self._add_uncalibrated_server(service)
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("core.calibration", "exception")
        log = EventLog()
        root = trace_ctx.new_root(test="chaos")
        with obs.activate(), res.activate(plan, log):
            with trace_ctx.use(root):
                service.assess_many([sid], executor="serial")
        assert calibrator.degraded_calibrations >= 1
        degraded = _events_named(log, "calibration_degraded")
        assert len(degraded) == calibrator.degraded_calibrations
        assert all(e["trace_id"] == root.trace_id for e in degraded)

    def test_traced_degradations_surface_as_span_events(self, chaos_seed):
        """The same funnel annotates the open request span."""
        service = make_service()
        service.assess_many(executor="serial")
        sid = self._add_uncalibrated_server(service)
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("core.calibration", "exception")
        root = trace_ctx.new_root()
        with obs.activate() as session, res.activate(plan):
            with trace_ctx.use(root):
                service.assess_many([sid], executor="serial")
        annotated = [
            event
            for span in session.tracer.finished
            for event in span.events
            if event["name"] == "calibration_degraded"
        ]
        assert len(annotated) >= 1
