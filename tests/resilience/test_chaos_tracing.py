"""Degradation events under chaos carry the originating trace.

The contract: every recovery performed while serving a traced request
is attributed to that request — ``calibration_degraded`` events carry
the request's ``trace_id``, and each degradation emits its event
exactly once (no double-counting when the retry policy and the health
registry both observe the same fall).
"""

from __future__ import annotations

from repro import obs
from repro.obs import context as trace_ctx
from repro.obs.events import EventLog
from repro.resilience import FaultPlan
from repro.resilience import runtime as res

from .conftest import add_uncalibrated_server, make_service


def _events_named(log, name):
    return [e for e in log.events if e["event"] == name]


def _stale_request(service, chaos_seed, log=None, sid="srv-new"):
    """One request for an uncalibrated server while every calibration
    attempt fails: it is served off a stale threshold."""
    add_uncalibrated_server(service, sid=sid)
    plan = FaultPlan(seed=chaos_seed)
    plan.arm("core.calibration", "exception")
    with res.activate(plan, log):
        return service.assess_many([sid])


class TestCalibrationDegradationTracing:
    def test_calibration_degraded_carries_request_trace_id_exactly_once(
        self, chaos_seed
    ):
        service = make_service()
        calibrator = service.assessor.behavior_test.calibrator
        service.assess_many()  # warm nearby ε buckets
        log = EventLog()
        root = trace_ctx.new_root(test="chaos")
        with obs.activate(), trace_ctx.use(root):
            _stale_request(service, chaos_seed, log)
        assert calibrator.degraded_calibrations >= 1
        degraded = _events_named(log, "calibration_degraded")
        assert len(degraded) == calibrator.degraded_calibrations
        assert all(e["trace_id"] == root.trace_id for e in degraded)

    def test_untraced_degradation_has_no_trace_id_but_still_fires_once(
        self, chaos_seed
    ):
        """Without obs, no root is minted — the event stays id-free."""
        service = make_service()
        calibrator = service.assessor.behavior_test.calibrator
        service.assess_many()
        log = EventLog()
        _stale_request(service, chaos_seed, log)
        degraded = _events_named(log, "calibration_degraded")
        assert len(degraded) == calibrator.degraded_calibrations >= 1
        assert all("trace_id" not in e for e in degraded)

    def test_distinct_requests_attribute_to_distinct_traces(self, chaos_seed):
        """Two degraded requests => events under two distinct traces."""
        service = make_service()
        service.assess_many()
        log = EventLog()
        seen = []
        with obs.activate():
            for sid in ("srv-new-a", "srv-new-b"):
                root = trace_ctx.new_root()
                with trace_ctx.use(root):
                    _stale_request(service, chaos_seed, log, sid=sid)
                seen.append(root.trace_id)
        degraded = _events_named(log, "calibration_degraded")
        assert len(set(seen)) == 2
        assert {e["trace_id"] for e in degraded} == set(seen)

    def test_traced_degradations_surface_as_span_events(self, chaos_seed):
        """The same funnel annotates the open request span."""
        service = make_service()
        service.assess_many()
        root = trace_ctx.new_root()
        with obs.activate() as session, trace_ctx.use(root):
            _stale_request(service, chaos_seed)
        annotated = [
            event
            for span in session.tracer.finished
            for event in span.events
            if event["name"] == "calibration_degraded"
        ]
        assert len(annotated) >= 1
