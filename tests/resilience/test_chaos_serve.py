"""Chaos suite for the serving pipeline.

The contract under test: wherever a recovery path exists, verdicts
under injected faults are **bit-identical** to the fault-free run; where
none exists, the sweep surfaces one structured
:class:`~repro.resilience.faults.ResilienceError` naming the
originating site — never a bare traceback from inside the pipeline.
"""

from __future__ import annotations

import pytest

from repro import obs
from repro.obs.events import EventLog
from repro.resilience import FaultPlan, InjectedFault, ResilienceError
from repro.resilience import runtime as res
from repro.serve.service import AssessmentService

from .conftest import add_uncalibrated_server, make_service


def _strip_time(events):
    return [{k: v for k, v in e.items() if k != "time"} for e in events]


class TestSweepFailures:
    def test_caller_errors_are_not_resilience_errors(self, service):
        """An unknown server or a pool executor is the caller's mistake:
        it propagates as itself, never wrapped as a fault."""
        with pytest.raises(KeyError):
            service.assess_many(["no-such-server"])
        with pytest.raises(ValueError, match="executor"):
            AssessmentService(assessor=service.assessor, executor="process")

    def test_escaping_fault_raises_single_resilience_error(
        self, service, monkeypatch
    ):
        fault = InjectedFault("core.calibration", "exception", 0)

        def _always_failing(server):
            raise fault

        monkeypatch.setattr(service, "assess", _always_failing)
        with pytest.raises(ResilienceError) as excinfo:
            service.assess_many()
        assert excinfo.value.site == "core.calibration"
        assert excinfo.value.__cause__ is fault
        assert [step for step, _ in excinfo.value.attempts] == ["serial"]


class TestCalibrationRecovery:
    def test_transient_calibration_fault_is_bit_identical(self, chaos_seed):
        """Injection happens before the Monte-Carlo pass consumes RNG, so
        the retried calibration reproduces the fault-free threshold."""
        baseline = make_service().assess_many()
        service = make_service()
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("core.calibration", "exception", max_fires=1)
        with res.activate(plan):
            chaos = service.assess_many()
        assert chaos == baseline
        assert not any(a.degraded for a in chaos.values())

    def test_persistent_calibration_fault_serves_stale_degraded(
        self, chaos_seed
    ):
        service = make_service()
        calibrator = service.assessor.behavior_test.calibrator
        service.assess_many()  # warms nearby ε buckets
        sid = add_uncalibrated_server(service)
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("core.calibration", "exception")  # every attempt fails
        log = EventLog()
        with res.activate(plan, log):
            chaos = service.assess_many([sid])
        assert calibrator.degraded_calibrations > 0
        assert chaos[sid].degraded
        assert any(
            e["event"] == "calibration_degraded" for e in log.events
        )

    def test_degraded_assessments_are_not_memoized(self, chaos_seed):
        service = make_service()
        service.assess_many()
        sid = add_uncalibrated_server(service)
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("core.calibration", "exception")
        with res.activate(plan):
            first = service.assess(sid)
        assert first.degraded
        # the degraded answer was served but not cached: with the fault
        # cleared the next call recomputes for real
        healthy = service.assess(sid)
        assert not healthy.degraded
        # and now the healthy answer *is* memoized
        assert service.assess(sid) is healthy

    def test_unrecoverable_calibration_fault_raises_resilience_error(
        self, chaos_seed
    ):
        """A cold calibrator has no stale candidate: nothing can recover,
        and the sweep surfaces one structured error naming the site."""
        service = make_service()
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("core.calibration", "exception")
        with res.activate(plan):
            with pytest.raises(ResilienceError) as excinfo:
                service.assess_many()
        assert excinfo.value.site == "core.calibration"
        # the per-server path propagates the fault itself
        with res.activate(plan):
            with pytest.raises(InjectedFault):
                service.assess(service.servers()[0])


    def test_stale_calibration_verdicts_count_as_degraded(self, chaos_seed):
        """Served-but-degraded verdicts are counted apart from fresh
        assessments, the pair CI's serve health check reads."""
        service = make_service()
        with obs.activate() as session:
            service.assess_many()
            sid = add_uncalibrated_server(service)
            plan = FaultPlan(seed=chaos_seed)
            plan.arm("core.calibration", "exception")
            with res.activate(plan):
                assert service.assess_many([sid])[sid].degraded
        registry = session.registry
        assert registry.total("serve.service.degraded_assessments") == 1
        assert registry.total("serve.service.assessments") == len(service)


class TestChaosDeterminism:
    """Same plan seed => identical fault sequence and obs event log."""

    def _chaos_run(self, seed: int):
        service = make_service()
        plan = FaultPlan(seed=seed)
        # one seed-chosen calibration attempt fails; the calibrator's
        # retry absorbs it before the Monte-Carlo pass draws
        plan.arm("core.calibration", "exception", probability=0.6, max_fires=1)
        log = EventLog()
        with res.activate(plan, log):
            results = service.assess_many()
        return results, plan.log, _strip_time(log.events)

    def test_two_runs_replay_identically(self, chaos_seed):
        results_a, plan_log_a, events_a = self._chaos_run(chaos_seed)
        results_b, plan_log_b, events_b = self._chaos_run(chaos_seed)
        assert plan_log_a == plan_log_b
        assert events_a == events_b
        assert results_a == results_b

    def test_chaos_results_match_fault_free_run(self, chaos_seed):
        baseline = make_service().assess_many()
        results, _, _ = self._chaos_run(chaos_seed)
        assert results == baseline
