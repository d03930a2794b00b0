"""Chaos suite for the serving pipeline.

The contract under test: wherever a recovery path exists, verdicts
under injected faults are **bit-identical** to the fault-free run; where
none exists, the sweep surfaces one structured
:class:`~repro.resilience.faults.ResilienceError` naming the
originating site — never a bare worker traceback.
"""

from __future__ import annotations

from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.obs.events import EventLog
from repro.resilience import FaultPlan, InjectedFault, ResilienceError
from repro.resilience import runtime as res
from repro.serve.service import AssessmentService

from .conftest import make_service


def _strip_time(events):
    return [{k: v for k, v in e.items() if k != "time"} for e in events]


class TestExecutorRecovery:
    def test_worker_fault_degrades_to_serial_bit_identical(
        self, service, chaos_seed
    ):
        baseline = service.assess_many(executor="serial")
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("serve.executor.worker", "exception", max_fires=2)
        log = EventLog()
        with res.activate(plan, log):
            chaos = service.assess_many(executor="process")
        assert chaos == baseline
        assert service.n_degradations == 1
        assert service.last_degradation["from"] == "process"
        assert service.last_degradation["to"] == "serial"
        names = [e["event"] for e in log.events]
        assert "fault_injected" in names
        assert "executor_degraded" in names

    def test_worker_crash_becomes_broken_pool_then_recovers(
        self, service, chaos_seed
    ):
        baseline = service.assess_many(executor="serial")
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("serve.executor.worker", "crash", max_fires=2)
        with res.activate(plan):
            chaos = service.assess_many(executor="process")
        assert chaos == baseline
        assert "BrokenProcessPool" in service.last_degradation["error"]

    def test_transient_fault_recovers_within_the_same_step(
        self, service, chaos_seed
    ):
        """One fire, two attempts: the retry absorbs it — no degradation."""
        baseline = service.assess_many(executor="serial")
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("serve.executor.worker", "exception", max_fires=1)
        with res.activate(plan):
            chaos = service.assess_many(executor="process")
        assert chaos == baseline
        assert service.n_degradations == 0
        assert service._retry_policy.n_retries == 1

    def test_broken_process_pool_falls_back_to_serial(
        self, monkeypatch, chaos_seed
    ):
        """Satellite: simulated pool-worker death => serial equivalence."""
        service = make_service()
        baseline = service.assess_many(executor="serial")

        def _dying_pool(ids):
            raise BrokenProcessPool("simulated worker death")

        monkeypatch.setattr(service, "_assess_many_process", _dying_pool)
        log = EventLog()
        with res.activate(FaultPlan(seed=chaos_seed), log):
            chaos = service.assess_many(executor="process")
        assert chaos == baseline
        assert service.n_degradations == 1
        degradations = [
            e for e in log.events if e["event"] == "executor_degraded"
        ]
        assert len(degradations) == 1
        assert degradations[0]["to"] == "serial"

    def test_caller_errors_stay_out_of_the_ladder(self, service):
        with pytest.raises(KeyError):
            service.assess_many(["no-such-server"], executor="serial")
        with pytest.raises(ValueError, match="config"):
            # assessor-built service: process mode is a config error, not
            # a fault to degrade around
            AssessmentService(
                assessor=service.assessor
            ).assess_many(executor="process")
        assert service.n_degradations == 0

    def test_exhausted_ladder_raises_single_resilience_error(
        self, service, monkeypatch, chaos_seed
    ):
        fault = InjectedFault("serve.executor.worker", "exception", 0)

        def _always_failing(step, ids):
            raise fault

        monkeypatch.setattr(service, "_run_step", _always_failing)
        with res.activate(FaultPlan(seed=chaos_seed)):
            with pytest.raises(ResilienceError) as excinfo:
                service.assess_many(executor="process")
        assert excinfo.value.site == "serve.executor.worker"
        # one attempt record per ladder step: process, serial
        assert [step for step, _ in excinfo.value.attempts] == [
            "process",
            "serial",
        ]


class TestCircuitBreaker:
    def test_repeated_pool_failures_open_the_breaker(self, chaos_seed):
        service = make_service()
        threshold = service._breakers["process"].failure_threshold
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("serve.executor.worker", "exception")  # unbounded
        baseline = service.assess_many(executor="serial")
        log = EventLog()
        with res.activate(plan, log):
            for _ in range(threshold):
                assert service.assess_many(executor="process") == baseline
            assert service._breakers["process"].state == "open"
            # next sweep skips the process pool entirely: no new fault
            # decisions at the worker site, still correct answers
            invocations_before = plan.counts()["serve.executor.worker"][
                "invocations"
            ]
            assert service.assess_many(executor="process") == baseline
            assert (
                plan.counts()["serve.executor.worker"]["invocations"]
                == invocations_before
            )
        assert any(e["event"] == "breaker_open" for e in log.events)
        assert any(e["event"] == "breaker_rejection" for e in log.events)


class TestCalibrationRecovery:
    def test_transient_calibration_fault_is_bit_identical(self, chaos_seed):
        """Injection happens before the Monte-Carlo pass consumes RNG, so
        the retried calibration reproduces the fault-free threshold."""
        baseline = make_service().assess_many(executor="serial")
        service = make_service()
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("core.calibration", "exception", max_fires=1)
        with res.activate(plan):
            chaos = service.assess_many(executor="serial")
        assert chaos == baseline
        assert not any(a.degraded for a in chaos.values())

    @staticmethod
    def _add_uncalibrated_server(service, sid="srv-new", p_good=0.5):
        """A server at the standard history length (same (m, k) bucket)
        whose p_hat lands in a rate bucket no warm run calibrated."""
        import random

        from repro.feedback.records import Feedback, Rating

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

    def test_persistent_calibration_fault_serves_stale_degraded(
        self, chaos_seed
    ):
        service = make_service()
        calibrator = service.assessor.behavior_test.calibrator
        service.assess_many(executor="serial")  # warms nearby ε buckets
        sid = self._add_uncalibrated_server(service)
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("core.calibration", "exception")  # every attempt fails
        log = EventLog()
        with res.activate(plan, log):
            chaos = service.assess_many([sid], executor="serial")
        assert calibrator.degraded_calibrations > 0
        assert chaos[sid].degraded
        assert any(
            e["event"] == "calibration_degraded" for e in log.events
        )

    def test_degraded_assessments_are_not_memoized(self, chaos_seed):
        service = make_service()
        service.assess_many(executor="serial")
        sid = self._add_uncalibrated_server(service)
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
                service.assess_many(executor="serial")
        assert excinfo.value.site == "core.calibration"
        # the per-server path (no ladder) propagates the fault itself
        with res.activate(plan):
            with pytest.raises(InjectedFault):
                service.assess(service.servers()[0])


class TestChaosDeterminism:
    """Same plan seed => identical fault sequence and obs event log."""

    def _chaos_run(self, seed: int):
        service = make_service()
        plan = FaultPlan(seed=seed)
        plan.arm("serve.executor.worker", "exception", probability=0.6)
        plan.arm("core.calibration", "exception", max_fires=1)
        log = EventLog()
        with res.activate(plan, log):
            results = service.assess_many(executor="process")
        return results, plan.log, _strip_time(log.events)

    def test_two_runs_replay_identically(self, chaos_seed):
        results_a, plan_log_a, events_a = self._chaos_run(chaos_seed)
        results_b, plan_log_b, events_b = self._chaos_run(chaos_seed)
        assert plan_log_a == plan_log_b
        assert events_a == events_b
        assert results_a == results_b

    def test_chaos_results_match_fault_free_run(self, chaos_seed):
        baseline = make_service().assess_many(executor="serial")
        results, _, _ = self._chaos_run(chaos_seed)
        assert results == baseline
