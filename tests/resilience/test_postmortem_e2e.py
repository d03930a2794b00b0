"""Acceptance: an exhausted ladder under chaos leaves a post-mortem.

The flight recorder's reason to exist: when a
:class:`~repro.resilience.faults.ResilienceError` escapes the serving
ladder, a bundle lands on disk holding the dying request's trace tail,
the degradation events, and the scraped metric history — every span and
event stamped with the one trace_id of the request that died, so the
post-mortem reads as a single causal story.

Bundles are written to ``$REPRO_POSTMORTEM_DIR`` when set (CI exports it
and uploads the directory as an artifact on failure) and to pytest's
``tmp_path`` otherwise.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro import obs
from repro.main import main
from repro.obs import context as trace_ctx
from repro.obs.events import EventLog
from repro.obs.flightrec import flight_recording
from repro.obs.tsdb import MetricsScraper, scraping_session
from repro.resilience import FaultPlan, InjectedFault, ResilienceError
from repro.resilience import runtime as res

from .conftest import make_service


@pytest.fixture()
def postmortem_dir(tmp_path) -> Path:
    configured = os.environ.get("REPRO_POSTMORTEM_DIR")
    if configured:
        path = Path(configured)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path


def _crash_run(postmortem_dir, chaos_seed, monkeypatch):
    """A degraded sweep, then a sweep whose every ladder step fails."""
    service = make_service()
    plan = FaultPlan(seed=chaos_seed)
    # two fires exhaust the process step's retries: the sweep degrades to
    # serial for real, emitting a trace-stamped executor_degraded
    plan.arm("serve.executor.worker", "exception", max_fires=2)
    log = EventLog()
    root = trace_ctx.new_root(test="postmortem_e2e")
    with obs.activate():
        scraper = MetricsScraper(obs.get_registry(), interval_s=0.001)
        with scraping_session(scraper), flight_recording(
            postmortem_dir, scraper=scraper, min_dump_interval_s=0.0
        ) as recorder:
            with res.activate(plan, log), trace_ctx.use(root):
                # healthy traffic first: spans, metrics, scrapes
                for _ in range(2):
                    service.assess_many(executor="serial")
                # the degraded-but-served sweep
                service.assess_many(executor="process")
                assert service.n_degradations == 1
                fault = InjectedFault("serve.executor.worker", "exception", 0)

                def _always_failing(step, ids):
                    raise fault

                monkeypatch.setattr(service, "_run_step", _always_failing)
                with pytest.raises(ResilienceError) as excinfo:
                    service.assess_many(executor="process")
    return recorder, root, excinfo.value


class TestPostmortemEndToEnd:
    def test_escaping_resilience_error_dumps_a_coherent_bundle(
        self, postmortem_dir, chaos_seed, monkeypatch, capsys
    ):
        recorder, root, error = _crash_run(
            postmortem_dir, chaos_seed, monkeypatch
        )
        assert error.site == "serve.executor.worker"
        assert recorder.dumps, "an escaping ResilienceError must dump"
        path = recorder.dumps[-1]
        assert "resilience_error" in path.name
        assert path.parent == postmortem_dir

        bundle = obs.read_postmortem(path)  # schema-validates
        assert bundle["reason"] == "resilience_error"
        assert bundle["info"]["site"] == "serve.executor.worker"

        # the trace tail: every recorded span belongs to the request's
        # trace — the bundle tells one causal story
        spans = bundle["spans"]
        assert spans
        assert {s["trace_id"] for s in spans} == {root.trace_id}
        assert any(s["name"] == "serve.assess_many" for s in spans)

        # the degradation events carry the same trace_id
        degraded = [
            e for e in bundle["events"] if e["event"] == "executor_degraded"
        ]
        assert degraded
        assert all(e["trace_id"] == root.trace_id for e in degraded)

        # the scraped series history made it in
        assert bundle["series"]
        assert any(name.startswith("serve.") for name in bundle["series"])

        # the armed fault plan is in the bundle, seed and all
        assert bundle["fault_plan"]["seed"] == chaos_seed
        assert "serve.executor.worker" in bundle["fault_plan"]["specs"]

        # and `repro obs postmortem` renders every section of it
        assert main(["obs", "postmortem", str(path)]) == 0
        out = capsys.readouterr().out
        assert "post-mortem: resilience_error" in out
        assert "serve.assess_many" in out
        assert "executor_degraded" in out
        assert "series tails" in out
        assert f"active fault plan (seed {chaos_seed})" in out

    def test_breaker_open_under_chaos_triggers_a_dump(
        self, postmortem_dir, chaos_seed
    ):
        service = make_service()
        threshold = service._breakers["process"].failure_threshold
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("serve.executor.worker", "exception")
        log = EventLog()
        with obs.activate(), flight_recording(
            postmortem_dir, min_dump_interval_s=0.0
        ) as recorder:
            with res.activate(plan, log):
                for _ in range(threshold):
                    service.assess_many(executor="process")
        assert service._breakers["process"].state == "open"
        assert any("breaker_open" in p.name for p in recorder.dumps)
        bundle = obs.read_postmortem(
            next(p for p in recorder.dumps if "breaker_open" in p.name)
        )
        assert bundle["info"]["trigger_event"]["event"] == "breaker_open"
