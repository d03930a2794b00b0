"""Acceptance: a fault no recovery path absorbs leaves a post-mortem.

The flight recorder's reason to exist: when a
:class:`~repro.resilience.faults.ResilienceError` escapes a serving
sweep, a bundle lands on disk holding the dying request's trace tail,
and the degradation events — every span and event stamped with the one trace_id of the request that died, so the
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
from repro.cluster import ClusterAssessmentService
from repro.feedback.records import Feedback, Rating
from repro.main import main
from repro.obs import context as trace_ctx
from repro.obs.events import EventLog
from repro.obs.flightrec import flight_recording
from repro.resilience import FaultPlan, ResilienceError
from repro.resilience import runtime as res

from .conftest import CHAOS_CONFIG, add_uncalibrated_server, make_service


@pytest.fixture()
def postmortem_dir(tmp_path) -> Path:
    configured = os.environ.get("REPRO_POSTMORTEM_DIR")
    if configured:
        path = Path(configured)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return tmp_path


def _crash_run(postmortem_dir, chaos_seed):
    """Healthy sweeps, a degraded-but-served sweep, then a sweep whose
    calibration fault has no stale threshold to fall back on."""
    service = make_service()
    plan = FaultPlan(seed=chaos_seed)
    plan.arm("core.calibration", "exception")  # every attempt fails
    log = EventLog()
    root = trace_ctx.new_root(test="postmortem_e2e")
    with obs.activate():
        with flight_recording(postmortem_dir, min_dump_interval_s=0.0) as recorder:
            with trace_ctx.use(root):
                # healthy traffic first: spans and metrics
                for _ in range(2):
                    service.assess_many()
                with res.activate(plan, log):
                    # served off a stale threshold, emitting a
                    # trace-stamped calibration_degraded
                    stale = add_uncalibrated_server(service)
                    assert service.assess_many([stale])[stale].degraded
                    # a new history length: nothing stale to serve
                    cold = add_uncalibrated_server(
                        service, sid="srv-long", n_feedbacks=80
                    )
                    with pytest.raises(ResilienceError) as excinfo:
                        service.assess_many([cold])
    return recorder, root, excinfo.value


class TestPostmortemEndToEnd:
    def test_escaping_resilience_error_dumps_a_coherent_bundle(
        self, postmortem_dir, chaos_seed, capsys
    ):
        recorder, root, error = _crash_run(postmortem_dir, chaos_seed)
        assert error.site == "core.calibration"
        assert recorder.dumps, "an escaping ResilienceError must dump"
        path = recorder.dumps[-1]
        assert "resilience_error" in path.name
        assert path.parent == postmortem_dir

        bundle = obs.read_postmortem(path)  # schema-validates
        assert bundle["postmortem"] == 2
        assert bundle["reason"] == "resilience_error"
        assert bundle["info"]["site"] == "core.calibration"

        # the trace tail: every recorded span belongs to the request's
        # trace — the bundle tells one causal story
        spans = bundle["spans"]
        assert spans
        assert {s["trace_id"] for s in spans} == {root.trace_id}
        assert any(s["name"] == "serve.assess_many" for s in spans)

        # the degradation events carry the same trace_id
        degraded = [
            e for e in bundle["events"] if e["event"] == "calibration_degraded"
        ]
        assert degraded
        assert all(e["trace_id"] == root.trace_id for e in degraded)

        # schema 2 carries no metric history
        assert "series" not in bundle

        # the armed fault plan is in the bundle, seed and all
        assert bundle["fault_plan"]["seed"] == chaos_seed
        assert "core.calibration" in bundle["fault_plan"]["specs"]

        # and `repro obs report` renders every section of it
        assert main(["obs", "report", str(path)]) == 0
        out = capsys.readouterr().out
        assert "post-mortem: resilience_error" in out
        assert f"trace tail: {len(spans)} span(s), 1 trace(s)" in out
        assert "serve.assess_many" in out
        assert "events (last" in out
        assert "calibration_degraded" in out
        assert f"active fault plan (seed {chaos_seed})" in out

    def test_breaker_open_under_chaos_triggers_a_dump(
        self, postmortem_dir, chaos_seed
    ):
        """A cluster peer dies mid-request; its breaker opens after
        repeated failed writes, and that flip alone dumps a bundle."""
        cluster = ClusterAssessmentService(CHAOS_CONFIG, n_nodes=4)
        plan = FaultPlan(seed=chaos_seed)
        plan.arm("p2p.network.kill", "crash", max_fires=1)
        t = 0.0
        with obs.activate(), flight_recording(
            postmortem_dir, min_dump_interval_s=0.0
        ) as recorder:
            with res.activate(plan):
                for _ in range(4):
                    batch = []
                    for s in range(8):
                        t += 1.0
                        batch.append(
                            Feedback(
                                time=t,
                                server=f"srv-{s:02d}",
                                client="cli-0",
                                rating=Rating.POSITIVE,
                            )
                        )
                    cluster.record_batch(batch)
        assert any(
            b.state == "open" for b in cluster._breakers.values()
        )
        assert any("breaker_open" in p.name for p in recorder.dumps)
        bundle = obs.read_postmortem(
            next(p for p in recorder.dumps if "breaker_open" in p.name)
        )
        assert bundle["info"]["trigger_event"]["event"] == "breaker_open"
