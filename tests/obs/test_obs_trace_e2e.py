"""End-to-end causal tracing across serve → resilience → p2p → cluster → audit.

The acceptance scenario for the tracing layer: ``assess_many`` requests,
healthy and under injected faults, plus a p2p round trip and cluster
writes to a dead peer, must leave a span log where a **single
trace_id** links

* the request root span (``serve.assess_many``),
* the retry / degradation / breaker span events the resilience funnel
  annotated along the way,
* the network hop (``p2p.network.deliver``) and its retry, and
* every :class:`AuditRecord` the request produced —

and ``repro obs trace`` renders that log as one coherent tree.
"""

from __future__ import annotations

import random

from repro import obs
from repro.cluster import ClusterAssessmentService
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.feedback.records import Feedback, Rating
from repro.main import main
from repro.obs import context as trace_ctx
from repro.obs.audit import audit_session
from repro.obs.context import read_span_jsonl, tracing_session
from repro.obs.events import EventLog
from repro.obs.export import render_trace_tree, trace_ids
from repro.p2p.network import SimulatedNetwork
from repro.resilience import FaultPlan
from repro.resilience import runtime as res
from repro.serve import AssessmentService

CONFIG = AssessorConfig(
    trust_function="average",
    behavior_test="single",
    trust_threshold=0.7,
    test_config=BehaviorTestConfig(
        window_size=8, min_windows=2, calibration_sets=50
    ),
)


def _observe(service, sid, p_good, stream, t, n_feedbacks=40):
    service.add_server(sid)
    for i in range(n_feedbacks):
        t += 1.0
        service.observe(
            Feedback(
                time=t,
                server=sid,
                client=f"cli-{i % 5}",
                rating=(
                    Rating.POSITIVE if stream.random() < p_good else Rating.NEGATIVE
                ),
            )
        )
    return t


def _make_service(n_servers=6):
    service = AssessmentService(config=CONFIG)
    stream = random.Random(1234)
    t = 0.0
    for s in range(n_servers):
        t = _observe(service, f"srv-{s:02d}", 0.95 - 0.05 * s, stream, t)
    return service


def _span_events(spans, name):
    return [
        event
        for span in spans
        for event in span.get("events") or []
        if event.get("name") == name
    ]


class TestEndToEndTrace:
    def test_one_trace_links_the_whole_request_path(self, tmp_path, capsys):
        baseline = _make_service().assess_many()
        service = _make_service()
        cluster = ClusterAssessmentService(CONFIG, n_nodes=4)
        dead = cluster.members[0]
        cluster.kill(dead)

        plan = FaultPlan(seed=0)
        # the first calibration attempt fails: the calibrator retries
        plan.arm("core.calibration", "exception", max_fires=1)
        # the first network send is forcibly lost: send_reliable retries
        plan.arm("p2p.network.send", "crash", max_fires=1)

        network = SimulatedNetwork()
        network.register("peer-1", lambda mtype, payload: {"echo": payload})

        spans_path = tmp_path / "spans.jsonl"
        event_log = EventLog()
        root = trace_ctx.new_root(op="e2e")
        with obs.activate(), tracing_session(spans_path):
            with audit_session() as trail, res.activate(plan, event_log):
                with trace_ctx.use(root):
                    with obs.span("request.e2e"):
                        chaos = service.assess_many()
                        # a rate bucket no sweep calibrated, while every
                        # calibration attempt fails: served off a stale
                        # threshold and flagged degraded
                        plan.arm("core.calibration", "exception")
                        _observe(service, "srv-new", 0.5, random.Random(77), 1e4)
                        stale = service.assess_many(["srv-new"])
                        with obs.span("client.trust_query"):
                            reply = network.send_reliable(
                                "peer-1", "trust_query", {"server": "srv-00"}
                            )
                        # writes to the dead peer fail until its breaker
                        # opens; later writes skip it
                        for i in range(4):
                            cluster.record_batch(
                                Feedback(
                                    time=float(i * 8 + s),
                                    server=f"srv-{s:02d}",
                                    client="cli-0",
                                    rating=Rating.POSITIVE,
                                )
                                for s in range(8)
                            )

        # the transient fault was retried before the Monte-Carlo pass
        # drew, so the sweep answers bit-identically
        assert chaos == baseline
        assert not any(a.degraded for a in chaos.values())
        assert stale["srv-new"].degraded
        assert reply == {"echo": {"server": "srv-00"}}
        assert network.stats.retries >= 1
        assert cluster._breakers[dead].state == "open"

        spans = read_span_jsonl(spans_path)
        # single trace: every span the request produced shares one id
        assert trace_ids(spans) == [root.trace_id]

        names = {span["name"] for span in spans}
        assert "request.e2e" in names
        assert "serve.assess_many" in names
        assert "cluster.record_batch" in names
        assert "p2p.network.deliver" in names  # the network hop

        # resilience milestones surfaced as span events
        assert _span_events(spans, "retry"), "retry attempts annotated"
        assert _span_events(spans, "calibration_degraded")
        assert _span_events(spans, "breaker_open")
        assert _span_events(spans, "cluster_rpc_failed")
        assert _span_events(spans, "p2p.retry")

        # structured events carry the same trace id
        degraded = [
            e for e in event_log.events if e["event"] == "calibration_degraded"
        ]
        assert degraded
        assert all(e["trace_id"] == root.trace_id for e in degraded)

        # every audit record the request produced is linked to the trace
        assert trail.records, "fresh assessments must leave audit records"
        assert all(r["trace_id"] == root.trace_id for r in trail.records)

        # the library tree renderer reassembles one rooted tree...
        tree = render_trace_tree(spans, root.trace_id)
        assert tree.splitlines()[0].startswith(f"trace {root.trace_id}")
        assert "serve.assess_many" in tree
        assert "cluster.record_batch" in tree
        assert "p2p.network.deliver" in tree

        # ...and so does the CLI, from a unique trace-id prefix
        assert main(["obs", "trace", str(spans_path), root.trace_id[:12]]) == 0
        out = capsys.readouterr().out
        assert "request.e2e" in out
        assert "calibration_degraded" in out
