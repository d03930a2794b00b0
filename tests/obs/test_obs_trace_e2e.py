"""End-to-end causal tracing across serve → resilience → p2p → audit.

The acceptance scenario for the tracing layer: ``assess_many`` requests
driven through the process executor, healthy and under injected faults,
plus a p2p round trip, must leave a span log where a **single trace_id**
links

* the request root span (``serve.assess_many``),
* the executor worker spans (``serve.executor.shard``, written by the
  pool processes),
* the retry / breaker / degradation span events the resilience funnel
  annotated along the way,
* the network hop (``p2p.network.deliver``) and its retry, and
* every :class:`AuditRecord` the request produced —

and ``repro obs trace`` renders that log as one coherent tree.
"""

from __future__ import annotations

import random

from repro import obs
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


def _make_service(n_servers=6, n_feedbacks=40, max_workers=1):
    # one worker reproduces the serial calibration order exactly
    service = AssessmentService(config=CONFIG, max_workers=max_workers)
    stream = random.Random(1234)
    t = 0.0
    for s in range(n_servers):
        sid = f"srv-{s:02d}"
        service.add_server(sid)
        p_good = 0.95 - 0.05 * s
        for i in range(n_feedbacks):
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
        baseline = _make_service().assess_many(executor="serial")
        service = _make_service()

        plan = FaultPlan(seed=0)
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
                        # a healthy sweep: the pool worker's shard span
                        # joins the trace through the serialized headers
                        service.assess_many(executor="process")
                        # both retry attempts of the process step fault:
                        # the request retries, exhausts, and degrades
                        # down the ladder to serial
                        plan.arm(
                            "serve.executor.worker", "exception", max_fires=2
                        )
                        chaos = service.assess_many(executor="process")
                        for _ in range(2):  # failures 2 and 3 open the breaker
                            plan.arm(
                                "serve.executor.worker",
                                "exception",
                                max_fires=2,
                            )
                            service.assess_many(executor="process")
                        service.assess_many(executor="process")  # breaker rejects
                        with obs.span("client.trust_query"):
                            reply = network.send_reliable(
                                "peer-1", "trust_query", {"server": "srv-00"}
                            )

        # the chaos run still answers bit-identically: the serial step
        # calibrates in the same order as the fault-free baseline
        assert chaos == baseline
        assert not any(a.degraded for a in chaos.values())
        assert reply == {"echo": {"server": "srv-00"}}
        assert network.stats.retries >= 1
        assert service.n_degradations == 4

        spans = read_span_jsonl(spans_path)
        # single trace: every span the request produced shares one id
        assert trace_ids(spans) == [root.trace_id]

        names = {span["name"] for span in spans}
        assert "request.e2e" in names
        assert "serve.assess_many" in names
        assert "serve.executor.shard" in names  # pool worker spans
        assert "p2p.network.deliver" in names  # the network hop

        # resilience ladder milestones surfaced as span events
        assert _span_events(spans, "retry"), "retry attempts annotated"
        assert _span_events(spans, "executor_degraded")
        assert _span_events(spans, "breaker_open")
        assert _span_events(spans, "breaker_rejection")
        assert _span_events(spans, "p2p.retry")

        # structured events carry the same trace id
        degraded = [
            e for e in event_log.events if e["event"] == "executor_degraded"
        ]
        assert len(degraded) == 4
        assert all(e["trace_id"] == root.trace_id for e in degraded)

        # every audit record the request produced is linked to the trace
        assert trail.records, "fresh assessments must leave audit records"
        assert all(r["trace_id"] == root.trace_id for r in trail.records)

        # the library tree renderer reassembles one rooted tree...
        tree = render_trace_tree(spans, root.trace_id)
        assert tree.splitlines()[0].startswith(f"trace {root.trace_id}")
        assert "serve.assess_many" in tree
        assert "serve.executor.shard" in tree
        assert "p2p.network.deliver" in tree

        # ...and so does the CLI, from a unique trace-id prefix
        assert main(["obs", "trace", str(spans_path), root.trace_id[:12]]) == 0
        out = capsys.readouterr().out
        assert "request.e2e" in out
        assert "executor_degraded" in out

    def test_worker_spans_parent_under_the_request(self, tmp_path):
        """Shard spans written by pool workers slot under assess_many."""
        service = _make_service(max_workers=2)
        spans_path = tmp_path / "spans.jsonl"
        root = trace_ctx.new_root()
        with obs.activate(), tracing_session(spans_path):
            with trace_ctx.use(root):
                service.assess_many(executor="process")
        spans = read_span_jsonl(spans_path)
        by_id = {s["span_id"]: s for s in spans}
        shards = [s for s in spans if s["name"] == "serve.executor.shard"]
        assert sorted(s["labels"]["shard"] for s in shards) == ["0", "1"]
        for shard in shards:
            parent = by_id[shard["parent_span_id"]]
            assert parent["name"] == "serve.assess_many"
            assert shard["trace_id"] == root.trace_id

    def test_process_worker_spans_cross_the_boundary(self, tmp_path):
        """Pool *processes* append shard spans to the shared JSONL sink,
        linked to the request trace via serialized headers."""
        import os as _os

        service = _make_service()
        spans_path = tmp_path / "spans.jsonl"
        root = trace_ctx.new_root()
        with obs.activate(), tracing_session(spans_path):
            with trace_ctx.use(root):
                service.assess_many(executor="process")
        spans = read_span_jsonl(spans_path)
        shards = [s for s in spans if s["name"] == "serve.executor.shard"]
        assert shards
        assert {s["labels"]["executor"] for s in shards} == {"process"}
        assert all(s["trace_id"] == root.trace_id for s in shards)
        assert all(s["pid"] != _os.getpid() for s in shards)
        # parented under the request's assess_many span
        request = next(s for s in spans if s["name"] == "serve.assess_many")
        assert {s["parent_span_id"] for s in shards} == {request["span_id"]}
