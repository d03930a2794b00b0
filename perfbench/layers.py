"""Which public callables the traced run wraps, and the per-layer metrics.

Every wrapper patches the name where the caller looks it up: a class
attribute for methods (so every instance is covered), the importing
module's global for functions imported by name.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Tuple

import repro.cluster.node as cluster_node
import repro.cluster.service as cluster_service
import repro.core.calibration as calibration
import repro.core.incremental as incremental
import repro.core.model as model
import repro.core.multi_testing as multi_testing
import repro.serve.service as serve_service
from repro.adversary.strategic import StrategicAttacker
from repro.cluster.node import ClusterNode, ShardState
from repro.cluster.partition import HashRingView
from repro.core.calibration import ThresholdCalibrator
from repro.core.multi_testing import MultiBehaviorTest
from repro.core.testing import SingleBehaviorTest
from repro.core.two_phase import TwoPhaseAssessor
from repro.feedback.ledger import FeedbackLedger
from repro.p2p.chord import ChordNode
from repro.p2p.network import SimulatedNetwork
from repro.serve import AssessmentService

from .tracing import Tracer

#: layer -> the span names whose self time is that layer's
LAYERS: Dict[str, Tuple[str, ...]] = {
    "feedback": (
        "feedback.record",
        "feedback.record_batch",
        "feedback.flush",
        "feedback.open",
        "feedback.history",
    ),
    "core": (
        "core.calibration",
        "core.vectorized",
        "core.suffix_rounds",
        "core.test",
    ),
    "trust": ("trust.value",),
    "serve": ("serve.assess_many",),
    "cluster": (
        "cluster.record_batch",
        "cluster.assess_many",
        "cluster.partition",
        "cluster.apply",
        "cluster.digest",
        "cluster.content_hash",
        "cluster.kill",
        "cluster.recover",
        "cluster.anti_entropy",
    ),
    "p2p": ("p2p.send", "p2p.handler", "p2p.stabilize"),
    "adversary": ("adversary.campaign",),
}

#: per-layer metric name, unit, and which way is better (the order
#: BENCHMARK.json lists them)
PER_LAYER: List[Tuple[str, str, str]] = [
    ("feedback.record.calls", "count", "lower"),
    ("feedback.record.self_s", "s", "lower"),
    ("feedback.record_batch.self_s", "s", "lower"),
    ("feedback.flush.self_s", "s", "lower"),
    ("feedback.open.self_s", "s", "lower"),
    ("feedback.history.calls", "count", "lower"),
    ("feedback.history.self_s", "s", "lower"),
    ("feedback.bytes_on_disk", "bytes", "lower"),
    ("feedback.bytes_per_event", "bytes", "lower"),
    ("core.calibration.calls", "count", "lower"),
    ("core.calibration.misses", "count", "lower"),
    ("core.calibration.self_s", "s", "lower"),
    ("core.vectorized.calls", "count", "lower"),
    ("core.vectorized.servers", "count", "higher"),
    ("core.vectorized.self_s", "s", "lower"),
    ("core.suffix_rounds.calls", "count", "lower"),
    ("core.suffix_rounds.self_s", "s", "lower"),
    ("core.binomial_pmf.calls", "count", "lower"),
    ("core.incremental.extend_ratio", "ratio", "higher"),
    ("core.test.calls", "count", "lower"),
    ("core.test.self_s", "s", "lower"),
    ("trust.value.self_s", "s", "lower"),
    ("serve.assess_many.calls", "count", "lower"),
    ("serve.assess_many.self_s", "s", "lower"),
    ("serve.memo_hit_ratio", "ratio", "higher"),
    ("serve.vector_seeded", "count", "higher"),
    ("cluster.record_batch.self_s", "s", "lower"),
    ("cluster.assess_many.self_s", "s", "lower"),
    ("cluster.partition.self_s", "s", "lower"),
    ("cluster.apply.calls", "count", "lower"),
    ("cluster.apply.events_applied", "count", "lower"),
    ("cluster.apply.useful_ratio", "ratio", "higher"),
    ("cluster.apply.self_s", "s", "lower"),
    ("cluster.digest.calls", "count", "lower"),
    ("cluster.digest.self_s", "s", "lower"),
    ("cluster.content_hash.self_s", "s", "lower"),
    ("cluster.replica_assessments_per_verdict", "ratio", "lower"),
    ("cluster.read_repairs", "count", "lower"),
    ("cluster.hints_stored", "count", "lower"),
    ("cluster.hints_replayed", "count", "lower"),
    ("cluster.anti_entropy_diverged", "count", "lower"),
    ("cluster.recover.self_s", "s", "lower"),
    ("cluster.anti_entropy.self_s", "s", "lower"),
    ("cluster.recovery_s", "s", "lower"),
    ("p2p.messages", "count", "lower"),
    ("p2p.messages.cluster_record", "count", "lower"),
    ("p2p.messages.cluster_assess", "count", "lower"),
    ("p2p.messages.cluster_pull", "count", "lower"),
    ("p2p.messages.cluster_reset", "count", "lower"),
    ("p2p.messages.cluster_merkle", "count", "lower"),
    ("p2p.messages.cluster_hint_store", "count", "lower"),
    ("p2p.messages.cluster_hint_replay", "count", "lower"),
    ("p2p.messages.overlay", "count", "lower"),
    ("p2p.retries", "count", "lower"),
    ("p2p.drops", "count", "lower"),
    ("p2p.send.self_s", "s", "lower"),
    ("p2p.handler.self_s", "s", "lower"),
    ("p2p.stabilize.self_s", "s", "lower"),
    ("adversary.steps", "count", "lower"),
    ("adversary.campaign.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: layer prefixes predicted to do no work outside the named workload
PREDICTED_IDLE = {
    "cluster.": "cluster_quorum",
    "p2p.": "cluster_quorum",
    "adversary.": "attack_campaigns",
}


def _keep(kind: str):
    """Post hook for ``__init__``: remember every instance built."""

    def post(tracer: Tracer, args, kwargs, result) -> None:
        tracer.seen[kind].append(args[0])

    return post


def _vectorized_post(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["core.vectorized.servers"] += len(args[0])


def _serve_assess_post(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["serve.assessed"] += len(result)


def _cluster_assess_post(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["cluster.verdicts"] += len(result)


def _apply_post(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counters["cluster.apply.delivered"] += len(args[1])
    tracer.counters["cluster.apply.events_applied"] += result


def _register(tracer: Tracer):
    """``SimulatedNetwork.register`` that times every node's handler."""
    original = SimulatedNetwork.register

    def register(self, node_id, handler):
        return original(self, node_id, tracer.wrapped(handler, "p2p.handler"))

    return register


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    w = tracer.wrap
    w(FeedbackLedger, "record", "feedback.record")
    w(FeedbackLedger, "record_batch", "feedback.record_batch")
    w(FeedbackLedger, "flush", "feedback.flush")
    w(FeedbackLedger, "history", "feedback.history")
    w(
        FeedbackLedger,
        "__init__",
        "feedback.open",
        when=lambda args, kwargs: kwargs.get("backend") == "mmap",
    )
    tracer.observe(ThresholdCalibrator, "__init__", _keep("calibrators"))
    w(ThresholdCalibrator, "threshold", "core.calibration")
    w(serve_service, "fold_cold_batch", "core.vectorized", post=_vectorized_post)
    w(incremental, "run_suffix_rounds", "core.suffix_rounds")
    w(multi_testing, "run_suffix_rounds", "core.suffix_rounds")
    for module in (multi_testing, calibration, model):
        tracer.count(module, "binomial_pmf", "core.binomial_pmf.calls")
    w(SingleBehaviorTest, "test", "core.test")
    w(MultiBehaviorTest, "test", "core.test")
    w(TwoPhaseAssessor, "trust_value", "trust.value")
    tracer.observe(AssessmentService, "__init__", _keep("services"))
    w(AssessmentService, "assess_many", "serve.assess_many", post=_serve_assess_post)
    w(cluster_service.ClusterAssessmentService, "record_batch", "cluster.record_batch")
    w(
        cluster_service.ClusterAssessmentService,
        "assess_many",
        "cluster.assess_many",
        post=_cluster_assess_post,
    )
    w(cluster_service.ClusterAssessmentService, "kill", "cluster.kill")
    w(cluster_service.ClusterAssessmentService, "recover", "cluster.recover")
    w(cluster_service.ClusterAssessmentService, "anti_entropy", "cluster.anti_entropy")
    w(HashRingView, "partition", "cluster.partition")
    w(ClusterNode, "apply_events", "cluster.apply", post=_apply_post)
    w(cluster_node, "event_digest", "cluster.digest")
    w(cluster_service, "event_digest", "cluster.digest")
    w(ShardState, "applied", "cluster.content_hash")
    w(SimulatedNetwork, "send", "p2p.send")
    tracer.patch(SimulatedNetwork, "register", _register(tracer))
    w(ChordNode, "stabilize", "p2p.stabilize")
    w(ChordNode, "fix_fingers", "p2p.stabilize")
    w(StrategicAttacker, "run", "adversary.campaign")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def stop(tracer: Tracer) -> None:
    """Remove the wrappers and read the counters of every service and
    calibrator the traced run built, before output checks add to them."""
    tracer.uninstall()
    c = tracer.counters
    for service in tracer.seen["services"]:
        stats = service.stats()
        c["count_extensions"] += stats["count_extensions"]
        c["count_recomputes"] += stats["count_recomputes"]
        c["assessment_cache_hits"] += stats["assessment_cache_hits"]
        c["assessments"] += stats["assessments"]
        c["vector_seeded"] += service.n_vector_seeded
    c["core.calibration.misses"] = sum(
        calibrator.cache_stats[1] for calibrator in tracer.seen["calibrators"]
    )


def per_layer_metrics(tracer: Tracer, counts: Counter) -> Dict[str, float]:
    """Every per-layer metric, from spans, the counters :func:`stop`
    read, and the counts the workload took from public stats."""
    c = tracer.counters
    ext, rec = c["count_extensions"], c["count_recomputes"]
    hits, fresh = c["assessment_cache_hits"], c["assessments"]
    values: Dict[str, float] = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".calls") and not name.startswith("core.binomial"):
            values[name] = tracer.calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = tracer.self_s.get(name[: -len(".self_s")], 0.0)
    values.update(
        {
            "feedback.bytes_on_disk": counts["bytes_on_disk"],
            "feedback.bytes_per_event": _ratio(counts["bytes_on_disk"], counts["events_on_disk"]),
            "core.calibration.misses": c["core.calibration.misses"],
            "core.vectorized.servers": c["core.vectorized.servers"],
            "core.binomial_pmf.calls": c["core.binomial_pmf.calls"],
            "core.incremental.extend_ratio": _ratio(ext, ext + rec),
            "serve.memo_hit_ratio": _ratio(hits, hits + fresh),
            "serve.vector_seeded": c["vector_seeded"],
            "cluster.apply.events_applied": c["cluster.apply.events_applied"],
            "cluster.apply.useful_ratio": _ratio(
                c["cluster.apply.events_applied"], c["cluster.apply.delivered"]
            ),
            "cluster.replica_assessments_per_verdict": _ratio(
                # every service assessment inside a cluster run is a
                # replica answering a quorum read
                c["serve.assessed"] if c["cluster.verdicts"] else 0,
                c["cluster.verdicts"],
            ),
            "cluster.read_repairs": counts["read_repairs"],
            "cluster.hints_stored": counts["hints_stored"],
            "cluster.hints_replayed": counts["hints_replayed"],
            "cluster.anti_entropy_diverged": counts["anti_entropy_diverged"],
            "cluster.recovery_s": _ratio(counts["recovery_s"], counts["recoveries"]),
            "adversary.steps": counts["adversary.steps"],
            "trace.spans": tracer.n_spans,
        }
    )
    for name, _, _ in PER_LAYER:
        if name.startswith("p2p.") and name[4:].startswith(("messages", "retries", "drops")):
            values[name] = counts[name]
    return values


def layer_self_times(tracer: Tracer) -> Dict[str, float]:
    return {
        layer: sum(tracer.self_s.get(span, 0.0) for span in spans)
        for layer, spans in LAYERS.items()
    }


def idle_violations(workload: str, values: Dict[str, float]) -> List[str]:
    """Per-layer metrics that should read zero on this workload but do not."""
    return [
        name
        for name, value in values.items()
        for prefix, home in PREDICTED_IDLE.items()
        if name.startswith(prefix) and home != workload and value
    ]
