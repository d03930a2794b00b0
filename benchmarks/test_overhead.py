"""Overhead guards for the observability and resilience layers.

Each layer's guard runs one workload with the layer off and on and
asserts the ratio of the two minima stays inside the layer's budget:

==========  ====================================================  ======
layer       switched on for the second run                        budget
==========  ====================================================  ======
trace       root context + span sink on every span                <10%
scope       Chord lookups inside ``node_scope``                   <5%
resilience  an activated-but-empty ``FaultPlan`` on a serve sweep <5%
==========  ====================================================  ======

Next to the ratios sit the per-layer cost pins (untraced span cost,
retry-wrapper cost) and the checks that disabled paths allocate or
record nothing.  Select one layer with ``-k``::

    PYTHONPATH=src python -m pytest benchmarks/test_overhead.py -k scope

Timing assertions live here rather than in ``tests/`` (tier-1) because
they are load-sensitive; both sides are measured as a min-of-repeats so
scheduler noise cancels out of the comparison.  The trace and scope
workloads take 1-13 ms a run, too short for one run to resolve a 5-10%
budget on a small shared host, so each of their samples alternates the
two sides run by run until each has ``SAMPLE_S`` of work, and the
comparison is the median of the samples' ratios
(:func:`_paired_samples`).
"""

from __future__ import annotations

import math
import random
import time
import tracemalloc

import pytest

from repro import obs
from repro.core.config import AssessorConfig, BehaviorTestConfig
from repro.core.model import generate_honest_outcomes
from repro.core.multi_testing import MultiBehaviorTest
from repro.experiments.common import make_shared_calibrator
from repro.feedback.records import Feedback, Rating
from repro.obs import context as trace_ctx
from repro.obs import runtime, scope
from repro.p2p.chord import ChordRing
from repro.p2p.network import SimulatedNetwork
from repro.resilience import FaultPlan
from repro.resilience import runtime as res
from repro.serve import AssessmentService

REPEATS = 15
#: least work per side in one sample of the trace and scope cases
SAMPLE_S = 0.2

MULTI_CONFIG = BehaviorTestConfig(multi_step=1000)
MULTI_CALIBRATOR = make_shared_calibrator(MULTI_CONFIG)
HISTORY = 100_000

N_NODES = 32
LOOKUPS = 200

SERVE_REPEATS = 11
N_SERVERS = 150
N_FEEDBACKS = 60
SERVE_CONFIG = AssessorConfig(
    trust_function="average",
    behavior_test="single",
    trust_threshold=0.7,
    test_config=BehaviorTestConfig(
        window_size=10, min_windows=2, calibration_sets=100
    ),
)


def _min_of(fn, repeats=REPEATS):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _paired_samples(baseline, enabled):
    """Per-run time of each side in the sample with the median ratio.

    A sample alternates one ``baseline`` and one ``enabled`` run back to
    back until each side has ``SAMPLE_S`` of work, timing each run, so
    load that shifts during the measurement lands on both sides alike.
    The two sides are compared within each of ``REPEATS`` samples and
    the median sample is returned: a minimum taken on each side apart
    can pair one side's luckiest sample with the other's ordinary one.
    """
    runs = max(1, math.ceil(SAMPLE_S / _min_of(baseline, 3)))
    samples = []
    for _ in range(REPEATS):
        base = on = 0.0
        for _ in range(runs):
            start = time.perf_counter()
            baseline()
            middle = time.perf_counter()
            enabled()
            on += time.perf_counter() - middle
            base += middle - start
        samples.append((base / runs, on / runs))
    samples.sort(key=lambda sample: sample[1] / sample[0])
    return samples[len(samples) // 2]


def _multi_test_run(span_name):
    """One fig9-smoke-like measurement (an optimized multi test) in a span."""
    test_ = MultiBehaviorTest(
        MULTI_CONFIG, MULTI_CALIBRATOR, strategy="optimized", collect_all=True
    )
    outcomes = generate_honest_outcomes(HISTORY, 0.95, seed=2008)
    test_.test(outcomes)  # warm the threshold cache

    def run():
        with runtime.span(span_name):
            test_.test(outcomes)

    return run


def _build_ring(seed=2008):
    ring = ChordRing(network=SimulatedNetwork(seed=seed), seed=seed)
    for i in range(N_NODES):
        ring.add_node(f"node-{i}")
    return ring


def _serve_service() -> AssessmentService:
    service = AssessmentService(config=SERVE_CONFIG)
    stream = random.Random(2024)
    t = 0.0
    for s in range(N_SERVERS):
        sid = f"srv-{s:04d}"
        service.add_server(sid)
        p_good = 0.95 - 0.3 * (s % 5) / 5
        for _ in range(N_FEEDBACKS):
            t += 1.0
            service.observe(
                Feedback(
                    time=t,
                    server=sid,
                    client=f"cli-{s % 7}",
                    rating=(
                        Rating.POSITIVE
                        if stream.random() < p_good
                        else Rating.NEGATIVE
                    ),
                )
            )
    return service


def _serve_sweep(service):
    def sweep():
        # invalidate the whole-assessment memo so every repeat walks the
        # instrumented path instead of returning cached Assessments
        for sid in service.servers():
            service.invalidate(sid)
        service.assess_many()

    return sweep


# ---------------------------------------------------------------------- #
# layer on vs off: each case returns (baseline_s, enabled_s)


def _trace_case(tmp_path):
    run = _multi_test_run("bench.trace_overhead")
    root = trace_ctx.new_root(bench="trace_overhead")
    spans_path = tmp_path / "spans.jsonl"

    def traced_run():
        with trace_ctx.use(root):
            run()

    with obs.activate(), trace_ctx.tracing_session(spans_path):
        # with no context attached the installed sink writes nothing
        baseline, traced = _paired_samples(run, traced_run)
    # the traced run really did trace: one line per span per repeat
    spans = trace_ctx.read_span_jsonl(spans_path)
    assert len(spans) >= REPEATS
    assert len({s["trace_id"] for s in spans}) == 1
    return baseline, traced


def _scope_case(tmp_path):
    ring = _build_ring()
    node = ring.nodes["node-0"]

    def unscoped():
        for i in range(LOOKUPS):
            node.find_successor(i * 7919 % (1 << ring._m))

    def scoped():
        with scope.node_scope("bench-node"):
            unscoped()

    with obs.activate():
        unscoped()  # warm caches and metric families on both sides
        scoped()
        base, overhead = _paired_samples(unscoped, scoped)
    scope.reset()
    return base, overhead


def _resilience_case(tmp_path):
    sweep = _serve_sweep(_serve_service())
    sweep()  # warm calibration thresholds outside the window
    assert res.armed is False
    # an activated plan with nothing armed pays the plan.decide dict-miss
    # per site, which bounds the armed bookkeeping from above; the
    # disarmed path (one module-attribute read per site) is cheaper.
    # One sweep of each side per repeat, so load that shifts during the
    # measurement lands on both sides of the ratio.
    empty_plan = FaultPlan(seed=0)
    disarmed = armed_empty = float("inf")
    for _ in range(SERVE_REPEATS):
        disarmed = min(disarmed, _min_of(sweep, 1))
        with res.activate(empty_plan):
            assert res.armed is True
            armed_empty = min(armed_empty, _min_of(sweep, 1))
    assert res.armed is False
    assert empty_plan.log == []  # nothing armed => nothing decided
    return disarmed, armed_empty


CASES = {
    "trace": (_trace_case, 1.10),
    "scope": (_scope_case, 1.05),
    "resilience": (_resilience_case, 1.05),
}


@pytest.mark.parametrize("layer", list(CASES))
def test_enabled_overhead_within_budget(layer, tmp_path):
    case, budget = CASES[layer]
    baseline, enabled = case(tmp_path)
    ratio = enabled / baseline
    assert ratio < budget, (
        f"{layer} overhead {100 * (ratio - 1):.1f}% over the "
        f"{100 * (budget - 1):.0f}% budget "
        f"(baseline {baseline * 1e3:.3f}ms, enabled {enabled * 1e3:.3f}ms)"
    )


# ---------------------------------------------------------------------- #
# per-layer cost pins and disabled paths


def test_trace_untraced_span_cost():
    """Without a context or sink, span cost is one contextvar read.

    A sanity bound, generous against CI noise: tens of µs per span
    would indicate an accidental serialization on the untraced path.
    """

    def burst(n):
        for _ in range(n):
            with runtime.span("hot.loop"):
                pass

    with obs.activate():
        burst(1_000)  # warm
        untraced = _min_of(lambda: burst(5_000), repeats=7)
    per_span = untraced / 5_000
    assert per_span < 50e-6, f"untraced span cost {per_span * 1e6:.1f}µs"


def test_trace_disabled_span_path_allocates_nothing():
    """No session open: the span path stays allocation-free."""
    assert not runtime.is_enabled()

    def burst(n):
        for _ in range(n):
            with runtime.span("hot.loop"):
                pass

    burst(100)  # warm up outside the measurement window
    tracemalloc.start()
    try:
        burst(10_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 1024, f"disabled span path allocated {peak} bytes"


def test_scope_disabled_records_nothing():
    """Obs off: the hot path never consults the scope or the registry."""
    ring = _build_ring(seed=7)
    node = ring.nodes["node-0"]
    assert not obs.is_enabled()
    before = len(obs.get_registry())
    with scope.node_scope("idle-node"):
        for i in range(50):
            node.find_successor(i * 104729 % (1 << ring._m))
        # nothing created a registry metric: attribution never ran
        assert len(obs.get_registry()) == before
    assert scope.active is False
    assert scope.dropped_nodes == 0
    scope.reset()


def test_resilience_retry_wrapper_cost():
    """The retry + span machinery around the serial sweep stays within
    10% of iterating ``assess()`` by hand.

    Wrapped and bare runs alternate within each repeat, so load that
    shifts during the measurement lands on both sides of the ratio.
    """
    service = _serve_service()
    sweep = _serve_sweep(service)
    sweep()

    def bare():
        for sid in service.servers():
            service.invalidate(sid)
        for sid in service.servers():
            service.assess(sid)

    wrapped = bare_time = float("inf")
    for _ in range(SERVE_REPEATS):
        wrapped = min(wrapped, _min_of(sweep, 1))
        bare_time = min(bare_time, _min_of(bare, 1))
    assert wrapped / bare_time < 1.10, (
        f"assess_many wrapper costs {wrapped / bare_time:.3f}x the bare "
        f"loop (wrapped={wrapped:.4f}s bare={bare_time:.4f}s)"
    )
