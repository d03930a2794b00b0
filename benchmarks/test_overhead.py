"""Overhead guards for the observability and resilience layers.

Each layer's guard runs one workload twice — the layer off, then on —
and asserts the ratio stays inside the layer's budget:

==========  ====================================================  ======
layer       switched on for the second run                        budget
==========  ====================================================  ======
trace       root context + span sink on every span                <10%
profile     a profiler session at the fig9 ``sample_hz=97``       <10%
tsdb        a per-request ``maybe_scrape`` on a 50 ms cadence     <5%
fleet       Chord lookups inside ``node_scope``                   <5%
resilience  an activated-but-empty ``FaultPlan`` on a serve sweep <5%
==========  ====================================================  ======

Next to the ratios sit the per-layer cost pins (untraced span cost,
same-slot scrape cost, retry-wrapper cost) and the checks that disabled
paths allocate or record nothing.  Select one layer with ``-k``::

    PYTHONPATH=src python -m pytest benchmarks/test_overhead.py -k tsdb

Timing assertions live here rather than in ``tests/`` (tier-1) because
they are load-sensitive; both sides are measured as a min-of-repeats so
scheduler noise cancels out of the comparison.
"""

from __future__ import annotations

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
from repro.obs.tsdb import MetricsScraper, scraping_session
from repro.p2p.chord import ChordRing
from repro.p2p.network import SimulatedNetwork
from repro.resilience import FaultPlan
from repro.resilience import runtime as res
from repro.serve import AssessmentService

REPEATS = 15
SAMPLE_HZ = 97.0  # the fig9 profile_path default (out-of-band sampler)

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
        service.assess_many(executor="serial")

    return sweep


# ---------------------------------------------------------------------- #
# layer on vs off: each case returns (baseline_s, enabled_s)


def _trace_case(tmp_path):
    run = _multi_test_run("bench.trace_overhead")
    with obs.activate():
        baseline = _min_of(run)
    spans_path = tmp_path / "spans.jsonl"
    with obs.activate(), trace_ctx.tracing_session(spans_path):
        with trace_ctx.use(trace_ctx.new_root(bench="trace_overhead")):
            traced = _min_of(run)
    # the traced run really did trace: one line per span per repeat
    spans = trace_ctx.read_span_jsonl(spans_path)
    assert len(spans) >= REPEATS
    assert len({s["trace_id"] for s in spans}) == 1
    return baseline, traced


def _profile_case(tmp_path):
    run = _multi_test_run("bench.profile_overhead")
    with obs.activate():
        baseline = _min_of(run)
    with obs.profile_session(sample_hz=SAMPLE_HZ) as profiler:
        profiled = _min_of(run)
    assert profiler.phase("bench.profile_overhead").calls == REPEATS
    return baseline, profiled


def _tsdb_case(tmp_path):
    span_run = _multi_test_run("bench.tsdb_overhead")

    def run():
        # the serving loop's shape: do the work, then offer the scraper
        # one wall-clock slot check (scrapes only on rollover)
        span_run()
        if runtime.scraper is not None:
            runtime.scraper.maybe_scrape()

    with obs.activate():
        baseline = _min_of(run)
    with obs.activate():
        scraper = MetricsScraper(obs.get_registry(), interval_s=0.05)
        with scraping_session(scraper):
            scraped = _min_of(run)
    # the scraped run really did scrape: history made it into the store
    assert scraper.store.n_scrapes >= 1
    assert scraper.store.series()
    return baseline, scraped


def _fleet_case(tmp_path):
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
        base = _min_of(unscoped)
        overhead = _min_of(scoped)
    scope.reset()
    return base, overhead


def _resilience_case(tmp_path):
    sweep = _serve_sweep(_serve_service())
    sweep()  # warm calibration thresholds outside the window
    assert res.armed is False
    disarmed = _min_of(sweep, SERVE_REPEATS)
    # an activated plan with nothing armed pays the plan.decide dict-miss
    # per site, which bounds the armed bookkeeping from above; the
    # disarmed path (one module-attribute read per site) is cheaper
    empty_plan = FaultPlan(seed=0)
    with res.activate(empty_plan):
        assert res.armed is True
        armed_empty = _min_of(sweep, SERVE_REPEATS)
    assert empty_plan.log == []  # nothing armed => nothing decided
    return disarmed, armed_empty


CASES = {
    "trace": (_trace_case, 1.10),
    "profile": (_profile_case, 1.10),
    "tsdb": (_tsdb_case, 1.05),
    "fleet": (_fleet_case, 1.05),
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


def test_profile_disabled_span_path_allocates_nothing():
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


def test_tsdb_same_slot_scrape_is_a_clock_read():
    """Inside one slot, maybe_scrape must not approach microbenchmark
    visibility — a snapshot on the no-rollover path would show up here."""
    with obs.activate():
        registry = obs.get_registry()
        registry.inc("bench.counter", 3)
        scraper = MetricsScraper(registry, interval_s=3600.0)
        scraper.scrape()  # pin the slot: nothing below should scrape

        def burst(n):
            for _ in range(n):
                scraper.maybe_scrape()

        burst(1_000)  # warm
        best = _min_of(lambda: burst(5_000), repeats=7)
    assert scraper.store.n_scrapes == 1
    per_call = best / 5_000
    assert per_call < 5e-6, f"maybe_scrape cost {per_call * 1e6:.2f}µs"


def test_fleet_disabled_scope_records_nothing():
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
    """The ladder + retry + span machinery around the serial sweep stays
    within 10% of iterating ``assess()`` by hand."""
    service = _serve_service()
    sweep = _serve_sweep(service)
    sweep()
    wrapped = _min_of(sweep, SERVE_REPEATS)

    def bare():
        for sid in service.servers():
            service.invalidate(sid)
        for sid in service.servers():
            service.assess(sid)

    bare_time = _min_of(bare, SERVE_REPEATS)
    assert wrapped / bare_time < 1.10, (
        f"assess_many wrapper costs {wrapped / bare_time:.3f}x the bare "
        f"loop (wrapped={wrapped:.4f}s bare={bare_time:.4f}s)"
    )
