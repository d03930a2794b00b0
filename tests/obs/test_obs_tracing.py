"""Span/timer nesting, parent/child timing, and the disabled fast path."""

import time
import tracemalloc

from repro import obs
from repro.obs import runtime, tracing


class TestNesting:
    def test_parent_child_relationship_and_timing(self):
        with obs.activate() as session:
            with obs.span("parent"):
                time.sleep(0.01)
                with obs.span("child", part="a"):
                    time.sleep(0.01)
        tracer = session.tracer
        (parent,) = tracer.find("parent")
        (child,) = tracer.find("child")
        assert child.parent_id == parent.span_id
        assert parent.parent_id is None
        assert child.depth == parent.depth + 1
        assert child.labels == {"part": "a"}
        # the child's interval nests inside the parent's
        assert parent.start <= child.start
        assert child.end <= parent.end + 1e-9
        assert parent.duration >= child.duration

    def test_siblings_share_parent(self):
        with obs.activate() as session:
            with obs.span("root"):
                with obs.span("s1"):
                    pass
                with obs.span("s2"):
                    pass
        (root,) = session.tracer.find("root")
        children = session.tracer.children(root)
        assert sorted(c.name for c in children) == ["s1", "s2"]
        assert session.tracer.roots() == session.tracer.find("root")

    def test_coverage_of_tiled_children(self):
        with obs.activate() as session:
            with obs.span("root"):
                with obs.span("a"):
                    time.sleep(0.01)
                with obs.span("b"):
                    time.sleep(0.01)
        (root,) = session.tracer.find("root")
        assert 0.5 < session.tracer.coverage(root) <= 1.0 + 1e-9

    def test_timer_records_into_histogram(self):
        with obs.activate() as session:
            for _ in range(3):
                with obs.timer("op.seconds", kind="x"):
                    time.sleep(0.002)
        hist = session.registry.histogram("op.seconds", kind="x")
        assert hist.count == 3
        assert hist.min >= 0.002 * 0.5
        # the timer also leaves span records behind
        assert len(session.tracer.find("op.seconds")) == 3

    def test_total_time_sums_spans(self):
        with obs.activate() as session:
            for _ in range(2):
                with obs.span("rep"):
                    time.sleep(0.002)
        assert session.tracer.total_time("rep") >= 0.003

    def test_session_keeps_only_the_newest_spans(self):
        """A session finishing more spans than the cap holds the cap's
        worth, the newest, and counts the rest as dropped."""
        extra = 5
        with obs.activate() as session:
            for i in range(tracing.MAX_SPAN_RECORDS + extra):
                with obs.span("rep", i=str(i)):
                    pass
        tracer = session.tracer
        kept = tracer.finished
        assert len(kept) == tracing.MAX_SPAN_RECORDS
        assert tracer.dropped == extra
        assert kept[0].labels == {"i": str(extra)}
        tracer.reset()
        assert (tracer.finished, tracer.dropped) == ([], 0)


class TestActivationScoping:
    def test_activate_restores_prior_state(self):
        assert not runtime.enabled
        ambient_registry = runtime.registry
        with obs.activate() as session:
            assert runtime.enabled
            assert runtime.registry is session.registry
            assert runtime.registry is not ambient_registry
        assert not runtime.enabled
        assert runtime.registry is ambient_registry

    def test_enable_disable_roundtrip(self):
        reg = obs.MetricsRegistry()
        session = obs.enable(reg)
        try:
            assert obs.is_enabled()
            assert obs.get_registry() is reg
            assert session.registry is reg
        finally:
            obs.disable()
        assert not obs.is_enabled()

    def test_nested_activate(self):
        with obs.activate() as outer:
            with obs.activate() as inner:
                assert runtime.registry is inner.registry
                runtime.registry.inc("inner.only")
            assert runtime.registry is outer.registry
            assert outer.registry.value("inner.only") == 0.0


class TestDisabledPath:
    def test_disabled_span_is_shared_noop(self):
        assert not runtime.enabled
        # no allocation: the same singleton is returned every call
        assert obs.span("anything", label="x") is obs.span("other")
        assert obs.timer("t.seconds") is obs.span("z")

    def test_disabled_path_adds_no_entries(self):
        assert not runtime.enabled
        before_metrics = len(runtime.registry)
        before_spans = len(runtime.tracer.finished)
        with obs.span("ghost"):
            with obs.timer("ghost.seconds"):
                pass
        assert len(runtime.registry) == before_metrics
        assert len(runtime.tracer.finished) == before_spans

    def test_disabled_path_no_measurable_per_call_allocation(self):
        assert not runtime.enabled

        def burst(n):
            for _ in range(n):
                with obs.span("hot"):
                    pass

        burst(100)  # warm up interned constants, bytecode caches
        tracemalloc.start()
        burst(10_000)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # a per-call allocation of even one small object would show up as
        # hundreds of KiB over 10k calls; the noop path must stay flat
        assert peak < 16 * 1024, f"disabled span path allocated {peak} bytes"
